package exp

import (
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"runtime"
	"time"

	"repro/internal/csc"
	"repro/internal/order"
)

// BenchResult is one dataset's row of the machine-readable benchmark
// suite (`cscbench -json`). Every figure the paper's evaluation tracks —
// construction wall-clock, index size, query latency, update latency —
// lands in one JSON object so the perf trajectory can be diffed across
// PRs without parsing prose tables. EXPERIMENTS.md documents the
// methodology.
type BenchResult struct {
	Dataset      string  `json:"dataset"`
	Scale        string  `json:"scale"`
	Workers      int     `json:"workers"` // 0 = all cores
	GOMAXPROCS   int     `json:"gomaxprocs"`
	N            int     `json:"n"`
	M            int     `json:"m"`
	BuildWallNS  int64   `json:"build_wall_ns"`
	Entries      int     `json:"entries"`
	Bytes        int     `json:"bytes"`
	ReducedBytes int     `json:"reduced_bytes"`
	ArenaBytes   int     `json:"arena_bytes"` // label bytes the store holds (ResidentBytes)
	QueryNS      float64 `json:"query_ns"`
	InsertNS     float64 `json:"insert_ns"`
	DeleteNS     float64 `json:"delete_ns"`

	// Sharding is set on the synthetic partition-family rows the suite
	// appends after the paper-analog datasets: the monolithic-vs-sharded
	// build comparison (sharding.go). On those rows the standard
	// build/size fields describe the sharded build.
	Sharding *ShardingRow `json:"sharding,omitempty"`

	// Ordering is set on the ORD-* rows the suite appends last: the
	// hub-ordering shootout — label bytes, build time, and query
	// percentiles per strategy, normalized against the degree baseline
	// (ordering.go).
	Ordering *OrderingRow `json:"ordering,omitempty"`
}

// benchQueries and benchUpdates bound the per-dataset sample sizes.
func benchSamples(s Scale) (queries, updates int) {
	switch s {
	case Tiny:
		return 2000, 20
	case Small:
		return 5000, 40
	default:
		return 10000, 80
	}
}

// Bench builds the CSC index on one dataset and measures the quantities
// BenchResult records, at the parallelism the Workers package variable
// selects (like every other experiment). Updates are measured as
// delete+reinsert pairs over random existing edges (each leg timed
// separately), so the graph and index end the run unchanged.
func Bench(s Scale, d Dataset) BenchResult {
	g := d.Build(s)
	n, m := g.NumVertices(), g.NumEdges()
	ord := order.ByDegree(g)

	t0 := time.Now()
	x, _ := csc.Build(g, ord, csc.Options{})
	buildWall := time.Since(t0)

	res := BenchResult{
		Dataset:      d.Name,
		Scale:        s.String(),
		Workers:      Workers,
		GOMAXPROCS:   runtime.GOMAXPROCS(0),
		N:            n,
		M:            m,
		BuildWallNS:  buildWall.Nanoseconds(),
		Entries:      x.EntryCount(),
		Bytes:        x.Bytes(),
		ReducedBytes: x.ReducedBytes(),
	}
	res.ArenaBytes = x.ResidentBytes()

	queries, updates := benchSamples(s)
	r := rand.New(rand.NewSource(9))

	qt0 := time.Now()
	for i := 0; i < queries; i++ {
		x.CycleCount(r.Intn(n))
	}
	res.QueryNS = float64(time.Since(qt0).Nanoseconds()) / float64(queries)

	edges := pickEdges(x.Graph(), updates, 9)
	if len(edges) > 0 {
		var delTotal, insTotal time.Duration
		for _, e := range edges {
			dt0 := time.Now()
			if _, err := x.DeleteEdge(e[0], e[1]); err != nil {
				panic(err) // edges were sampled from the live graph
			}
			delTotal += time.Since(dt0)
			it0 := time.Now()
			if _, err := x.InsertEdge(e[0], e[1]); err != nil {
				panic(err)
			}
			insTotal += time.Since(it0)
		}
		res.DeleteNS = float64(delTotal.Nanoseconds()) / float64(len(edges))
		res.InsertNS = float64(insTotal.Nanoseconds()) / float64(len(edges))
	}
	return res
}

// BenchSuite runs Bench over the given datasets, then appends the
// deterministic size families: one row per condensation-sharding family
// (SHARD-*) and per ordering strategy and family (ORD-*), so they land
// in the same BENCH_*.json artifact.
func BenchSuite(s Scale, ds []Dataset) []BenchResult {
	var out []BenchResult
	for _, d := range ds {
		out = append(out, Bench(s, d))
	}
	for _, row := range Sharding(s) {
		row := row
		out = append(out, BenchResult{
			Dataset:     "SHARD-" + row.Family,
			Scale:       s.String(),
			Workers:     Workers,
			GOMAXPROCS:  runtime.GOMAXPROCS(0),
			N:           row.N,
			M:           row.M,
			BuildWallNS: row.ShardedBuildNS,
			Entries:     row.ShardedBytes / 8,
			Bytes:       row.ShardedBytes,
			Sharding:    &row,
		})
	}
	for _, row := range Ordering(s) {
		row := row
		out = append(out, BenchResult{
			Dataset:     fmt.Sprintf("ORD-%s-%s", row.Family, row.Strategy),
			Scale:       s.String(),
			Workers:     Workers,
			GOMAXPROCS:  runtime.GOMAXPROCS(0),
			N:           row.N,
			M:           row.M,
			BuildWallNS: row.BuildNS,
			Entries:     row.Entries,
			Bytes:       row.LabelBytes,
			Ordering:    &row,
		})
	}
	return out
}

// WriteBenchJSON emits the suite as indented JSON (one array, stable
// field order), the format BENCH_*.json files store.
func WriteBenchJSON(w io.Writer, res []BenchResult) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(res)
}
