package exp

import (
	"math/rand"
	"sort"
	"time"

	"repro/internal/csc"
	"repro/internal/graph"
	"repro/internal/order"
	"repro/internal/testgraphs"
)

// The hub-ordering shootout: every ordering strategy the order package
// implements, built over the same partition-stress families the sharding
// experiment uses, measured on the three axes an ordering can move —
// label bytes (the paper's headline: a good order prunes construction
// BFSes early, so every list shrinks), build wall-clock (coverage pays
// per-sample BFS up front), and query latency (shorter lists join
// faster). The ORD-* rows land in the BENCH_*.json artifact
// next to SHARD-*, so the ordering trajectory diffs across
// PRs like every other figure.

// OrderingRow is one (family, strategy) cell of the shootout.
type OrderingRow struct {
	Family   string `json:"family"`
	Strategy string `json:"strategy"`
	N        int    `json:"n"`
	M        int    `json:"m"`
	BuildNS  int64  `json:"build_ns"`
	Entries  int    `json:"entries"`
	// LabelBytes is the sharded index's total label footprint under this
	// strategy; BytesVsDegree the ratio against the degree baseline on
	// the same family (1.0 for the degree row itself, < 1 beats it).
	LabelBytes    int     `json:"label_bytes"`
	BytesVsDegree float64 `json:"bytes_vs_degree"`
	QueryP50NS    int64   `json:"query_p50_ns"`
	QueryP99NS    int64   `json:"query_p99_ns"`
}

// orderingStrategies is the shootout sweep: the paper's degree baseline,
// the sampled-cycle coverage order, and random as the floor every
// informed order must clear.
func orderingStrategies() []order.Strategy {
	return []order.Strategy{order.Degree, order.Random, order.Coverage}
}

// orderingSeed fixes the sampling seed so every shootout run builds the
// same orders — rows are comparable across machines and PRs.
const orderingSeed = 7

// orderingFamilies is the shootout's graph sweep: the three sharding
// families plus the uniform-degree torus, where degree ordering
// degenerates to row-major vertex id — the case that shows why vertex
// order must be pluggable at all.
func orderingFamilies() []shardingFamily {
	return append(shardingFamilies(), shardingFamily{
		"torus", func(s Scale) *graph.Digraph {
			switch s {
			case Tiny:
				return testgraphs.Torus(16, 16)
			case Small:
				return testgraphs.Torus(24, 24)
			default:
				return testgraphs.Torus(32, 32)
			}
		},
	})
}

// Ordering runs the shootout: per family, one timed sharded build per
// strategy plus a sampled query-latency distribution, with label bytes
// normalized against the family's degree baseline.
func Ordering(s Scale) []OrderingRow {
	var rows []OrderingRow
	for _, fam := range orderingFamilies() {
		g := fam.build(s)
		n, m := g.NumVertices(), g.NumEdges()
		degreeBytes := 0
		for _, strat := range orderingStrategies() {
			gg := g.Clone()
			t0 := time.Now()
			x, _ := csc.BuildSharded(gg, csc.Options{
				Workers:   Workers,
				Order:     strat,
				OrderSeed: orderingSeed,
			})
			build := time.Since(t0)

			row := OrderingRow{
				Family:     fam.name,
				Strategy:   strat.String(),
				N:          n,
				M:          m,
				BuildNS:    build.Nanoseconds(),
				Entries:    x.EntryCount(),
				LabelBytes: x.Bytes(),
			}
			if strat == order.Degree {
				degreeBytes = row.LabelBytes
			}
			if degreeBytes > 0 {
				row.BytesVsDegree = float64(row.LabelBytes) / float64(degreeBytes)
			}
			row.QueryP50NS, row.QueryP99NS = orderingQueryLatency(x, n, s)
			rows = append(rows, row)
		}
	}
	return rows
}

// orderingQueryLatency samples per-query SCCnt latency and reports the
// p50/p99 of the distribution — tail latency is where a bad order shows
// first, since only the longest label lists feel it.
func orderingQueryLatency(x *csc.Sharded, n int, s Scale) (p50, p99 int64) {
	samples, _ := benchSamples(s)
	r := rand.New(rand.NewSource(orderingSeed))
	lat := make([]int64, samples)
	for i := range lat {
		v := r.Intn(n)
		t0 := time.Now()
		x.CycleCount(v)
		lat[i] = time.Since(t0).Nanoseconds()
	}
	sort.Slice(lat, func(i, j int) bool { return lat[i] < lat[j] })
	return lat[len(lat)/2], lat[len(lat)*99/100]
}
