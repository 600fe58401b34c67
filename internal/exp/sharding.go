package exp

import (
	"fmt"
	"io"
	"time"

	"repro/internal/csc"
	"repro/internal/graph"
	"repro/internal/order"
	"repro/internal/testgraphs"
)

// ShardingRow compares the monolithic and SCC-sharded builds on one
// partition-stress family: build wall-clock and label bytes, plus the
// partition shape. The DAG-heavy family is the headline — condensation
// sharding skips labeling everything outside the (tiny) cyclic regions,
// so build time and label bytes drop by the acyclic share of the graph.
// The giant-SCC family is the worst case: one component, so sharding
// degrades to the monolithic build plus one Tarjan pass.
type ShardingRow struct {
	Family          string  `json:"family"`
	N               int     `json:"n"`
	M               int     `json:"m"`
	Shards          int     `json:"shards"`
	TrivialVertices int     `json:"trivial_vertices"`
	MonoBuildNS     int64   `json:"mono_build_ns"`
	ShardedBuildNS  int64   `json:"sharded_build_ns"`
	MonoBytes       int     `json:"mono_bytes"`
	ShardedBytes    int     `json:"sharded_bytes"`
	BuildSpeedup    float64 `json:"build_speedup"`
	BytesReduction  float64 `json:"bytes_reduction"`
}

// shardingFamily is one generated family of the sharding experiment.
type shardingFamily struct {
	name  string
	build func(s Scale) *graph.Digraph
}

func shardingFamilies() []shardingFamily {
	return []shardingFamily{
		{"dag-heavy", func(s Scale) *graph.Digraph {
			switch s {
			case Tiny:
				return testgraphs.DAGHeavy(2000, 6000, 4, 7)
			case Small:
				return testgraphs.DAGHeavy(8000, 24000, 8, 7)
			default:
				return testgraphs.DAGHeavy(20000, 60000, 12, 7)
			}
		}},
		{"many-small-scc", func(s Scale) *graph.Digraph {
			switch s {
			case Tiny:
				return testgraphs.ManySmallSCC(40, 5, 200, 8)
			case Small:
				return testgraphs.ManySmallSCC(150, 6, 800, 8)
			default:
				return testgraphs.ManySmallSCC(400, 6, 2400, 8)
			}
		}},
		{"giant-scc", func(s Scale) *graph.Digraph {
			switch s {
			case Tiny:
				return testgraphs.GiantSCC(500, 2000, 9)
			case Small:
				return testgraphs.GiantSCC(1500, 6000, 9)
			default:
				return testgraphs.GiantSCC(4000, 16000, 9)
			}
		}},
	}
}

// Sharding runs the condensation-sharding experiment: per family, one
// timed monolithic build and one timed sharded build (both at the
// Workers parallelism every experiment uses), with label-byte totals and
// the partition shape. Both indexes are built on clones of the same
// generated graph.
func Sharding(s Scale) []ShardingRow {
	var rows []ShardingRow
	for _, fam := range shardingFamilies() {
		g := fam.build(s)
		n, m := g.NumVertices(), g.NumEdges()

		mg := g.Clone()
		t0 := time.Now()
		mono, _ := csc.Build(mg, order.ByDegree(mg), csc.Options{})
		monoWall := time.Since(t0)

		t1 := time.Now()
		sharded, _ := csc.BuildSharded(g, csc.Options{Workers: Workers})
		shardWall := time.Since(t1)

		row := ShardingRow{
			Family:          fam.name,
			N:               n,
			M:               m,
			Shards:          sharded.NumShards(),
			TrivialVertices: sharded.TrivialVertices(),
			MonoBuildNS:     monoWall.Nanoseconds(),
			ShardedBuildNS:  shardWall.Nanoseconds(),
			MonoBytes:       mono.Bytes(),
			ShardedBytes:    sharded.Bytes(),
		}
		if row.ShardedBuildNS > 0 {
			row.BuildSpeedup = float64(row.MonoBuildNS) / float64(row.ShardedBuildNS)
		}
		if row.ShardedBytes > 0 {
			row.BytesReduction = float64(row.MonoBytes) / float64(row.ShardedBytes)
		}
		rows = append(rows, row)
	}
	return rows
}

// WriteSharding renders the sharding experiment as a prose table.
func WriteSharding(w io.Writer, rows []ShardingRow) error {
	if _, err := fmt.Fprintf(w, "%-15s %8s %8s %7s %8s | %10s %10s %7s | %10s %10s %7s\n",
		"family", "n", "m", "shards", "trivial",
		"mono-ms", "shard-ms", "speedup", "mono-KB", "shard-KB", "reduce"); err != nil {
		return err
	}
	for _, r := range rows {
		if _, err := fmt.Fprintf(w, "%-15s %8d %8d %7d %8d | %10.2f %10.2f %6.1fx | %10.1f %10.1f %6.1fx\n",
			r.Family, r.N, r.M, r.Shards, r.TrivialVertices,
			float64(r.MonoBuildNS)/1e6, float64(r.ShardedBuildNS)/1e6, r.BuildSpeedup,
			float64(r.MonoBytes)/1024, float64(r.ShardedBytes)/1024, r.BytesReduction); err != nil {
			return err
		}
	}
	return nil
}
