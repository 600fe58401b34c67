package csc

import (
	"testing"

	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/order"
	"repro/internal/partition"
)

// BenchmarkBuildLedgerCore times one construction of the served ledger's
// dense core: the largest component of the 2,000-vertex power-law graph
// servedLedger adds edge by edge (1,979 vertices, 39,482 edges), under
// the coverage order cscd builds with. The component, its induced
// subgraph and its order are prepared outside the timer, so the loop is
// the boot build of that one shard; entries is its label entry count.
func BenchmarkBuildLedgerCore(b *testing.B) {
	const coreN = 2000
	core := gen.PowerLaw(gen.Config{N: coreN, M: 40000, Seed: 2}, 2.0, 1.9)
	g := graph.New(coreN)
	for u := range coreN {
		for _, v := range core.Out(u) {
			_ = g.AddEdge(u, int(v))
		}
	}
	var verts []int32
	for _, c := range partition.SCC(g).NonTrivial() {
		if len(c) > len(verts) {
			verts = c
		}
	}
	sub := partition.Induced(g, verts)
	ord := orderFor(sub, Options{Order: order.Coverage})
	var x *Index
	for b.Loop() {
		x, _ = Build(sub, ord, Options{})
	}
	b.ReportMetric(float64(x.EntryCount()), "entries")
}
