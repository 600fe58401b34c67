package csc

import (
	"testing"

	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/order"
)

// servedLedger composes the 102,000-vertex payment ledger cyclebench
// serves (bench/ledger.go, scale "medium"): a 100,000-account
// transaction network with planted rings, plus a separate 2,000-vertex
// power-law core at ids [100000, 102000), added one edge at a time in
// the same order so the adjacency lists, and with them the coverage
// order's sampled cycles, match the served graph.
func servedLedger() *graph.Digraph {
	const bgN, coreN = 100000, 2000
	g := gen.TransactionNetwork(bgN, 110000, 200, 4, 4, 1).G
	core := gen.PowerLaw(gen.Config{N: coreN, M: 40000, Seed: 2}, 2.0, 1.9)
	for range coreN {
		g.AddVertex()
	}
	for u := range coreN {
		for _, v := range core.Out(u) {
			_ = g.AddEdge(bgN+u, bgN+int(v))
		}
	}
	return g
}

// The evidence behind cscd's default -order coverage: on the ledger the
// daemon serves, coverage at the daemon's default seed 0 stores 9.1%
// fewer label entries than the paper's degree order. Both counts are
// exact (orders are pure functions of graph, strategy and seed), so a
// change to either order, to the ledger's generators or to construction
// shows here before it moves cyclebench's index_bytes (8 B per entry).
func TestServedLedgerOrderEntries(t *testing.T) {
	if testing.Short() {
		t.Skip("builds the 102,000-vertex ledger twice")
	}
	g := servedLedger()
	for _, c := range []struct {
		strat   order.Strategy
		entries int
	}{
		{order.Degree, 1184570},
		{order.Coverage, 1076500},
	} {
		x, _ := BuildSharded(g.Clone(), Options{Order: c.strat})
		if got := x.EntryCount(); got != c.entries {
			t.Errorf("%s: %d label entries on the ledger, want %d", c.strat, got, c.entries)
		}
	}
}
