package gen

import (
	"slices"
	"testing"

	"repro/internal/graph"
)

// TestBulkBuildMatchesAddEdge holds every generator's one-shot
// graph.FromPairs build to the graph the same generator grows one AddEdge
// at a time on a *graph.Digraph: equal graphs with identical Out and In
// order, at fixed seeds, with and without reciprocal suppression.
func TestBulkBuildMatchesAddEdge(t *testing.T) {
	type gencase struct {
		name string
		n    int
		bulk func() *graph.Digraph
		grow func(g grower)
	}
	var cases []gencase
	for _, noRecip := range []bool{false, true} {
		cfg := Config{N: 300, M: 1500, Seed: 21, NoReciprocal: noRecip}
		cases = append(cases,
			gencase{"er", cfg.N, func() *graph.Digraph { return ErdosRenyi(cfg) }, func(g grower) { erdosRenyi(g, cfg) }},
			gencase{"powerlaw", cfg.N, func() *graph.Digraph { return PowerLaw(cfg, 2.1, 1.9) }, func(g grower) { powerLaw(g, cfg, 2.1, 1.9) }},
			gencase{"smallworld", cfg.N, func() *graph.Digraph { return SmallWorld(cfg, 4, 0.2) }, func(g grower) { smallWorld(g, cfg, 4, 0.2) }},
			gencase{"copy", cfg.N, func() *graph.Digraph { return Copy(cfg, 4, 0.6, 0.3) }, func(g grower) { copyModel(g, cfg, 4, 0.6, 0.3) }},
			gencase{"star", cfg.N, func() *graph.Digraph { return Star(cfg, 0.02) }, func(g grower) { star(g, cfg, 0.02) }},
		)
	}
	cases = append(cases, gencase{"transaction", 2000,
		func() *graph.Digraph { return TransactionNetwork(2000, 2600, 5, 4, 4, 3).G },
		func(g grower) { transactionNetwork(g, 2000, 2600, 5, 4, 4, 3) }})
	for _, c := range cases {
		got := c.bulk()
		want := graph.New(c.n)
		c.grow(want)
		if !graph.Equal(got, want) {
			t.Fatalf("%s: bulk build differs from the AddEdge path", c.name)
		}
		for v := 0; v < c.n; v++ {
			if !slices.Equal(got.Out(v), want.Out(v)) || !slices.Equal(got.In(v), want.In(v)) {
				t.Fatalf("%s: vertex %d adjacency order: bulk out %v in %v, AddEdge out %v in %v",
					c.name, v, got.Out(v), got.In(v), want.Out(v), want.In(v))
			}
		}
	}
	tx := TransactionNetwork(2000, 2600, 5, 4, 4, 3)
	if !slices.Equal(tx.Criminals, []int{0, 1, 2, 3, 4}) || tx.RingLen != 4 {
		t.Fatalf("transaction network: criminals %v ring length %d", tx.Criminals, tx.RingLen)
	}
}

// BenchmarkTxnGen times the ledger-scale transaction network (10^5
// vertices, 1.1·10^5 edges), the graph cyclebench's ledger starts from.
func BenchmarkTxnGen(b *testing.B) {
	for b.Loop() {
		TransactionNetwork(100000, 110000, 200, 4, 4, 1)
	}
}
