package graph_test

import (
	"bytes"
	"math/rand"
	"testing"

	"repro/internal/gen"
	"repro/internal/graph"
)

// ledgerEdgeList writes a background payment network with the benchmark
// ledger's proportions (n accounts, 1.1n edges, planted criminal rings) as
// an edge list.
func ledgerEdgeList(tb testing.TB, n int) []byte {
	var buf bytes.Buffer
	if err := gen.TransactionNetwork(n, n+n/10, n/500, 4, 4, 1).G.WriteEdgeList(&buf); err != nil {
		tb.Fatal(err)
	}
	return buf.Bytes()
}

// ReadEdgeList's allocations do not grow with the vertex count.
func TestReadEdgeListAllocs(t *testing.T) {
	data := ledgerEdgeList(t, 20000)
	a := testing.AllocsPerRun(3, func() {
		if _, err := graph.ReadEdgeList(bytes.NewReader(data)); err != nil {
			t.Fatal(err)
		}
	})
	if a > 64 {
		t.Fatalf("ReadEdgeList: %.0f allocs/op, budget 64", a)
	}
}

func BenchmarkReadEdgeList(b *testing.B) {
	data := ledgerEdgeList(b, 100000)
	b.SetBytes(int64(len(data)))
	b.ReportAllocs()
	for b.Loop() {
		if _, err := graph.ReadEdgeList(bytes.NewReader(data)); err != nil {
			b.Fatal(err)
		}
	}
}

// The adjacency footprint is the CSR bound, 8 bytes per vertex and 8 per
// edge for both sides, on a parsed ledger-scale network, and write churn
// keeps it within 1.25x of that bound: the overflow folds back before it
// grows past its share.
func TestFootprintAtLedgerScale(t *testing.T) {
	g, err := graph.ReadEdgeList(bytes.NewReader(ledgerEdgeList(t, 100000)))
	if err != nil {
		t.Fatal(err)
	}
	const slack = 256 // bytes
	n, m := g.NumVertices(), g.NumEdges()
	bound := 8*(n+1) + 8*m + slack
	if b := g.Bytes(); b > bound {
		t.Fatalf("parsed: %d bytes, bound 8(n+1)+8m+%d = %d", b, slack, bound)
	}
	// Each flap toggles one of the parsed edges (delete, later reinsert)
	// and one random vertex pair (insert, later delete).
	edges := g.Edges()
	toggle := func(u, v int) {
		if g.HasEdge(u, v) {
			_ = g.RemoveEdge(u, v)
		} else {
			_ = g.AddEdge(u, v) // a self-loop fails and flaps nothing
		}
	}
	r := rand.New(rand.NewSource(1))
	worst := 0.0
	for i := range 10000 {
		e := edges[r.Intn(len(edges))]
		toggle(e[0], e[1])
		toggle(r.Intn(n), r.Intn(n))
		limit := 8*(n+1) + 8*g.NumEdges() + slack
		worst = max(worst, float64(g.Bytes())/float64(limit))
		if worst > 1.25 {
			t.Fatalf("after %d flaps: %d bytes, over 1.25x the bound %d", i+1, g.Bytes(), limit)
		}
	}
	t.Logf("worst footprint over the flaps: %.3fx the bound", worst)
}
