package graph_test

import (
	"bytes"
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
