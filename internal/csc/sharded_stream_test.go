package csc

import (
	"math/rand"
	"testing"

	"repro/internal/bfscount"
	"repro/internal/graph"
	"repro/internal/order"
)

// assertStreamState cross-checks the sharded index against a freshly
// built monolithic index and the BFS oracle on every vertex, plus the
// shard-table invariants.
func assertStreamState(t testing.TB, x *Sharded, tag string) {
	t.Helper()
	if err := x.checkConsistent(); err != nil {
		t.Fatalf("%s: %v", tag, err)
	}
	g := x.Graph()
	mono, _ := Build(g.Clone(), order.ByDegree(g), Options{})
	for v := 0; v < g.NumVertices(); v++ {
		sl, sc := x.CycleCount(v)
		ml, mc := mono.CycleCount(v)
		if sl != ml || sc != mc {
			t.Fatalf("%s: vertex %d sharded (%d,%d) != fresh monolithic (%d,%d)", tag, v, sl, sc, ml, mc)
		}
		ol, oc := bfscount.CycleCount(g, v)
		if sl != ol || sc != oc {
			t.Fatalf("%s: vertex %d sharded (%d,%d) != oracle (%d,%d)", tag, v, sl, sc, ol, oc)
		}
	}
}

// applyStreamOp decodes one (u, v, kind) triple into a maintained update:
// insert when the edge is absent, delete when present — so a random
// stream keeps exercising both directions and deliberately merges and
// splits components as cycles form and break.
func applyStreamOp(t testing.TB, x *Sharded, u, v int) {
	t.Helper()
	if u == v {
		return
	}
	if x.Graph().HasEdge(u, v) {
		if _, err := x.DeleteEdge(u, v); err != nil {
			t.Fatalf("delete (%d,%d): %v", u, v, err)
		}
	} else {
		if _, err := x.InsertEdge(u, v); err != nil {
			t.Fatalf("insert (%d,%d): %v", u, v, err)
		}
	}
}

// TestShardedUpdateStream drives randomized insert/delete streams that
// repeatedly merge and split components, asserting after every batch that
// the maintained sharded index matches a freshly built monolithic index
// and the BFS oracle on every vertex.
func TestShardedUpdateStream(t *testing.T) {
	const (
		n       = 14
		trials  = 8
		batches = 12
		perOp   = 6
	)
	for trial := 0; trial < trials; trial++ {
		r := rand.New(rand.NewSource(int64(1000 + trial)))
		g := graph.New(n)
		// Seed with a sparse random graph so the first batches already
		// have components to split.
		for i := 0; i < 2*n; i++ {
			u, v := r.Intn(n), r.Intn(n)
			if u != v && !g.HasEdge(u, v) {
				_ = g.AddEdge(u, v)
			}
		}
		x, _ := BuildSharded(g, Options{})
		assertStreamState(t, x, "seed")
		for b := 0; b < batches; b++ {
			for k := 0; k < perOp; k++ {
				applyStreamOp(t, x, r.Intn(n), r.Intn(n))
			}
			assertStreamState(t, x, "batch")
		}
		if m, s := x.Rebuilds(); m == 0 && s == 0 && t.Failed() == false && trial == 0 {
			t.Logf("warning: trial %d exercised no merges/splits", trial)
		}
	}
}

// FuzzShardedUpdateStream feeds an arbitrary byte string as an update
// stream over a small graph: each byte pair is one endpoint pair, applied
// as insert-or-toggle-delete. After every op, reducing then re-expanding
// each shard must be the identity; after the stream, the sharded index
// must match the oracle everywhere.
func FuzzShardedUpdateStream(f *testing.F) {
	f.Add([]byte{0x01, 0x23, 0x31, 0x10, 0x02, 0x20})
	f.Add([]byte{0x01, 0x12, 0x20, 0x01, 0x34, 0x45, 0x53, 0x30})
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, ops []byte) {
		const n = 8
		if len(ops) > 64 {
			ops = ops[:64]
		}
		g := graph.New(n)
		x, _ := BuildSharded(g, Options{})
		for _, b := range ops {
			u, v := int(b>>4)%n, int(b&0xf)%n
			applyStreamOp(t, x, u, v)
			assertReduceExpandIdentity(t, x)
		}
		if err := x.checkConsistent(); err != nil {
			t.Fatal(err)
		}
		for v := 0; v < n; v++ {
			sl, sc := x.CycleCount(v)
			ol, oc := bfscount.CycleCount(x.Graph(), v)
			if sl != ol || sc != oc {
				t.Fatalf("vertex %d: sharded (%d,%d) != oracle (%d,%d)", v, sl, sc, ol, oc)
			}
		}
	})
}
