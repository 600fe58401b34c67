package pll

import (
	"math/rand"
	"testing"

	"repro/internal/gen"
	"repro/internal/order"
)

// The CSR arena must hold every entry contiguously in list order, with
// each list a view of its padded span, and the index must stay fully
// dynamic afterwards: in-pad inserts stay in the arena, overflowing lists
// migrate out transparently.
func TestArenaFreezeLayoutAndDynamics(t *testing.T) {
	g := gen.ErdosRenyi(gen.Config{N: 200, M: 800, Seed: 13})
	ord := order.ByDegree(g)
	idx, st := Build(g, ord, Options{})

	a := idx.Arena()
	if a == nil {
		t.Fatal("Build did not freeze the arena")
	}
	if got, want := a.Lists(), 2*200; got != want {
		t.Fatalf("arena lists = %d, want %d", got, want)
	}
	if got := a.FrozenEntries(); got != st.Entries {
		t.Fatalf("arena frozen entries = %d, want %d", got, st.Entries)
	}
	// Spans must be monotone, disjoint, and sized len+pad.
	pos := 0
	for i := 0; i < a.Lists(); i++ {
		start, end := a.Span(i)
		if start != pos {
			t.Fatalf("span %d starts at %d, want %d", i, start, pos)
		}
		pos = end
	}
	if pos != a.Cap() {
		t.Fatalf("spans cover %d slots, arena cap %d", pos, a.Cap())
	}

	// Dynamic maintenance on the frozen index must agree with a rebuild.
	r := rand.New(rand.NewSource(99))
	for k := 0; k < 30; k++ {
		u, v := r.Intn(200), r.Intn(200)
		if u == v {
			continue
		}
		if idx.G.HasEdge(u, v) {
			if _, err := idx.DeleteEdge(u, v); err != nil {
				t.Fatal(err)
			}
		} else {
			if _, err := idx.InsertEdge(u, v); err != nil {
				t.Fatal(err)
			}
		}
	}
	fresh, _ := Build(idx.G.Clone(), ord, Options{})
	for s := 0; s < 200; s++ {
		for tt := 0; tt < 200; tt++ {
			wd, wc := fresh.CountPaths(s, tt)
			gd, gc := idx.CountPaths(s, tt)
			if wd != gd || (wd != Unreachable && wc != gc) {
				t.Fatalf("post-freeze updates: CountPaths(%d,%d) = (%d,%d), want (%d,%d)",
					s, tt, gd, gc, wd, wc)
			}
		}
	}
}

// Regression: growing the graph through AddVertex must grow every scratch
// array — the tentative distance/count arrays indexed by vertex id and the
// hub scatter indexed by rank — before the next update pass runs. The
// fresh vertex lands at the lowest rank, so a maintained insertion that
// seeds a BFS at it indexes all three at the new size.
func TestAddVertexGrowsScratch(t *testing.T) {
	g := gen.ErdosRenyi(gen.Config{N: 40, M: 160, Seed: 7})
	idx, _ := Build(g, order.ByDegree(g), Options{})
	for k := 0; k < 5; k++ {
		v, err := idx.AddVertex()
		if err != nil {
			t.Fatal(err)
		}
		// Wire the new vertex into the graph immediately: these passes
		// index the scratch at the grown size and must not panic.
		if _, err := idx.InsertEdge(v, k); err != nil {
			t.Fatal(err)
		}
		if _, err := idx.InsertEdge(k+1, v); err != nil {
			t.Fatal(err)
		}
		if _, err := idx.DeleteEdge(v, k); err != nil {
			t.Fatal(err)
		}
		if _, err := idx.InsertEdge(v, k); err != nil {
			t.Fatal(err)
		}
	}
	fresh, _ := Build(idx.G.Clone(), idx.Ord, Options{})
	assertSameLabelsByQuery(t, fresh, idx)
}

func assertSameLabelsByQuery(t *testing.T, want, got *Index) {
	t.Helper()
	n := want.G.NumVertices()
	for s := 0; s < n; s++ {
		for tt := 0; tt < n; tt++ {
			wd, wc := want.CountPaths(s, tt)
			gd, gc := got.CountPaths(s, tt)
			if wd != gd || (wd != Unreachable && wc != gc) {
				t.Fatalf("CountPaths(%d,%d) = (%d,%d), want (%d,%d)", s, tt, gd, gc, wd, wc)
			}
		}
	}
}

// The entry counter must track every mutation path exactly — builds,
// inserts, deletes, vertex growth — so EntryCount stays O(1) truthful.
func TestEntryCountStaysExact(t *testing.T) {
	recount := func(idx *Index) int {
		total := 0
		for v := range idx.In {
			total += idx.In[v].Len() + idx.Out[v].Len()
		}
		return total
	}
	for _, strat := range []Strategy{Redundancy, Minimality} {
		g := gen.ErdosRenyi(gen.Config{N: 60, M: 240, Seed: 31})
		idx, _ := Build(g, order.ByDegree(g), Options{Strategy: strat})
		if got, want := idx.EntryCount(), recount(idx); got != want {
			t.Fatalf("%v: after build: EntryCount = %d, recount = %d", strat, got, want)
		}
		r := rand.New(rand.NewSource(17))
		for k := 0; k < 60; k++ {
			u, v := r.Intn(60), r.Intn(60)
			if u == v {
				continue
			}
			if idx.G.HasEdge(u, v) {
				if _, err := idx.DeleteEdge(u, v); err != nil {
					t.Fatal(err)
				}
			} else {
				if _, err := idx.InsertEdge(u, v); err != nil {
					t.Fatal(err)
				}
			}
			if got, want := idx.EntryCount(), recount(idx); got != want {
				t.Fatalf("%v: step %d: EntryCount = %d, recount = %d", strat, k, got, want)
			}
		}
		if _, err := idx.AddVertex(); err != nil {
			t.Fatal(err)
		}
		if got, want := idx.EntryCount(), recount(idx); got != want {
			t.Fatalf("%v: after AddVertex: EntryCount = %d, recount = %d", strat, got, want)
		}
	}
}
