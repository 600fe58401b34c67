package csc

import (
	"math/rand"
	"testing"

	"repro/internal/order"
	"repro/internal/pll"
)

// Maintained CSC labels must stay aligned with construction semantics:
// maintenance passes never run from V_out vertices (they are not hubs),
// so under the minimality strategy the maintained index is identical to a
// from-scratch rebuild after any update sequence. Without the hub filter
// in the dynamic algorithms, deletions on Gb would accrete V_out-hub
// entries — harmless for queries but inflating the index by double-digit
// percentages (this is a regression test for exactly that).
func TestMaintainedLabelsEqualRebuild(t *testing.T) {
	r := rand.New(rand.NewSource(6))
	n := 14
	g := randomGraph(r, n, 3)
	baseOrd := order.ByDegree(g)
	x, _ := Build(g, baseOrd, Options{Strategy: pll.Minimality})
	for k := 0; k < 40; k++ {
		u, v := r.Intn(n), r.Intn(n)
		if u == v {
			continue
		}
		if g.HasEdge(u, v) {
			if _, err := x.DeleteEdge(u, v); err != nil {
				t.Fatal(err)
			}
		} else {
			if _, err := x.InsertEdge(u, v); err != nil {
				t.Fatal(err)
			}
		}
		fresh, _ := Build(g.Clone(), baseOrd, Options{})
		fe, me := fresh.Engine(), x.Engine()
		fe.Expand()
		for b := 0; b < 2*n; b++ {
			if !entriesEqual(me.In[b].Entries(), fe.In[b].Entries()) {
				t.Fatalf("step %d: Lin(%d): maintained %v != fresh %v",
					k, b, me.In[b].Entries(), fe.In[b].Entries())
			}
			if !entriesEqual(me.Out[b].Entries(), fe.Out[b].Entries()) {
				t.Fatalf("step %d: Lout(%d): maintained %v != fresh %v",
					k, b, me.Out[b].Entries(), fe.Out[b].Entries())
			}
		}
	}
}

// Under redundancy, deletions must not inflate the index beyond the fresh
// size by more than the stale remnants of the deleted pairs themselves —
// in particular, no V_out-hub accretion.
func TestRedundancyDeletionsDoNotAccrete(t *testing.T) {
	r := rand.New(rand.NewSource(8))
	n := 60
	g := randomGraph(r, n, 4)
	baseOrd := order.ByDegree(g)
	x, _ := Build(g, baseOrd, Options{})
	edges := g.Edges()
	r.Shuffle(len(edges), func(i, j int) { edges[i], edges[j] = edges[j], edges[i] })
	for _, e := range edges[:20] {
		if _, err := x.DeleteEdge(e[0], e[1]); err != nil {
			t.Fatal(err)
		}
	}
	fresh, _ := Build(g.Clone(), baseOrd, Options{})
	got, want := x.EntryCount(), fresh.EntryCount()
	if got > want+want/20 { // ≤5% slack for stale-but-dominated remnants
		t.Fatalf("maintained index accreted: %d entries vs fresh %d", got, want)
	}
}
