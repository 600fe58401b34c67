package pll

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/graph"
	"repro/internal/order"
)

// These tests verify the deep ESPC label invariant — stronger than query
// correctness, which stale-dominated entries can mask:
//
//   - entry (h,d,c) ∈ Lin(w) exists with d = sd(h,w) and c = (number of
//     shortest h→w paths on which h is the top-ranked vertex) exactly when
//     at least one such h-max shortest path exists;
//   - any other entry must be dominated (distance strictly above sd), so
//     it can never contribute to a query;
//
// and symmetrically for out-labels.

// restrictedCounts computes, via BFS from s that only traverses vertices
// ranked below s, the length and count of s-max paths from s to every
// vertex. forward=false walks in-edges (paths *to* s).
func restrictedCounts(g *graph.Digraph, ord *order.Order, s int, forward bool) ([]int32, []uint64) {
	n := g.NumVertices()
	d := make([]int32, n)
	c := make([]uint64, n)
	for i := range d {
		d[i] = -1
	}
	d[s] = 0
	c[s] = 1
	q := []int32{int32(s)}
	rs := ord.Rank(s)
	for h := 0; h < len(q); h++ {
		w := int(q[h])
		var nbrs []int32
		if forward {
			nbrs = g.Out(w)
		} else {
			nbrs = g.In(w)
		}
		for _, u := range nbrs {
			if ord.Rank(int(u)) <= rs {
				continue
			}
			if d[u] == -1 {
				d[u] = d[w] + 1
				c[u] = c[w]
				q = append(q, u)
			} else if d[u] == d[w]+1 {
				c[u] += c[w]
			}
		}
	}
	return d, c
}

func plainDistances(g *graph.Digraph, s int, forward bool) []int32 {
	n := g.NumVertices()
	d := make([]int32, n)
	for i := range d {
		d[i] = -1
	}
	d[s] = 0
	q := []int32{int32(s)}
	for h := 0; h < len(q); h++ {
		w := int(q[h])
		var nbrs []int32
		if forward {
			nbrs = g.Out(w)
		} else {
			nbrs = g.In(w)
		}
		for _, u := range nbrs {
			if d[u] == -1 {
				d[u] = d[w] + 1
				q = append(q, u)
			}
		}
	}
	return d
}

// checkESPCInvariant asserts the invariant on both label sides.
func checkESPCInvariant(t *testing.T, idx *Index, g *graph.Digraph, ctx string) {
	t.Helper()
	n := g.NumVertices()
	for _, side := range []struct {
		name    string
		forward bool
	}{{"Lin", true}, {"Lout", false}} {
		for s := 0; s < n; s++ {
			sd := plainDistances(g, s, side.forward)
			dR, cR := restrictedCounts(g, idx.Ord, s, side.forward)
			rs := idx.Ord.Rank(s)
			for w := 0; w < n; w++ {
				if w == s {
					continue
				}
				lst := &idx.In[w]
				if !side.forward {
					lst = &idx.Out[w]
				}
				e, ok := lst.Lookup(rs)
				if sd[w] >= 0 && dR[w] == sd[w] {
					if !ok {
						t.Fatalf("%s: missing %s(%d) entry for hub %d (want d=%d c=%d)",
							ctx, side.name, w, s, dR[w], cR[w])
					}
					if e.Dist() != int(dR[w]) || e.Count() != cR[w] {
						t.Fatalf("%s: %s(%d) hub %d = (%d,%d), want (%d,%d)",
							ctx, side.name, w, s, e.Dist(), e.Count(), dR[w], cR[w])
					}
				} else if ok && sd[w] >= 0 && e.Dist() <= int(sd[w]) {
					t.Fatalf("%s: %s(%d) hub %d entry (%d,%d) not dominated (sd=%d)",
						ctx, side.name, w, s, e.Dist(), e.Count(), sd[w])
				}
			}
		}
	}
}

func TestESPCInvariantUnderMixedUpdates(t *testing.T) {
	for _, strat := range []Strategy{Redundancy, Minimality} {
		for seed := int64(0); seed < 8; seed++ {
			r := rand.New(rand.NewSource(seed))
			n := 8 + r.Intn(8)
			g := randomGraph(r, n, n*2)
			idx, _ := Build(g, order.ByDegree(g), Options{Strategy: strat})
			checkESPCInvariant(t, idx, g, fmt.Sprintf("%v seed %d build", strat, seed))
			for k := 0; k < 40; k++ {
				u, v := r.Intn(n), r.Intn(n)
				if u == v {
					continue
				}
				var op string
				if g.HasEdge(u, v) {
					op = "del"
					if _, err := idx.DeleteEdge(u, v); err != nil {
						t.Fatal(err)
					}
				} else {
					op = "ins"
					if _, err := idx.InsertEdge(u, v); err != nil {
						t.Fatal(err)
					}
				}
				checkESPCInvariant(t, idx, g,
					fmt.Sprintf("%v seed %d step %d %s (%d,%d)", strat, seed, k, op, u, v))
			}
		}
	}
}

// Under minimality, a third clause holds: no entry is dominated at all.
func TestMinimalityLeavesNoDominatedEntries(t *testing.T) {
	r := rand.New(rand.NewSource(3))
	n := 12
	g := randomGraph(r, n, n*2)
	idx, _ := Build(g, order.ByDegree(g), Options{Strategy: Minimality})
	for k := 0; k < 30; k++ {
		u, v := r.Intn(n), r.Intn(n)
		if u == v {
			continue
		}
		if g.HasEdge(u, v) {
			_, _ = idx.DeleteEdge(u, v)
		} else {
			_, _ = idx.InsertEdge(u, v)
		}
	}
	for w := 0; w < n; w++ {
		for _, e := range idx.In[w].Entries() {
			h := idx.Ord.VertexAt(e.Hub())
			if d, _ := idx.CountPaths(h, w); e.Dist() > d {
				t.Fatalf("dominated entry survived minimality: Lin(%d) hub %d d=%d sd=%d",
					w, h, e.Dist(), d)
			}
		}
		for _, e := range idx.Out[w].Entries() {
			h := idx.Ord.VertexAt(e.Hub())
			if d, _ := idx.CountPaths(w, h); e.Dist() > d {
				t.Fatalf("dominated entry survived minimality: Lout(%d) hub %d d=%d sd=%d",
					w, h, e.Dist(), d)
			}
		}
	}
}
