package csc

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/bfscount"
	"repro/internal/bipartite"
	"repro/internal/graph"
	"repro/internal/hpspc"
	"repro/internal/order"
	"repro/internal/pll"
	"repro/internal/testgraphs"
)

// The structural fact behind Figure 9(b): paths h→v in G biject with
// paths h_in→v_in in Gb, preserving shortest-ness, counts, and the
// top-ranked vertex under the lifted order. Hence the reduced CSC label
// (one list per couple per side, §IV-E) equals the HP-SPC label entry for
// entry — with distances doubled — plus one extra cycle entry in
// Lout(v_out) for exactly those vertices that are themselves the
// top-ranked vertex on one of their shortest cycles (otherwise a higher
// hub already covers the cycle). That is why the paper reports CSC index
// sizes at parity with HP-SPC despite Gb doubling the vertex count.
func TestReducedSizeIdentityWithHPSPC(t *testing.T) {
	r := rand.New(rand.NewSource(77))
	cases := map[string]*graph.Digraph{
		"figure2":  testgraphs.Figure2(),
		"triangle": testgraphs.Triangle(),
		"dag":      testgraphs.DAG(),
	}
	for i := 0; i < 10; i++ {
		cases[fmt.Sprintf("random%d", i)] = randomGraph(r, 5+r.Intn(20), 1+r.Intn(4))
	}

	run := func(name string, g *graph.Digraph) {
		ord := order.ByDegree(g)
		hp, _ := hpspc.Build(g.Clone(), ord, pll.Redundancy)
		x, _ := Build(g.Clone(), ord, Options{})

		cycleEntries := 0
		for v := 0; v < g.NumVertices(); v++ {
			if selfMaxCycle(g, ord, v) {
				cycleEntries++
			}
		}
		want := hp.EntryCount() + cycleEntries
		if got := x.ReducedEntryCount(); got != want {
			t.Errorf("%s: reduced CSC entries = %d, want HP-SPC %d + %d self-max cycles = %d",
				name, got, hp.EntryCount(), cycleEntries, want)
		}

		// Entry-for-entry on the in side: Lin(v_in) mirrors HP-SPC's
		// Lin(v) with doubled distances and identical counts.
		for v := 0; v < g.NumVertices(); v++ {
			hpIn := hp.Engine().InLabel(v)
			cscIn := x.Engine().InLabel(bipartite.InVertex(v))
			if hpIn.Len() != cscIn.Len() {
				t.Errorf("%s: Lin(%d) length %d vs %d", name, v, hpIn.Len(), cscIn.Len())
				continue
			}
			hpEntries, cscEntries := hpIn.AppendTo(nil), cscIn.AppendTo(nil)
			for i := range hpEntries {
				he, ce := hpEntries[i], cscEntries[i]
				if ce.Dist() != 2*he.Dist() || ce.Count() != he.Count() {
					t.Errorf("%s: Lin(%d)[%d]: csc (d=%d,c=%d) vs hp (d=%d,c=%d)",
						name, v, i, ce.Dist(), ce.Count(), he.Dist(), he.Count())
				}
			}
		}
	}
	for name, g := range cases {
		run(name, g)
	}
}

// selfMaxCycle reports whether v is the top-ranked vertex on at least one
// of its shortest cycles: a BFS from v restricted to lower-ranked
// intermediates must close a cycle of the globally shortest length.
func selfMaxCycle(g *graph.Digraph, ord *order.Order, v int) bool {
	shortest, _ := bfscount.CycleCount(g, v)
	if shortest == bfscount.NoCycle {
		return false
	}
	n := g.NumVertices()
	d := make([]int32, n)
	for i := range d {
		d[i] = -1
	}
	var queue []int32
	for _, u := range g.Out(v) {
		if ord.Above(v, int(u)) {
			d[u] = 1
			queue = append(queue, u)
		}
	}
	for head := 0; head < len(queue); head++ {
		w := int(queue[head])
		for _, u := range g.Out(w) {
			if int(u) == v {
				return int(d[w])+1 == shortest
			}
			if d[u] == -1 && ord.Above(v, int(u)) {
				d[u] = d[w] + 1
				queue = append(queue, u)
			}
		}
	}
	return false
}
