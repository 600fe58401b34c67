package csc

import (
	"bytes"
	"math/rand"
	"testing"

	"repro/internal/bfscount"
	"repro/internal/bipartite"
	"repro/internal/graph"
	"repro/internal/order"
	"repro/internal/pll"
	"repro/internal/testgraphs"
)

func buildFig2(t testing.TB, opts Options) *Index {
	t.Helper()
	g := testgraphs.Figure2()
	x, _ := Build(g, order.ByDegree(g), opts)
	return x
}

func TestPaperExample1And6(t *testing.T) {
	x := buildFig2(t, Options{})
	// Example 1/6: SCCnt(v7) = 3, shortest cycle length 6 ((11+1)/2).
	l, c := x.CycleCount(6)
	if l != 6 || c != 3 {
		t.Fatalf("SCCnt(v7) = (%d,%d), want (6,3)", l, c)
	}
}

func TestPaperTableIII(t *testing.T) {
	// Table III: Lin(v7_in) = {(v1_in,4,2),(v7_in,0,1)} and
	// Lout(v7_out) = {(v1_in,7,1),(v7_in,11,1),(v7_out,0,1)}.
	x := buildFig2(t, Options{})
	eng := x.Engine()
	v7i := bipartite.InVertex(6)
	v7o := bipartite.OutVertex(6)
	r := func(b int) int { return eng.Ord.Rank(b) }

	in := eng.In[v7i]
	if in.Len() != 2 {
		t.Fatalf("Lin(v7i) has %d entries: %v", in.Len(), in.Entries())
	}
	if e, ok := in.Lookup(r(bipartite.InVertex(0))); !ok || e.Dist() != 4 || e.Count() != 2 {
		t.Fatalf("Lin(v7i) hub v1i = %v %v, want (4,2)", e, ok)
	}
	if e, ok := in.Lookup(r(v7i)); !ok || e.Dist() != 0 || e.Count() != 1 {
		t.Fatalf("Lin(v7i) self = %v %v", e, ok)
	}

	out := eng.Out[v7o]
	if out.Len() != 3 {
		t.Fatalf("Lout(v7o) has %d entries: %v", out.Len(), out.Entries())
	}
	if e, ok := out.Lookup(r(bipartite.InVertex(0))); !ok || e.Dist() != 7 || e.Count() != 1 {
		t.Fatalf("Lout(v7o) hub v1i = %v %v, want (7,1)", e, ok)
	}
	if e, ok := out.Lookup(r(v7i)); !ok || e.Dist() != 11 || e.Count() != 1 {
		t.Fatalf("Lout(v7o) hub v7i = %v %v, want (11,1)", e, ok)
	}
	if e, ok := out.Lookup(r(v7o)); !ok || e.Dist() != 0 || e.Count() != 1 {
		t.Fatalf("Lout(v7o) self = %v %v", e, ok)
	}
}

// The couple-vertex-skipping construction must produce labels identical to
// the generic engine restricted to V_in hubs — entry for entry.
func TestSkippingEqualsGenericConstruction(t *testing.T) {
	graphs := []*graph.Digraph{
		testgraphs.Figure2(),
		testgraphs.Triangle(),
		testgraphs.TwoCycle(),
		testgraphs.DiamondCycles(),
		testgraphs.DAG(),
	}
	r := rand.New(rand.NewSource(9))
	for i := 0; i < 12; i++ {
		graphs = append(graphs, randomGraph(r, 4+r.Intn(16), 3))
	}
	for gi, g := range graphs {
		ord := order.ByDegree(g)
		a, _ := Build(g.Clone(), ord, Options{})
		b, _ := Build(g.Clone(), ord, Options{GenericConstruction: true})
		ea, eb := a.Engine(), b.Engine()
		ea.Expand()
		for v := 0; v < 2*g.NumVertices(); v++ {
			if !entriesEqual(ea.In[v].Entries(), eb.In[v].Entries()) {
				t.Fatalf("graph %d: Lin(%d): skipping %v != generic %v",
					gi, v, ea.In[v].Entries(), eb.In[v].Entries())
			}
			if !entriesEqual(ea.Out[v].Entries(), eb.Out[v].Entries()) {
				t.Fatalf("graph %d: Lout(%d): skipping %v != generic %v",
					gi, v, ea.Out[v].Entries(), eb.Out[v].Entries())
			}
		}
	}
}

func entriesEqual[T comparable](a, b []T) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func randomGraph(r *rand.Rand, n, avgDeg int) *graph.Digraph {
	g := graph.New(n)
	for i := 0; i < n*avgDeg; i++ {
		u, v := r.Intn(n), r.Intn(n)
		if u != v && !g.HasEdge(u, v) {
			_ = g.AddEdge(u, v)
		}
	}
	return g
}

func assertAllCycleCounts(t *testing.T, x Counter, g *graph.Digraph, ctx string) {
	t.Helper()
	for v := 0; v < g.NumVertices(); v++ {
		wl, wc := bfscount.CycleCount(g, v)
		gl, gc := x.CycleCount(v)
		if gl != wl || gc != wc {
			t.Fatalf("%s: SCCnt(%d) = (%d,%d), want (%d,%d)", ctx, v, gl, gc, wl, wc)
		}
	}
}

func TestCycleCountMatchesBFSOnFixturesAndRandom(t *testing.T) {
	r := rand.New(rand.NewSource(21))
	for seed := 0; seed < 20; seed++ {
		g := randomGraph(r, 3+r.Intn(20), 1+r.Intn(4))
		x, _ := Build(g, order.ByDegree(g), Options{})
		assertAllCycleCounts(t, x, g, "random")
	}
	for _, g := range []*graph.Digraph{
		testgraphs.Figure2(), testgraphs.Triangle(), testgraphs.TwoCycle(),
		testgraphs.DiamondCycles(), testgraphs.DAG(),
	} {
		x, _ := Build(g, order.ByDegree(g), Options{})
		assertAllCycleCounts(t, x, g, "fixture")
	}
}

func TestDynamicMaintenance(t *testing.T) {
	for _, strat := range []pll.Strategy{pll.Redundancy, pll.Minimality} {
		for seed := int64(0); seed < 6; seed++ {
			r := rand.New(rand.NewSource(seed))
			n := 8 + r.Intn(10)
			g := randomGraph(r, n, 2)
			x, _ := Build(g, order.ByDegree(g), Options{Strategy: strat})
			for k := 0; k < 30; k++ {
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
				assertAllCycleCounts(t, x, g, strat.String())
			}
		}
	}
}

func TestUpdateErrorsPropagate(t *testing.T) {
	x := buildFig2(t, Options{})
	if _, err := x.InsertEdge(0, 2); err == nil {
		t.Error("duplicate insert accepted")
	}
	if _, err := x.DeleteEdge(0, 7); err == nil {
		t.Error("missing delete accepted")
	}
	if _, err := x.InsertEdge(0, 0); err == nil {
		t.Error("self loop accepted")
	}
	// Failed updates must leave answers intact.
	if l, c := x.CycleCount(6); l != 6 || c != 3 {
		t.Fatalf("index disturbed by failed updates: (%d,%d)", l, c)
	}
}

// A fresh build is the paper's reduced index (§IV-E): it stores exactly
// the ReducedEntryCount entries of Lin(v_in) and Lout(v_out), counts the
// full labeling, and answers like its expanded form.
func TestReducedIndex(t *testing.T) {
	g := testgraphs.Figure2()
	x, _ := Build(g, order.ByDegree(g), Options{})
	eng := x.Engine()
	if !eng.Reduced() {
		t.Fatal("a fresh build is not reduced")
	}
	stored := 0
	for b := 0; b < 2*g.NumVertices(); b++ {
		stored += eng.In[b].Len() + eng.Out[b].Len()
	}
	if stored != x.ReducedEntryCount() {
		t.Fatalf("reduced index stores %d entries, ReducedEntryCount %d", stored, x.ReducedEntryCount())
	}
	if x.ResidentBytes() != x.ReducedBytes() {
		t.Fatalf("ResidentBytes %d != ReducedBytes %d", x.ResidentBytes(), x.ReducedBytes())
	}
	if x.ReducedBytes() >= x.Bytes() {
		t.Fatalf("reduction did not shrink: %d >= %d", x.ReducedBytes(), x.Bytes())
	}
	want := make([][2]uint64, g.NumVertices())
	for v := range want {
		l, c := x.CycleCount(v)
		want[v] = [2]uint64{uint64(l), c}
	}
	entries := x.EntryCount()
	eng.Expand()
	if eng.Reduced() || x.EntryCount() != entries || x.ResidentBytes() != x.Bytes() {
		t.Fatalf("expanded: reduced=%v entries %d (was %d), resident %d, bytes %d",
			eng.Reduced(), x.EntryCount(), entries, x.ResidentBytes(), x.Bytes())
	}
	for v := range want {
		if l, c := x.CycleCount(v); uint64(l) != want[v][0] || c != want[v][1] {
			t.Fatalf("expanded SCCnt(%d) = (%d,%d), reduced (%d,%d)", v, l, c, want[v][0], want[v][1])
		}
	}
}

func TestBuildStatsDuration(t *testing.T) {
	g := testgraphs.Figure2()
	_, st := Build(g, order.ByDegree(g), Options{})
	if st.Entries == 0 || st.Duration <= 0 {
		t.Fatalf("stats not populated: %+v", st)
	}
}

func TestDAGHasNoCycles(t *testing.T) {
	g := testgraphs.DAG()
	x, _ := Build(g, order.ByDegree(g), Options{})
	for v := 0; v < g.NumVertices(); v++ {
		if l, c := x.CycleCount(v); l != bfscount.NoCycle || c != 0 {
			t.Fatalf("SCCnt(%d) = (%d,%d) on a DAG", v, l, c)
		}
	}
}

// Out-of-range ids answer "no cycle" on the monolithic index — built, and
// reloaded from its v1 bytes — through both the plain and the bounded
// read, instead of panicking.
func TestIndexOutOfRangeReads(t *testing.T) {
	const n = 4
	g, err := graph.FromEdges(n, [][2]int{{0, 1}, {1, 2}, {2, 0}, {2, 3}})
	if err != nil {
		t.Fatal(err)
	}
	built, _ := Build(g, order.ByDegree(g), Options{})
	var buf bytes.Buffer
	if _, err := built.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	if !bytes.HasPrefix(buf.Bytes(), []byte("CSCIDX01")) {
		t.Fatalf("monolithic index wrote %q, want the v1 format", buf.Bytes()[:8])
	}
	loaded, err := Read(&buf)
	if err != nil {
		t.Fatal(err)
	}
	v1, ok := loaded.(*Index)
	if !ok {
		t.Fatalf("v1 bytes loaded as %T, want *Index", loaded)
	}
	for name, x := range map[string]*Index{"monolithic": built, "v1": v1} {
		if l, c := x.CycleCount(0); l != 3 || c != 1 {
			t.Fatalf("%s: CycleCount(0) = (%d,%d), want the triangle", name, l, c)
		}
		for _, v := range []int{-1, n, n + 95} {
			if l, c := x.CycleCount(v); l != bfscount.NoCycle || c != 0 {
				t.Fatalf("%s: CycleCount(%d) = (%d,%d), want no cycle", name, v, l, c)
			}
			if l, c := x.read(v, 10, true); l != bfscount.NoCycle || c != 0 {
				t.Fatalf("%s: bounded read(%d, 10) = (%d,%d), want no cycle", name, v, l, c)
			}
		}
	}
}
