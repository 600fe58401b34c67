package csc

import (
	"bytes"
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/bfscount"
	"repro/internal/bipartite"
	"repro/internal/bitpack"
	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/order"
	"repro/internal/pll"
	"repro/internal/testgraphs"
)

// writePaths runs one update stream through both write paths: generic
// is a generic construction, written by the generic engine over Gb with
// all four lists, and couple a skipping build, written in couple form.
// g is the graph both index.
type writePaths struct {
	g               *graph.Digraph
	generic, couple *Index
	resyncs         int // deletes after which the generic mirrors were no derivations
}

func newWritePaths(g *graph.Digraph, ord *order.Order) *writePaths {
	generic, _ := Build(g.Clone(), ord, Options{GenericConstruction: true})
	couple, _ := Build(g.Clone(), ord, Options{})
	return &writePaths{g: g, generic: generic, couple: couple}
}

// toggle inserts (u,v) when g lacks it and deletes it otherwise, through
// both paths, and checks them (check).
func (w *writePaths) toggle(t *testing.T, what string, u, v int) {
	t.Helper()
	ins := !w.g.HasEdge(u, v)
	op := fmt.Sprintf("%s: delete (%d,%d)", what, u, v)
	if ins {
		op = fmt.Sprintf("%s: insert (%d,%d)", what, u, v)
		_ = w.g.AddEdge(u, v)
	} else {
		_ = w.g.RemoveEdge(u, v)
	}
	for _, x := range []*Index{w.generic, w.couple} {
		var err error
		if ins {
			_, err = x.InsertEdge(u, v)
		} else {
			_, err = x.DeleteEdge(u, v)
		}
		if err != nil {
			t.Fatalf("%s: %v", op, err)
		}
	}
	w.check(t, op, ins)
}

// check fails unless the couple index stayed reduced and both answer
// like the BFS oracle, and unless the two labelings agree entry for
// entry: always after an insert, and after a delete whenever the
// generic engine's mirrors are still derivations of its stored lists.
// When they are not, the generic index restarts from the couple
// labeling, expanded, so the stream goes on from one labeling.
func (w *writePaths) check(t *testing.T, op string, ins bool) {
	t.Helper()
	ge, ce := w.generic.Engine(), w.couple.Engine()
	if !ce.Reduced() || !ce.CoupleForm() || ce.G != nil {
		t.Fatalf("%s: couple form lost: reduced %v, Gb %v", op, ce.Reduced(), ce.G != nil)
	}
	if ge.Reduced() {
		t.Fatalf("%s: the generic index is reduced", op)
	}
	for v := 0; v < w.g.NumVertices(); v++ {
		wl, wc := bfscount.CycleCount(w.g, v)
		for _, x := range []*Index{w.generic, w.couple} {
			if l, c := x.CycleCount(v); l != wl || c != wc {
				t.Fatalf("%s: SCCnt(%d) = (%d,%d), oracle (%d,%d) (couple form %v)",
					op, v, l, c, wl, wc, x == w.couple)
			}
		}
	}
	if !ge.MirrorsDerived() {
		if ins {
			t.Fatalf("%s: the generic insert left a mirror that is no derivation", op)
		}
		w.resync(t)
		return
	}
	assertLabelingsEqual(t, op, ge, ce)
}

// resync restarts the generic index from the couple labeling: its v1
// bytes, loaded and expanded into the generic engine's four lists.
func (w *writePaths) resync(t *testing.T) {
	t.Helper()
	w.resyncs++
	var buf bytes.Buffer
	if _, err := w.couple.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	c, err := Read(&buf)
	if err != nil {
		t.Fatal(err)
	}
	w.generic = c.(*Index)
	w.generic.Engine().Expand()
}

// assertLabelingsEqual fails unless a and b, labelings over the same Gb,
// hold the same entries in every list (a mirror a reduced index does not
// store read as its derivation) and count the same entries.
func assertLabelingsEqual(t *testing.T, what string, a, b *pll.Index) {
	t.Helper()
	var la, lb []bitpack.Entry
	for v := 0; v < a.Ord.Len(); v++ {
		for _, in := range []bool{true, false} {
			la, lb = a.AppendList(v, in, la[:0]), b.AppendList(v, in, lb[:0])
			if !entriesEqual(la, lb) {
				side := "Lout"
				if in {
					side = "Lin"
				}
				t.Fatalf("%s: %s(%d): %v != %v", what, side, v, la, lb)
			}
		}
	}
	if a.EntryCount() != b.EntryCount() {
		t.Fatalf("%s: entry counts %d != %d", what, a.EntryCount(), b.EntryCount())
	}
}

// randomToggles runs ops random updates on w's graph through both write
// paths, r drawing them: half delete an edge drawn from the graph, half
// insert a pair it lacks (toggles of a random pair would mostly insert
// into a sparse graph), and a complete graph only deletes.
func randomToggles(t *testing.T, what string, w *writePaths, r *rand.Rand, ops int) {
	t.Helper()
	n := w.g.NumVertices()
	for i := 0; i < ops; i++ {
		var u, v int
		if m := w.g.NumEdges(); m > 0 && (r.Intn(2) == 0 || m == n*(n-1)) {
			es := w.g.Edges()
			e := es[r.Intn(len(es))]
			u, v = e[0], e[1]
		} else {
			for u == v || w.g.HasEdge(u, v) {
				u, v = r.Intn(n), r.Intn(n)
			}
		}
		w.toggle(t, fmt.Sprintf("%s op %d", what, i), u, v)
	}
}

// TestCoupleFormMatchesGenericStreams runs random update streams on the
// generator families through both write paths under the degree and
// coverage orders: every op answers like the oracle on both, and the
// labelings agree entry for entry where the generic engine's mirrors
// stay derivations.
func TestCoupleFormMatchesGenericStreams(t *testing.T) {
	type family struct {
		name string
		g    func(seed int64) *graph.Digraph
	}
	families := []family{
		{"giant-scc", func(s int64) *graph.Digraph { return testgraphs.GiantSCC(60, 200, s) }},
		{"power-law", func(s int64) *graph.Digraph { return gen.PowerLaw(gen.Config{N: 70, M: 280, Seed: s}, 2.0, 1.9) }},
		{"dag-heavy", func(s int64) *graph.Digraph { return testgraphs.DAGHeavy(70, 200, 6, s) }},
	}
	ops, resyncs := 0, 0
	for _, f := range families {
		for seed := int64(1); seed <= 4; seed++ {
			g := f.g(seed)
			for _, o := range testOrders(g, seed)[:2] {
				w := newWritePaths(g.Clone(), o.ord)
				randomToggles(t, fmt.Sprintf("%s/%d/%s", f.name, seed, o.name), w, rand.New(rand.NewSource(seed)), 40)
				ops += 40
				resyncs += w.resyncs
			}
		}
	}
	t.Logf("%d ops, %d deletes left a generic mirror that is no derivation", ops, resyncs)
}

// TestCoupleFormWritesIntoMergeRebuild streams writes into a shard the
// write path rebuilt: two 200-vertex SCCs merge through one ApplyBatch,
// whose rebuild leaves the merged shard reduced, unfrozen, holding its
// stored lists in one exactly sized slab (pll.Index.Compact) and no Gb.
// 120 random toggles inside the shard then run in couple form on that
// slab, each checked against the BFS oracle and against a generic
// construction of the same subgraph under the same order (writePaths).
func TestCoupleFormWritesIntoMergeRebuild(t *testing.T) {
	const half = 200
	g := graph.New(2 * half)
	for i, seed := range []int64{3, 4} {
		part := testgraphs.GiantSCC(half, 700, seed)
		for u := 0; u < half; u++ {
			for _, v := range part.Out(u) {
				if err := g.AddEdge(i*half+u, i*half+int(v)); err != nil {
					t.Fatal(err)
				}
			}
		}
	}
	x, _ := BuildSharded(g, Options{})
	if x.NumShards() != 2 {
		t.Fatalf("%d shards before the merge, want 2", x.NumShards())
	}
	if _, err := x.ApplyBatch([]EdgeOp{Ins(0, half), Ins(half, 0)}, 1); err != nil {
		t.Fatal(err)
	}
	if merges, _ := x.Rebuilds(); merges == 0 || x.NumShards() != 1 || x.BatchRebuilds() != 1 {
		t.Fatalf("%d merges, %d shards, %d rebuilds after the bridge pair; want one merge rebuild into one shard", merges, x.NumShards(), x.BatchRebuilds())
	}
	sh := x.shards[x.ShardOf(0)]
	if len(sh.verts) != 2*half {
		t.Fatalf("the merged shard has %d vertices, want %d", len(sh.verts), 2*half)
	}
	e := sh.idx.eng
	if !e.CoupleForm() || e.G != nil || e.FrozenArena() != nil || e.Arena() != nil {
		t.Fatalf("merged shard: couple form %v, Gb %v, frozen %v, arena %v; want couple form over an unfrozen slab without Gb",
			e.CoupleForm(), e.G != nil, e.FrozenArena() != nil, e.Arena() != nil)
	}
	sub := x.subgraph(sh)
	generic, _ := Build(sub.Clone(), orderFor(sub, x.opts), Options{GenericConstruction: true})
	w := &writePaths{g: sub.Clone(), generic: generic, couple: sh.idx}
	w.check(t, "merge rebuild", true)
	randomToggles(t, "merged shard", w, rand.New(rand.NewSource(7)), 120)
	t.Logf("120 ops, %d deletes left a generic mirror that is no derivation", w.resyncs)
}

// TestCoupleFormHeadCoupleDelete is the first divergence a one-off run
// of 90 streams found (GiantSCC(120,400), PowerLaw(150,600) and
// DAGHeavy(150,400,6), seeds 1–30, 150 random toggles each, coverage
// order: 111 of 6,662 deletes left a generic mirror that is no
// derivation, every op matched the oracle on both paths, and the stored
// lists agreed after every op). On GiantSCC(120,400,1) under coverage
// seed 1, op 20 deletes (54,6). Step 1 puts the head couple's 6_out in
// SA but not 6_in (sd(6_in,6_in) = 0), so the generic step 2 drops hub
// rank 66 (vertex 94) from Lout(6_out) and keeps it in Lout(6_in); step 3
// re-inserts it at neither, since a higher hub covers the pair, and
// Lout(6_in) holds (66, 8, 1), dominated by the 6 steps the pair now
// needs. The couple form derives Lout(6_in), so its mirrors are
// derivations by construction; both answer like the oracle, and the
// stored lists agree.
func TestCoupleFormHeadCoupleDelete(t *testing.T) {
	w, ord := headCoupleDelete(t)
	ge, ce := w.generic.Engine(), w.couple.Engine()
	b6in, b6out := bipartite.InVertex(6), bipartite.OutVertex(6)
	hub := 2 * ord.Rank(94)
	kept, dropped := ge.OutLabel(b6in), ge.OutLabel(b6out)
	if e, ok := kept.Lookup(hub); !ok || e.Dist() != 8 || e.Count() != 1 {
		t.Fatalf("generic Lout(6_in) hub %d = %v %v, want the kept (%d, 8, 1)", hub, e, ok, hub)
	}
	if _, ok := dropped.Lookup(hub); ok {
		t.Fatalf("generic Lout(6_out) still holds hub %d", hub)
	}
	if ge.MirrorsDerived() {
		t.Fatal("the generic mirrors are derivations: the case no longer diverges")
	}
	if d, _ := bfscount.SPCount(w.g, 6, 94); 2*d >= 8 {
		t.Fatalf("sd(6,94) = %d: the kept entry is not dominated", d)
	}
	var lg, lc []bitpack.Entry
	for v := 0; v < ge.Ord.Len(); v++ {
		in := bipartite.IsIn(v) // the stored side of each Gb vertex
		if lg, lc = ge.AppendList(v, in, lg[:0]), ce.AppendList(v, in, lc[:0]); !entriesEqual(lg, lc) {
			t.Fatalf("stored list of Gb vertex %d: generic %v, couple %v", v, lg, lc)
		}
	}
	if mirror := ce.OutLabel(b6in); mirror.Len() != 0 {
		t.Fatal("the couple form stores Lout(6_in)")
	}
	w.check(t, "op 20: delete (54,6)", false)
	if w.resyncs != 1 {
		t.Fatal("the divergent delete was not noticed")
	}
}

// headCoupleDelete replays TestCoupleFormHeadCoupleDelete's stream
// through both write paths, checking every op before op 20, and applies
// op 20's delete of (54,6) to both without checking it. It returns the
// paths and the base order.
func headCoupleDelete(t *testing.T) (*writePaths, *order.Order) {
	t.Helper()
	const seed = 1
	g := testgraphs.GiantSCC(120, 400, seed)
	ord := order.ByCoverage(g, order.DefaultSamples(g.NumVertices()), seed)
	w := newWritePaths(g.Clone(), ord)
	ops := [][2]int{
		{87, 47}, {1, 27}, {27, 28}, {2, 3}, {75, 49}, {52, 53}, {118, 119},
		{2, 94}, {114, 18}, {101, 91}, {46, 47}, {8, 2}, {91, 1}, {69, 13},
		{40, 41}, {47, 50}, {99, 115}, {41, 98}, {49, 48}, {55, 41},
	}
	for i, e := range ops {
		w.toggle(t, fmt.Sprintf("op %d", i), e[0], e[1])
	}
	if w.resyncs != 0 {
		t.Fatalf("the generic mirrors diverged before op 20 (%d times)", w.resyncs)
	}
	if !w.g.HasEdge(54, 6) {
		t.Fatal("op 20's edge (54,6) is missing")
	}
	_ = w.g.RemoveEdge(54, 6)
	for _, x := range []*Index{w.generic, w.couple} {
		if _, err := x.DeleteEdge(54, 6); err != nil {
			t.Fatal(err)
		}
	}
	return w, ord
}

// The writes the couple form does not take go through the generic
// engine, which expands the labeling to four lists over Gb: a labeling
// maintained under Minimality (CLEAN LABEL reads mirrored lists through
// the inverted indexes), and a loaded labeling with a mirror that is no
// derivation of its stored lists — here the head-couple case's generic
// labeling, written as the v1 stream a v2 file embeds per shard and
// loaded back, which stays full (pll.ReadReducedFrom). Every op answers
// like the oracle.
func TestWriteFormFallbacks(t *testing.T) {
	oracle := func(stage string, x *Index, g *graph.Digraph) {
		t.Helper()
		for v := 0; v < g.NumVertices(); v++ {
			wl, wc := bfscount.CycleCount(g, v)
			if l, c := x.CycleCount(v); l != wl || c != wc {
				t.Fatalf("%s: SCCnt(%d) = (%d,%d), oracle (%d,%d)", stage, v, l, c, wl, wc)
			}
		}
	}
	generic := func(stage string, x *Index) {
		t.Helper()
		if e := x.Engine(); e.Reduced() || e.CoupleForm() || e.G == nil {
			t.Fatalf("%s: reduced %v, couple form %v, Gb %v; want the generic engine's four lists over Gb", stage, e.Reduced(), e.CoupleForm(), e.G != nil)
		}
	}

	g := testgraphs.GiantSCC(60, 200, 4)
	x, _ := Build(g.Clone(), order.ByDegree(g), Options{Strategy: pll.Minimality})
	if e := x.Engine(); !e.Reduced() || e.CoupleForm() {
		t.Fatalf("minimality build: reduced %v, couple form %v", e.Reduced(), e.CoupleForm())
	}
	r := rand.New(rand.NewSource(4))
	for i := 0; i < 20; i++ {
		es := g.Edges()
		e := es[r.Intn(len(es))]
		_ = g.RemoveEdge(e[0], e[1])
		if _, err := x.DeleteEdge(e[0], e[1]); err != nil {
			t.Fatal(err)
		}
		generic("minimality delete", x)
		oracle(fmt.Sprintf("minimality op %d", i), x, g)
	}

	w, _ := headCoupleDelete(t)
	var file bytes.Buffer
	if _, err := w.generic.WriteTo(&file); err != nil {
		t.Fatal(err)
	}
	c, err := Read(&file)
	if err != nil {
		t.Fatal(err)
	}
	loaded := c.(*Index)
	if e := loaded.Engine(); e.Reduced() || e.MirrorsDerived() {
		t.Fatalf("the divergent labeling loaded reduced %v, mirrors derived %v", e.Reduced(), e.MirrorsDerived())
	}
	oracle("load", loaded, w.g)
	for _, e := range [][2]int{{54, 6}, {6, 54}, {54, 6}} {
		var err error
		if w.g.HasEdge(e[0], e[1]) {
			_ = w.g.RemoveEdge(e[0], e[1])
			_, err = loaded.DeleteEdge(e[0], e[1])
		} else {
			_ = w.g.AddEdge(e[0], e[1])
			_, err = loaded.InsertEdge(e[0], e[1])
		}
		if err != nil {
			t.Fatal(err)
		}
		generic("loaded write", loaded)
		oracle(fmt.Sprintf("loaded write %v", e), loaded, w.g)
	}
}
