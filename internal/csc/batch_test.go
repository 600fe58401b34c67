package csc

import (
	"math/rand"
	"testing"

	"repro/internal/graph"
	"repro/internal/order"
	"repro/internal/testgraphs"
)

// batchWorkerCounts is the worker sweep the metamorphic suite asserts
// byte-identical query results across (the acceptance gate's {1, 2, 8}).
var batchWorkerCounts = []int{1, 2, 8}

// countsOf snapshots every vertex's query answer.
func countsOf(c Counter) ([]int, []uint64) {
	n := c.Graph().NumVertices()
	lengths, counts := make([]int, n), make([]uint64, n)
	for v := range lengths {
		lengths[v], counts[v] = c.CycleCount(v)
	}
	return lengths, counts
}

// assertSameCounts fails unless two full query snapshots are identical.
func assertSameCounts(t *testing.T, tag string, wantL []int, wantC []uint64, gotL []int, gotC []uint64) {
	t.Helper()
	if len(wantL) != len(gotL) {
		t.Fatalf("%s: %d vs %d vertices", tag, len(wantL), len(gotL))
	}
	for v := range wantL {
		if wantL[v] != gotL[v] || wantC[v] != gotC[v] {
			t.Fatalf("%s: vertex %d got (%d,%d), want (%d,%d)", tag, v, gotL[v], gotC[v], wantL[v], wantC[v])
		}
	}
}

// randomBatches generates a sequence of valid op batches by toggling
// random vertex pairs against a mirror of the evolving graph. Every
// produced sequence is valid both per batch and across batches.
func randomBatches(r *rand.Rand, g *graph.Digraph, batches, perBatch int) [][]EdgeOp {
	mirror := g.Clone()
	n := mirror.NumVertices()
	out := make([][]EdgeOp, 0, batches)
	for b := 0; b < batches; b++ {
		var batch []EdgeOp
		for k := 0; k < perBatch; k++ {
			u, v := r.Intn(n), r.Intn(n)
			if u == v {
				continue
			}
			if mirror.HasEdge(u, v) {
				_ = mirror.RemoveEdge(u, v)
				batch = append(batch, Del(u, v))
			} else {
				_ = mirror.AddEdge(u, v)
				batch = append(batch, Ins(u, v))
			}
		}
		out = append(out, batch)
	}
	return out
}

// shuffleKeepEdgeOrder reorders a batch while preserving the relative
// order of ops on the same edge (the only order validity and semantics
// depend on): ops of different shards interleave arbitrarily. ApplyBatch
// must answer identically for any such interleaving.
func shuffleKeepEdgeOrder(r *rand.Rand, batch []EdgeOp) []EdgeOp {
	type key = [2]int32
	var keys []key
	groups := make(map[key][]EdgeOp)
	for _, op := range batch {
		k := key{op.A, op.B}
		if _, ok := groups[k]; !ok {
			keys = append(keys, k)
		}
		groups[k] = append(groups[k], op)
	}
	out := make([]EdgeOp, 0, len(batch))
	for len(keys) > 0 {
		i := r.Intn(len(keys))
		k := keys[i]
		out = append(out, groups[k][0])
		if groups[k] = groups[k][1:]; len(groups[k]) == 0 {
			keys[i] = keys[len(keys)-1]
			keys = keys[:len(keys)-1]
		}
	}
	return out
}

// TestBatchEquivalenceMetamorphic is the batch-update acceptance suite:
// over the testgraphs corpus families and random graphs, random batches
// applied through Sharded.ApplyBatch — at every worker count, and under
// shard-interleaving shuffles of the op order — must produce cycle counts
// identical on every vertex to sequential per-edge application, to the
// monolithic ApplyBatch fallback, and to a fresh build of the final
// graph.
func TestBatchEquivalenceMetamorphic(t *testing.T) {
	type trial struct {
		name string
		g    *graph.Digraph
	}
	var trials []trial
	for _, ng := range testgraphs.Corpus() {
		trials = append(trials, trial{ng.Name, ng.G})
	}
	r := rand.New(rand.NewSource(77))
	for i := 0; i < 3; i++ {
		n := 10 + r.Intn(25)
		g := graph.New(n)
		for k := 0; k < 3*n; k++ {
			u, v := r.Intn(n), r.Intn(n)
			if u != v && !g.HasEdge(u, v) {
				_ = g.AddEdge(u, v)
			}
		}
		trials = append(trials, trial{name: "random", g: g})
	}

	for _, tr := range trials {
		batches := randomBatches(r, tr.g, 4, 12)

		// Reference: sequential per-edge application on a sharded index.
		ref, _ := BuildSharded(tr.g.Clone(), Options{})
		var refL [][]int
		var refC [][]uint64
		for _, batch := range batches {
			for _, op := range batch {
				var err error
				if op.Kind == OpInsert {
					_, err = ref.InsertEdge(int(op.A), int(op.B))
				} else {
					_, err = ref.DeleteEdge(int(op.A), int(op.B))
				}
				if err != nil {
					t.Fatalf("%s: reference op %+v: %v", tr.name, op, err)
				}
			}
			l, c := countsOf(ref)
			refL, refC = append(refL, l), append(refC, c)
		}

		for _, w := range batchWorkerCounts {
			x, _ := BuildSharded(tr.g.Clone(), Options{})
			for bi, batch := range batches {
				if _, err := x.ApplyBatch(batch, w); err != nil {
					t.Fatalf("%s workers=%d batch %d: %v", tr.name, w, bi, err)
				}
				if err := x.checkConsistent(); err != nil {
					t.Fatalf("%s workers=%d batch %d: %v", tr.name, w, bi, err)
				}
				l, c := countsOf(x)
				assertSameCounts(t, tr.name+"/batch-vs-seq", refL[bi], refC[bi], l, c)
			}
			if !graph.Equal(x.Graph(), ref.Graph()) {
				t.Fatalf("%s workers=%d: graphs diverged", tr.name, w)
			}
		}

		// Shard-interleaving shuffle at the highest worker count.
		xs, _ := BuildSharded(tr.g.Clone(), Options{})
		for bi, batch := range batches {
			if _, err := xs.ApplyBatch(shuffleKeepEdgeOrder(r, batch), 8); err != nil {
				t.Fatalf("%s shuffled batch %d: %v", tr.name, bi, err)
			}
			l, c := countsOf(xs)
			assertSameCounts(t, tr.name+"/shuffled-vs-seq", refL[bi], refC[bi], l, c)
		}

		// The monolithic index applying the same ops one at a time, and a
		// fresh build of the final graph.
		mono, _ := Build(tr.g.Clone(), order.ByDegree(tr.g), Options{})
		for bi, batch := range batches {
			for _, op := range batch {
				var err error
				if op.Kind == OpInsert {
					_, err = mono.InsertEdge(int(op.A), int(op.B))
				} else {
					_, err = mono.DeleteEdge(int(op.A), int(op.B))
				}
				if err != nil {
					t.Fatalf("%s mono batch %d op %+v: %v", tr.name, bi, op, err)
				}
			}
		}
		l, c := countsOf(mono)
		assertSameCounts(t, tr.name+"/mono-vs-seq", refL[len(refL)-1], refC[len(refC)-1], l, c)

		fresh, _ := BuildSharded(ref.Graph().Clone(), Options{})
		l, c = countsOf(fresh)
		assertSameCounts(t, tr.name+"/fresh-vs-seq", refL[len(refL)-1], refC[len(refC)-1], l, c)
	}
}

// TestApplyBatchPlanner pins the planner's structural guarantees on a
// hand-built graph: label-free short circuits, at-most-one rebuild per
// merged component, and intact-shard streams that never trigger rebuilds.
func TestApplyBatchPlanner(t *testing.T) {
	// Two triangles (0,1,2) and (3,4,5) plus trivial vertices 6,7.
	build := func() *Sharded {
		g := graph.New(8)
		for _, e := range [][2]int{{0, 1}, {1, 2}, {2, 0}, {3, 4}, {4, 5}, {5, 3}} {
			_ = g.AddEdge(e[0], e[1])
		}
		x, _ := BuildSharded(g, Options{})
		return x
	}

	t.Run("trivial ops touch no labels", func(t *testing.T) {
		x := build()
		// DAG edges among trivial vertices and into/out of shards close no
		// cycles: no rebuilds, no label churn.
		st, err := x.ApplyBatch([]EdgeOp{Ins(6, 7), Ins(6, 0), Ins(2, 7)}, 2)
		if err != nil {
			t.Fatal(err)
		}
		if st.EntriesAdded != 0 || st.EntriesRemoved != 0 || x.BatchRebuilds() != 0 {
			t.Fatalf("label-free batch churned: %+v, rebuilds %d", st, x.BatchRebuilds())
		}
	})

	t.Run("merge rebuilds once per component", func(t *testing.T) {
		x := build()
		// Close one big cycle through both triangles and vertex 6 with
		// three structural inserts: exactly one merged-component rebuild.
		if _, err := x.ApplyBatch([]EdgeOp{Ins(0, 3), Ins(5, 6), Ins(6, 1)}, 2); err != nil {
			t.Fatal(err)
		}
		if got := x.BatchRebuilds(); got != 1 {
			t.Fatalf("merged batch did %d rebuilds, want 1", got)
		}
		if x.NumShards() != 1 {
			t.Fatalf("expected one merged shard, have %d", x.NumShards())
		}
		if l, _ := x.CycleCount(6); l != 7 {
			t.Fatalf("vertex 6 shortest cycle %d, want 7", l)
		}
	})

	t.Run("cross-shard insert+delete pair is free", func(t *testing.T) {
		x := build()
		st, err := x.ApplyBatch([]EdgeOp{Ins(0, 3), Del(0, 3)}, 2)
		if err != nil {
			t.Fatal(err)
		}
		if st.EntriesAdded != 0 || x.BatchRebuilds() != 0 {
			t.Fatalf("net-zero structural pair churned: %+v, rebuilds %d", st, x.BatchRebuilds())
		}
	})

	t.Run("flap pair coalesces to nothing", func(t *testing.T) {
		x := build()
		// Delete and reinsert the same intra-shard edge in one batch: the
		// net effect is empty, so no maintenance runs at all — where
		// per-edge application would split and re-merge the component.
		st, err := x.ApplyBatch([]EdgeOp{Del(0, 1), Ins(0, 1)}, 2)
		if err != nil {
			t.Fatal(err)
		}
		if st.EntriesAdded+st.EntriesChanged+st.EntriesRemoved != 0 || x.BatchRebuilds() != 0 {
			t.Fatalf("flap pair did work: %+v, rebuilds %d", st, x.BatchRebuilds())
		}
		if l, c := x.CycleCount(0); l != 3 || c != 1 {
			t.Fatalf("triangle answer (%d,%d) after flap pair", l, c)
		}
	})

	t.Run("intact shard stream avoids rebuilds", func(t *testing.T) {
		// Ring 0→1→2→3→0 with chord 0→2: one shard. Deleting the chord
		// and inserting chord 1→3 in one batch leaves the ring — and so
		// the component — intact: both net ops stream through incremental
		// maintenance, no rebuild.
		g := graph.New(4)
		for _, e := range [][2]int{{0, 1}, {1, 2}, {2, 3}, {3, 0}, {0, 2}} {
			_ = g.AddEdge(e[0], e[1])
		}
		x, _ := BuildSharded(g, Options{})
		st, err := x.ApplyBatch([]EdgeOp{Del(0, 2), Ins(1, 3)}, 2)
		if err != nil {
			t.Fatal(err)
		}
		if got := x.BatchRebuilds(); got != 0 {
			t.Fatalf("intact shard stream did %d rebuilds, want 0", got)
		}
		if st.EntriesAdded+st.EntriesChanged+st.EntriesRemoved == 0 {
			t.Fatalf("net stream ops did no label maintenance: %+v", st)
		}
		// 1→3→0→1 is now the shortest cycle through 0, 1 and 3.
		if l, _ := x.CycleCount(1); l != 3 {
			t.Fatalf("vertex 1 shortest cycle %d, want 3", l)
		}
	})

	t.Run("split with partial merge rebuilds every survivor", func(t *testing.T) {
		// One SCC of two bridged rings (as in the split case), plus a
		// trivial vertex 6. The batch splits the component and merges one
		// survivor with vertex 6 — the other survivor must keep its
		// labels through a rebuild of its own.
		g := graph.New(7)
		for _, e := range [][2]int{{0, 1}, {1, 2}, {2, 0}, {3, 4}, {4, 5}, {5, 3}, {2, 3}, {5, 0}} {
			_ = g.AddEdge(e[0], e[1])
		}
		x, _ := BuildSharded(g, Options{})
		if x.NumShards() != 1 {
			t.Fatalf("setup: want one SCC, have %d shards", x.NumShards())
		}
		batch := []EdgeOp{Del(2, 3), Del(5, 0), Ins(0, 6), Ins(6, 1)}
		if _, err := x.ApplyBatch(batch, 2); err != nil {
			t.Fatal(err)
		}
		if err := x.checkConsistent(); err != nil {
			t.Fatal(err)
		}
		if x.NumShards() != 2 {
			t.Fatalf("want 2 shards after split+partial merge, have %d", x.NumShards())
		}
		// Ring 3→4→5 survives untouched; 0,1,2,6 ride the enlarged ring.
		if l, c := x.CycleCount(4); l != 3 || c != 1 {
			t.Fatalf("vertex 4 answer (%d,%d), want (3,1)", l, c)
		}
		if l, _ := x.CycleCount(6); l != 4 {
			t.Fatalf("vertex 6 shortest cycle %d, want 4 (0→6→1→2→0)", l)
		}
	})

	t.Run("many structural inserts take the global pass", func(t *testing.T) {
		// Six trivial vertices closed into a ring in one batch: more
		// structural inserts than the scoped threshold, one merged
		// component, one rebuild.
		g := graph.New(6)
		x, _ := BuildSharded(g, Options{})
		batch := []EdgeOp{Ins(0, 1), Ins(1, 2), Ins(2, 3), Ins(3, 4), Ins(4, 5), Ins(5, 0)}
		if _, err := x.ApplyBatch(batch, 2); err != nil {
			t.Fatal(err)
		}
		if x.NumShards() != 1 || x.BatchRebuilds() != 1 {
			t.Fatalf("ring batch: %d shards, %d rebuilds; want 1 and 1", x.NumShards(), x.BatchRebuilds())
		}
		for v := 0; v < 6; v++ {
			if l, c := x.CycleCount(v); l != 6 || c != 1 {
				t.Fatalf("vertex %d answer (%d,%d), want (6,1)", v, l, c)
			}
		}
	})

	t.Run("split rebuilds survivors only", func(t *testing.T) {
		g := graph.New(6)
		// Two rings sharing no vertices, bridged into one SCC:
		// 0→1→2→0 and 3→4→5→3 with 2→3 and 5→0.
		for _, e := range [][2]int{{0, 1}, {1, 2}, {2, 0}, {3, 4}, {4, 5}, {5, 3}, {2, 3}, {5, 0}} {
			_ = g.AddEdge(e[0], e[1])
		}
		x, _ := BuildSharded(g, Options{})
		if x.NumShards() != 1 {
			t.Fatalf("setup: want one SCC, have %d shards", x.NumShards())
		}
		// Dropping both bridges splits the giant component back into the
		// two rings: one batch, two survivor rebuilds.
		if _, err := x.ApplyBatch([]EdgeOp{Del(2, 3), Del(5, 0)}, 2); err != nil {
			t.Fatal(err)
		}
		if x.NumShards() != 2 || x.BatchRebuilds() != 2 {
			t.Fatalf("split: %d shards, %d rebuilds; want 2 and 2", x.NumShards(), x.BatchRebuilds())
		}
		for v := 0; v < 6; v++ {
			if l, c := x.CycleCount(v); l != 3 || c != 1 {
				t.Fatalf("vertex %d answer (%d,%d) after split", v, l, c)
			}
		}
	})

	t.Run("batch plans fewer rebuilds than its ops one at a time", func(t *testing.T) {
		// Small rings joined by random bridges, and a flap-heavy mix over
		// their intra-shard edges: a quarter durable deletes, the rest
		// delete+reinsert flaps of other edges. One op per batch pays a
		// split rebuild and a merge rebuild per flap that splits its
		// component; one batch coalesces the flaps away and plans the
		// durable deletes once.
		g := testgraphs.ManySmallSCC(60, 6, 120, 8)
		one, _ := BuildSharded(g.Clone(), Options{})
		each, _ := BuildSharded(g.Clone(), Options{})
		var intra [][2]int
		for _, e := range g.Edges() {
			if s := one.ShardOf(e[0]); s >= 0 && s == one.ShardOf(e[1]) {
				intra = append(intra, e)
			}
		}
		rand.New(rand.NewSource(23)).Shuffle(len(intra), func(i, j int) { intra[i], intra[j] = intra[j], intra[i] })
		var ops []EdgeOp
		for _, e := range intra[:8] {
			ops = append(ops, Del(e[0], e[1]))
		}
		for _, e := range intra[8:20] {
			ops = append(ops, Del(e[0], e[1]), Ins(e[0], e[1]))
		}
		if _, err := one.ApplyBatch(ops, 2); err != nil {
			t.Fatal(err)
		}
		for _, op := range ops {
			if _, err := each.ApplyBatch([]EdgeOp{op}, 2); err != nil {
				t.Fatal(err)
			}
		}
		if one.BatchRebuilds() >= each.BatchRebuilds() {
			t.Fatalf("one batch planned %d rebuilds, one op per batch %d", one.BatchRebuilds(), each.BatchRebuilds())
		}
		ol, oc := one.CycleCountAll(2)
		el, ec := each.CycleCountAll(2)
		assertSameCounts(t, "batch-vs-per-op", el, ec, ol, oc)
	})
}

// TestValidateBatch pins the batch validation contract: rejected batches
// leave the index untouched, and validity is judged net of earlier ops in
// the same batch against the live graph.
func TestValidateBatch(t *testing.T) {
	g := graph.New(4)
	_ = g.AddEdge(0, 1)
	cases := []struct {
		name  string
		batch []EdgeOp
		ok    bool
	}{
		{"empty", nil, true},
		{"insert absent", []EdgeOp{Ins(1, 2)}, true},
		{"insert present", []EdgeOp{Ins(0, 1)}, false},
		{"delete present", []EdgeOp{Del(0, 1)}, true},
		{"delete absent", []EdgeOp{Del(1, 2)}, false},
		{"insert twice", []EdgeOp{Ins(1, 2), Ins(1, 2)}, false},
		{"insert then delete", []EdgeOp{Ins(1, 2), Del(1, 2)}, true},
		{"delete then reinsert", []EdgeOp{Del(0, 1), Ins(0, 1)}, true},
		{"self loop", []EdgeOp{Ins(2, 2)}, false},
		{"out of range", []EdgeOp{Ins(0, 9)}, false},
		{"unknown kind", []EdgeOp{{Kind: 7, A: 0, B: 1}}, false},
	}
	for _, tc := range cases {
		if err := ValidateBatch(g, tc.batch); (err == nil) != tc.ok {
			t.Errorf("%s: err=%v, want ok=%v", tc.name, err, tc.ok)
		}
	}

	// A rejected batch must leave the index untouched.
	x, _ := BuildSharded(g.Clone(), Options{})
	before := x.EntryCount()
	if _, err := x.ApplyBatch([]EdgeOp{Ins(1, 2), Ins(0, 1)}, 2); err == nil {
		t.Fatal("invalid batch accepted")
	}
	if _, err := x.ApplyBatch([]EdgeOp{Del(0, 1), Del(0, 1)}, 0); err == nil {
		t.Fatal("double delete accepted")
	}
	if x.EntryCount() != before || x.Graph().HasEdge(1, 2) || !x.Graph().HasEdge(0, 1) {
		t.Fatal("rejected batch mutated the sharded index")
	}
}
