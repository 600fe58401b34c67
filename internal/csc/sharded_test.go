package csc

import (
	"bytes"
	"testing"
	"unsafe"

	"repro/internal/bfscount"
	"repro/internal/bipartite"
	"repro/internal/graph"
	"repro/internal/order"
	"repro/internal/pll"
	"repro/internal/testgraphs"
)

// mixedGraph: two disjoint cycles bridged one-way, hanging DAG tails, and
// isolated vertices — every partition case at once.
//
//	{0,1,2} triangle   {4,5} 2-cycle   2→4 bridge   5→6→7 tail   3,8,9 extra
func mixedGraph(t *testing.T) *graph.Digraph {
	t.Helper()
	g, err := graph.FromEdges(10, [][2]int{
		{0, 1}, {1, 2}, {2, 0},
		{4, 5}, {5, 4},
		{2, 4},
		{5, 6}, {6, 7},
		{8, 0}, {3, 8},
	})
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func assertAgreesWithMono(t *testing.T, x *Sharded) {
	t.Helper()
	if err := x.checkConsistent(); err != nil {
		t.Fatal(err)
	}
	g := x.Graph()
	mono, _ := Build(g.Clone(), order.ByDegree(g), Options{})
	for v := 0; v < g.NumVertices(); v++ {
		sl, sc := x.CycleCount(v)
		ml, mc := mono.CycleCount(v)
		if sl != ml || sc != mc {
			t.Fatalf("vertex %d: sharded (%d,%d) != monolithic (%d,%d)", v, sl, sc, ml, mc)
		}
		ol, oc := bfscount.CycleCount(g, v)
		if sl != ol || sc != oc {
			t.Fatalf("vertex %d: sharded (%d,%d) != oracle (%d,%d)", v, sl, sc, ol, oc)
		}
	}
}

func TestShardedBuildPartition(t *testing.T) {
	x, st := BuildSharded(mixedGraph(t), Options{})
	if n := x.NumShards(); n != 2 {
		t.Fatalf("NumShards = %d, want 2", n)
	}
	if n := x.TrivialVertices(); n != 5 {
		t.Fatalf("TrivialVertices = %d, want 5 (3,6,7,8,9)", n)
	}
	if st.Entries != x.EntryCount() || st.Entries == 0 {
		t.Fatalf("build stats entries %d vs index %d", st.Entries, x.EntryCount())
	}
	// Same shard for triangle members, none for tail vertices.
	if x.ShardOf(0) != x.ShardOf(1) || x.ShardOf(0) != x.ShardOf(2) {
		t.Fatal("triangle split across shards")
	}
	if x.ShardOf(6) != -1 || x.ShardOf(9) != -1 {
		t.Fatal("trivial vertex assigned a shard")
	}
	assertAgreesWithMono(t, x)
}

// The sharded index must be strictly smaller than the monolithic one on a
// graph with any acyclic region: trivial vertices carry zero entries.
func TestShardedSkipsTrivialLabels(t *testing.T) {
	g := mixedGraph(t)
	mono, _ := Build(g.Clone(), order.ByDegree(g), Options{})
	x, _ := BuildSharded(g, Options{})
	if x.EntryCount() >= mono.EntryCount() {
		t.Fatalf("sharded %d entries, monolithic %d — no reduction", x.EntryCount(), mono.EntryCount())
	}
	if x.Bytes() != 8*x.EntryCount() || x.ReducedBytes() >= x.Bytes() {
		t.Fatalf("size accounting: bytes %d reduced %d", x.Bytes(), x.ReducedBytes())
	}
}

func TestShardedIntraShardUpdates(t *testing.T) {
	x, _ := BuildSharded(mixedGraph(t), Options{})
	// 0→2 adds a second triangle chord inside shard {0,1,2}: INCCNT path.
	st, err := x.InsertEdge(0, 2)
	if err != nil {
		t.Fatal(err)
	}
	if m, s := x.Rebuilds(); m != 0 || s != 0 {
		t.Fatalf("intra-shard insert rebuilt: merges=%d splits=%d", m, s)
	}
	// Touched owners must be global-graph Gb vertices.
	for _, o := range st.TouchedOwners {
		if v := bipartite.Original(int(o)); v < 0 || v > 2 {
			t.Fatalf("touched owner %d maps to vertex %d outside shard {0,1,2}", o, v)
		}
	}
	assertAgreesWithMono(t, x)
	// Deleting the chord keeps the component intact: decremental path.
	if _, err := x.DeleteEdge(0, 2); err != nil {
		t.Fatal(err)
	}
	if m, s := x.Rebuilds(); m != 0 || s != 0 {
		t.Fatalf("intact delete rebuilt: merges=%d splits=%d", m, s)
	}
	assertAgreesWithMono(t, x)
}

func TestShardedMergeAndSplit(t *testing.T) {
	x, _ := BuildSharded(mixedGraph(t), Options{})
	// 9→3 is a recorded cross edge: nothing reaches back to 9, so no
	// cycle closes and no rebuild runs.
	if _, err := x.InsertEdge(9, 3); err != nil {
		t.Fatal(err)
	}
	if m, _ := x.Rebuilds(); m != 0 {
		t.Fatal("cycle-free cross insert triggered a merge")
	}
	// 7→0 closes 0…2→4⇄5→6→7→0: both shards and the path vertices merge
	// into one component.
	if _, err := x.InsertEdge(7, 0); err != nil {
		t.Fatal(err)
	}
	if m, _ := x.Rebuilds(); m != 1 {
		t.Fatal("merge not triggered")
	}
	if n := x.NumShards(); n != 1 {
		t.Fatalf("NumShards after merge = %d, want 1", n)
	}
	assertAgreesWithMono(t, x)
	// Deleting the bridge 2→4 splits the merged component back apart.
	if _, err := x.DeleteEdge(2, 4); err != nil {
		t.Fatal(err)
	}
	if _, s := x.Rebuilds(); s != 1 {
		t.Fatal("split not triggered")
	}
	if n := x.NumShards(); n != 2 {
		t.Fatalf("NumShards after split = %d, want 2", n)
	}
	assertAgreesWithMono(t, x)
	// Deleting a recorded cross edge is label-free.
	if _, err := x.DeleteEdge(9, 3); err != nil {
		t.Fatal(err)
	}
	assertAgreesWithMono(t, x)
}

func TestShardedVertexOps(t *testing.T) {
	x, _ := BuildSharded(mixedGraph(t), Options{})
	v, err := x.AddVertex()
	if err != nil {
		t.Fatal(err)
	}
	if l, _ := x.CycleCount(v); l != bfscount.NoCycle {
		t.Fatal("fresh vertex on a cycle")
	}
	if _, err := x.InsertEdge(2, v); err != nil {
		t.Fatal(err)
	}
	if _, err := x.InsertEdge(v, 0); err != nil {
		t.Fatal(err)
	}
	if l, c := x.CycleCount(v); l != 4 || c != 1 {
		t.Fatalf("new vertex cycle = (%d,%d), want (4,1)", l, c)
	}
	assertAgreesWithMono(t, x)
	removed, err := x.DetachVertex(v)
	if err != nil || removed != 2 {
		t.Fatalf("DetachVertex = (%d, %v)", removed, err)
	}
	if x.ShardOf(v) != -1 {
		t.Fatal("detached vertex still sharded")
	}
	assertAgreesWithMono(t, x)
}

func TestShardedCycleCountAll(t *testing.T) {
	x, _ := BuildSharded(mixedGraph(t), Options{})
	l1, c1 := x.CycleCountAll(1)
	l8, c8 := x.CycleCountAll(8)
	for v := range l1 {
		if l1[v] != l8[v] || c1[v] != c8[v] {
			t.Fatalf("vertex %d: sequential (%d,%d) != parallel (%d,%d)", v, l1[v], c1[v], l8[v], c8[v])
		}
		wl, wc := x.CycleCount(v)
		if l1[v] != wl || c1[v] != wc {
			t.Fatalf("vertex %d: all (%d,%d) != single (%d,%d)", v, l1[v], c1[v], wl, wc)
		}
	}
	// Out-of-range queries answer no-cycle instead of panicking (the
	// serving surface passes client ids through).
	if l, _ := x.CycleCount(-1); l != bfscount.NoCycle {
		t.Fatal("negative vertex")
	}
	if l, _ := x.CycleCount(1 << 20); l != bfscount.NoCycle {
		t.Fatal("huge vertex")
	}
}

func TestShardedSerializeRoundtrip(t *testing.T) {
	x, _ := BuildSharded(mixedGraph(t), Options{})
	var buf bytes.Buffer
	if _, err := x.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	loaded, err := Read(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	y, ok := loaded.(*Sharded)
	if !ok {
		t.Fatalf("v2 stream loaded as %T", loaded)
	}
	if !graph.Equal(x.Graph(), y.Graph()) {
		t.Fatal("graph lost in roundtrip")
	}
	for v := 0; v < x.Graph().NumVertices(); v++ {
		al, ac := x.CycleCount(v)
		bl, bc := y.CycleCount(v)
		if al != bl || ac != bc {
			t.Fatalf("vertex %d differs after roundtrip", v)
		}
	}
	// Re-serialization is byte-stable.
	var buf2 bytes.Buffer
	if _, err := y.WriteTo(&buf2); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf.Bytes(), buf2.Bytes()) {
		t.Fatal("v2 serialization not byte-stable across a roundtrip")
	}
	// The loaded index stays dynamic, including scoped rebuilds.
	if _, err := y.InsertEdge(7, 0); err != nil {
		t.Fatal(err)
	}
	if m, _ := y.Rebuilds(); m != 1 {
		t.Fatal("loaded index did not merge")
	}
	assertAgreesWithMono(t, y)
}

// A v1 stream loads as the monolithic Index, and AsSharded re-shards it
// for serving: same answers, same maintenance strategy, and a sharded
// index passes through unchanged.
func TestReadDispatchesV1(t *testing.T) {
	g := mixedGraph(t)
	mono, _ := Build(g.Clone(), order.ByDegree(g), Options{Strategy: pll.Minimality})
	var buf bytes.Buffer
	if _, err := mono.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	loaded, err := Read(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	ix, ok := loaded.(*Index)
	if !ok {
		t.Fatalf("v1 stream loaded as %T", loaded)
	}
	for v := 0; v < g.NumVertices(); v++ {
		al, ac := mono.CycleCount(v)
		bl, bc := ix.CycleCount(v)
		if al != bl || ac != bc {
			t.Fatalf("vertex %d differs after v1 roundtrip", v)
		}
	}
	sx := AsSharded(loaded)
	if err := sx.checkConsistent(); err != nil {
		t.Fatal(err)
	}
	if sx.opts.Strategy != pll.Minimality {
		t.Fatalf("re-sharded strategy %v, want the v1 file's minimality", sx.opts.Strategy)
	}
	assertAgreesWithMono(t, sx)
	if AsSharded(sx) != sx {
		t.Fatal("AsSharded copied a sharded index")
	}
}

// A crafted v2 stream whose shard table omits a cyclic component (so its
// vertices would silently answer 0) must be rejected by the decomposition
// check.
func TestShardedReadRejectsBadShardTable(t *testing.T) {
	g, err := graph.FromEdges(6, [][2]int{
		{0, 1}, {1, 2}, {2, 0},
		{3, 4}, {4, 3}, {5, 0},
	})
	if err != nil {
		t.Fatal(err)
	}
	x, _ := BuildSharded(g, Options{})
	// Forge a stream claiming only the triangle shard exists by retiring
	// the 2-cycle shard before writing.
	forged := &Sharded{
		g:      x.g,
		opts:   x.opts,
		shards: []*shard{x.shards[x.ShardOf(0)]},
		dir:    x.dir,
	}
	var buf bytes.Buffer
	if _, err := forged.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	if _, err := Read(bytes.NewReader(buf.Bytes())); err == nil {
		t.Fatal("shard table missing a cyclic component was accepted")
	}
}

// The cross-shard build pool must not change a byte: components built
// eight at a time serialize exactly as components built one by one.
func TestShardedParallelBuildMatchesSequential(t *testing.T) {
	g := testgraphs.ManySmallSCC(40, 12, 60, 77)
	seq, _ := BuildSharded(g.Clone(), Options{Workers: 1})
	par, _ := BuildSharded(g.Clone(), Options{Workers: 8})
	if seq.NumShards() < 2 {
		t.Fatalf("%d shards: the graph does not exercise the cross-shard pool", seq.NumShards())
	}
	var bs, bp bytes.Buffer
	if _, err := seq.WriteTo(&bs); err != nil {
		t.Fatal(err)
	}
	if _, err := par.WriteTo(&bp); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(bs.Bytes(), bp.Bytes()) {
		t.Fatal("parallel sharded build not byte-identical to sequential")
	}
}

func TestShardedStrategyPropagates(t *testing.T) {
	x, _ := BuildSharded(mixedGraph(t), Options{Strategy: pll.Minimality})
	var buf bytes.Buffer
	if _, err := x.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	loaded, err := Read(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	y := loaded.(*Sharded)
	if y.opts.Strategy != pll.Minimality {
		t.Fatal("strategy lost in roundtrip")
	}
	// Updates after the roundtrip still maintain correct counts.
	if _, err := y.InsertEdge(7, 0); err != nil {
		t.Fatal(err)
	}
	assertAgreesWithMono(t, y)
}

// Initial shards own their member lists. partition.SCC lays every
// component's members out in one n-sized array; a shard holding a
// sub-slice of it would keep the whole array alive. The test graph's
// shards are 5-cycles: a 20-byte member list fills no allocation size
// class exactly, so separately allocated lists are never adjacent in
// memory, while sub-slices of one array are.
func TestInitialShardsOwnTheirMembers(t *testing.T) {
	// Rings on consecutive ids are consecutive components, laid out back
	// to back in the partition's array; the isolated tail is trivial.
	const rings = 6
	g := graph.New(rings*5 + 4)
	for r := 0; r < rings; r++ {
		base := r * 5
		for i := 0; i < 5; i++ {
			if err := g.AddEdge(base+i, base+(i+1)%5); err != nil {
				t.Fatal(err)
			}
		}
	}
	x, _ := BuildSharded(g, Options{Workers: 1})
	if x.NumShards() != rings {
		t.Fatalf("%d shards, want %d", x.NumShards(), rings)
	}
	type span struct{ lo, hi uintptr }
	var spans []span
	for _, sh := range x.shards {
		if cap(sh.verts) != len(sh.verts) {
			t.Fatalf("shard members len %d cap %d: want an exact copy", len(sh.verts), cap(sh.verts))
		}
		lo := uintptr(unsafe.Pointer(unsafe.SliceData(sh.verts)))
		spans = append(spans, span{lo, lo + uintptr(len(sh.verts))*unsafe.Sizeof(int32(0))})
	}
	for i, a := range spans {
		for j, b := range spans {
			if i != j && a.lo <= b.lo && b.lo <= a.hi {
				t.Fatalf("shards %d and %d share one backing array", i, j)
			}
		}
	}
}
