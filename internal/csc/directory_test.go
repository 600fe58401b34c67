package csc

import (
	"bytes"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/bfscount"
	"repro/internal/graph"
	"repro/internal/order"
	"repro/internal/partition"
	"repro/internal/testgraphs"
)

// directoryTable lists every vertex's shard position, (-1, -1) for a
// trivial one.
func directoryTable(x *Sharded) []shardPos {
	out := make([]shardPos, x.g.NumVertices())
	for v := range out {
		s, l := x.Locate(v)
		out[v] = shardPos{s, l}
	}
	return out
}

// bytes is the directory's footprint.
func (d *directory) bytes() int { return 8*cap(d.bits) + 4*cap(d.ranks) + 8*cap(d.pos) }

// assertDirectory checks the directory against a map of every member
// vertex to its slot and local id, built from the shards alone.
func assertDirectory(t *testing.T, stage string, x *Sharded) {
	t.Helper()
	ref := make(map[int32]shardPos)
	for s, sh := range x.shards {
		if sh == nil {
			continue
		}
		for li, v := range sh.verts {
			ref[v] = shardPos{int32(s), int32(li)}
		}
	}
	n := x.g.NumVertices()
	slots := x.ShardMap()
	for v := range n {
		want, ok := ref[int32(v)]
		if !ok {
			want = shardPos{-1, -1}
		}
		if s, l := x.Locate(v); s != want.slot || l != want.local {
			t.Fatalf("%s: Locate(%d) = (%d, %d), want (%d, %d)", stage, v, s, l, want.slot, want.local)
		}
		if x.ShardOf(v) != int(want.slot) || slots[v] != want.slot {
			t.Fatalf("%s: vertex %d: ShardOf %d, ShardMap %d, want slot %d", stage, v, x.ShardOf(v), slots[v], want.slot)
		}
	}
	if got := x.TrivialVertices(); got != n-len(ref) {
		t.Fatalf("%s: %d trivial vertices, want %d", stage, got, n-len(ref))
	}
	if err := x.checkConsistent(); err != nil {
		t.Fatalf("%s: %v", stage, err)
	}
}

// The directory resolves like a map of the shards' members through a
// boot build, batch merges and splits, single-op merges and splits,
// vertex growth across a word boundary and v2 loads (v3/v4 loads:
// TestCompressedMatchesUncompressed).
func TestDirectoryMatchesReferenceMap(t *testing.T) {
	g := testgraphs.ManySmallSCC(12, 6, 30, 5)
	x, _ := BuildSharded(g, Options{Workers: 1})
	assertDirectory(t, "boot", x)
	if x.NumShards() < 4 {
		t.Fatalf("%d shards: the graph does not exercise the directory", x.NumShards())
	}
	heads := make([]int, 0, x.NumShards())
	for _, sh := range x.liveShards() {
		heads = append(heads, int(sh.verts[0]))
	}

	// A batch ring through every other shard's head merges them; the
	// ring's deletion splits them again.
	var ring, unring []EdgeOp
	for i := 0; i+2 < len(heads); i += 2 {
		a, b := heads[i], heads[i+2]
		if !x.g.HasEdge(a, b) {
			ring = append(ring, Ins(a, b))
			unring = append(unring, Del(a, b))
		}
	}
	if a, b := heads[len(heads)-1-(len(heads)-1)%2], heads[0]; !x.g.HasEdge(a, b) {
		ring = append(ring, Ins(a, b))
		unring = append(unring, Del(a, b))
	}
	if _, err := x.ApplyBatch(ring, 1); err != nil {
		t.Fatal(err)
	}
	if m, _ := x.Rebuilds(); m == 0 && x.BatchRebuilds() == 0 {
		t.Fatal("the ring merged nothing")
	}
	assertDirectory(t, "batch merge", x)
	if _, err := x.ApplyBatch(unring, 1); err != nil {
		t.Fatal(err)
	}
	assertDirectory(t, "batch split", x)

	// Single ops: a 2-cycle between two shards' heads merges them, and
	// deleting one of its edges splits them.
	a, b := heads[1], heads[3]
	for _, e := range [][2]int{{a, b}, {b, a}} {
		if !x.g.HasEdge(e[0], e[1]) {
			if _, err := x.InsertEdge(e[0], e[1]); err != nil {
				t.Fatal(err)
			}
		}
	}
	if x.ShardOf(a) != x.ShardOf(b) {
		t.Fatal("the 2-cycle did not merge")
	}
	assertDirectory(t, "single merge", x)
	if _, err := x.DeleteEdge(a, b); err != nil {
		t.Fatal(err)
	}
	assertDirectory(t, "single split", x)

	// Growth past the next word boundary, then a cycle through the new
	// vertices and an old shard.
	first := x.g.NumVertices()
	for range 70 {
		if _, err := x.AddVertex(); err != nil {
			t.Fatal(err)
		}
	}
	assertDirectory(t, "grown", x)
	last := x.g.NumVertices() - 1
	for _, e := range [][2]int{{first, last}, {last, heads[0]}, {heads[0], first}} {
		if _, err := x.InsertEdge(e[0], e[1]); err != nil {
			t.Fatal(err)
		}
	}
	if x.ShardOf(last) < 0 || x.ShardOf(last) != x.ShardOf(heads[0]) {
		t.Fatal("the cycle through the grown vertices is not one shard")
	}
	assertDirectory(t, "grown cycle", x)
	assertOracle(t, "grown cycle", x)

	for _, opts := range []Options{{}, {Order: order.Coverage}} {
		src, _ := BuildSharded(x.g.Clone(), opts)
		var buf bytes.Buffer
		if _, err := src.WriteTo(&buf); err != nil {
			t.Fatal(err)
		}
		loaded, err := Read(bytes.NewReader(buf.Bytes()))
		if err != nil {
			t.Fatal(err)
		}
		y := loaded.(*Sharded)
		stage := "load " + string(buf.Bytes()[:8])
		assertDirectory(t, stage, y)
		if got, want := directoryTable(y), directoryTable(src); !slices.Equal(got, want) {
			t.Fatalf("%s: directory differs from the written index's", stage)
		}
	}
}

// Retiring and installing random disjoint member sets keeps the
// directory equal to a map, across word boundaries and adjacent ranks.
func TestDirectoryRetireInstall(t *testing.T) {
	r := rand.New(rand.NewSource(3))
	const n = 300
	d, err := newDirectory(n, nil)
	if err != nil {
		t.Fatal(err)
	}
	ref := make(map[int]shardPos)
	live := make(map[int32][]int32)
	for step := range 400 {
		if len(live) > 0 && r.Intn(2) == 0 {
			for s, verts := range live {
				d.remove(verts)
				for _, v := range verts {
					delete(ref, int(v))
				}
				delete(live, s)
				break
			}
		} else {
			var verts []int32
			for v := range n {
				if _, ok := ref[v]; !ok && r.Intn(8) == 0 {
					verts = append(verts, int32(v))
				}
			}
			s := int32(step)
			d.insert(verts, s)
			for li, v := range verts {
				ref[int(v)] = shardPos{s, int32(li)}
			}
			live[s] = verts
		}
		if d.members() != len(ref) {
			t.Fatalf("step %d: %d members, want %d", step, d.members(), len(ref))
		}
		for v := range n {
			want, ok := ref[v]
			if !ok {
				want = shardPos{-1, -1}
			}
			if s, l := d.locate(v); s != want.slot || l != want.local {
				t.Fatalf("step %d: locate(%d) = (%d, %d), want (%d, %d)", step, v, s, l, want.slot, want.local)
			}
		}
	}
	if _, err := newDirectory(4, []*shard{{verts: []int32{0, 1}}, {verts: []int32{1, 2}}}); err == nil {
		t.Fatal("two shards claiming vertex 1 accepted")
	}
}

// A lean shard holds no subgraph and induces it again from the served
// graph at its first write. Deleting edges from its members to outside
// it swap-removes in the served graph's overflow, so the re-induced
// lists order their neighbours differently from the subgraph the build
// induced; the shard's first intra-shard insert and delete, and a v2
// round trip, still answer like the BFS oracle everywhere.
func TestReinducedSubgraphOrder(t *testing.T) {
	// A 6-cycle 0→…→5→0 with chords 0→2 and 3→5, each member first
	// linking out to a sink 6+v, so every member's out-list starts with
	// an edge leaving the shard.
	var pairs []int32
	for v := int32(0); v < 6; v++ {
		pairs = append(pairs, v, 6+v)
	}
	for v := int32(0); v < 6; v++ {
		pairs = append(pairs, v, (v+1)%6)
	}
	pairs = append(pairs, 0, 2, 3, 5)
	g, err := graph.FromPairs(12, pairs)
	if err != nil {
		t.Fatal(err)
	}
	x, _ := BuildSharded(g, Options{Order: order.Coverage})
	assertLean(t, "boot", x)
	sh := x.shards[x.ShardOf(0)]
	if sh.idx.g != nil || x.NumShards() != 1 {
		t.Fatalf("lean shard holds a subgraph %v, %d shards", sh.idx.g != nil, x.NumShards())
	}
	built := partition.Induced(x.g, sh.verts)

	for v := 0; v < 6; v++ {
		if _, err := x.DeleteEdge(v, 6+v); err != nil {
			t.Fatal(err)
		}
	}
	assertLean(t, "outside deletes", x)
	assertOracle(t, "outside deletes", x)
	sub := partition.Induced(x.g, sh.verts)
	if !graph.Equal(sub, built) {
		t.Fatal("outside deletes changed the induced subgraph")
	}
	if !slices.Equal(sub.Out(0), []int32{2, 1}) || !slices.Equal(built.Out(0), []int32{1, 2}) {
		t.Fatalf("re-induced out-list of 0 is %v, built %v: the deletes did not reorder it", sub.Out(0), built.Out(0))
	}

	var before bytes.Buffer
	if _, err := x.WriteTo(&before); err != nil {
		t.Fatal(err)
	}
	if _, err := x.InsertEdge(4, 1); err != nil {
		t.Fatal(err)
	}
	e := sh.idx.eng
	if sh.idx.g == nil || e.Lean() || !e.Reduced() || e.G != nil {
		t.Fatal("the first write did not give the shard its subgraph and couple form")
	}
	assertOracle(t, "first insert", x)
	if _, err := x.DeleteEdge(0, 2); err != nil {
		t.Fatal(err)
	}
	assertOracle(t, "first delete", x)
	assertStreamState(t, x, "first delete")

	for _, file := range []*bytes.Buffer{&before, nil} {
		if file == nil {
			file = new(bytes.Buffer)
			if _, err := x.WriteTo(file); err != nil {
				t.Fatal(err)
			}
		}
		loaded, err := Read(bytes.NewReader(file.Bytes()))
		if err != nil {
			t.Fatal(err)
		}
		y := loaded.(*Sharded)
		assertLean(t, "v2 reload", y)
		for v := 0; v < y.g.NumVertices(); v++ {
			wl, wc := bfscount.CycleCount(y.g, v)
			if l, c := y.CycleCount(v); l != wl || c != wc {
				t.Fatalf("v2 reload: SCCnt(%d) = (%d,%d), oracle (%d,%d)", v, l, c, wl, wc)
			}
		}
		var again bytes.Buffer
		if _, err := y.WriteTo(&again); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(again.Bytes(), file.Bytes()) {
			t.Fatal("a lean reload writes different v2 bytes")
		}
	}
}
