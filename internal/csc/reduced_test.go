package csc

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"io"
	"math/rand"
	"testing"

	"repro/internal/bfscount"
	"repro/internal/bipartite"
	"repro/internal/bitpack"
	"repro/internal/graph"
	"repro/internal/label"
	"repro/internal/order"
	"repro/internal/pll"
	"repro/internal/testgraphs"
)

// TestReducedBuildMatchesGeneric pins the reduced construction to the
// generic engine: a fresh skipping build stores only Lin(v_in) and
// Lout(v_out), counts the full labeling, and expands to the generic
// construction's labels entry for entry — on the conformance corpus, 40
// random graphs, and one 300-vertex single-SCC graph, each under the
// degree, coverage and random orders (the rank-space passes stop their
// scans by comparing ranks, so each order cuts them differently).
func TestReducedBuildMatchesGeneric(t *testing.T) {
	type tc struct {
		name string
		g    *graph.Digraph
	}
	var cases []tc
	for _, ng := range testgraphs.Corpus() {
		cases = append(cases, tc{ng.Name, ng.G})
	}
	r := rand.New(rand.NewSource(18))
	for i := 0; i < 40; i++ {
		cases = append(cases, tc{"random", randomGraph(r, 4+r.Intn(30), 1+r.Intn(4))})
	}
	cases = append(cases, tc{"giant-scc", testgraphs.GiantSCC(300, 1200, 7)})
	for i, c := range cases {
		for _, ord := range testOrders(c.g, int64(i)) {
			assertReducedMatchesGeneric(t, c.name+"/"+ord.name, c.g, ord.ord)
		}
	}
}

// namedOrder is one hub order of a test graph.
type namedOrder struct {
	name string
	ord  *order.Order
}

// testOrders returns g under the orders the identity tests build with:
// degree, coverage and random, the sampled ones seeded with seed.
func testOrders(g *graph.Digraph, seed int64) []namedOrder {
	n := g.NumVertices()
	return []namedOrder{
		{"degree", order.ByDegree(g)},
		{"coverage", order.ByCoverage(g, order.DefaultSamples(n), seed)},
		{"random", order.ByRandom(n, seed)},
	}
}

// assertReducedMatchesGeneric builds g under ord with the skipping and
// the generic construction and checks that the first is reduced, stores
// what it reports, and expands to the second entry for entry.
func assertReducedMatchesGeneric(t *testing.T, name string, g *graph.Digraph, ord *order.Order) {
	t.Helper()
	skip, _ := Build(g.Clone(), ord, Options{})
	generic, _ := Build(g.Clone(), ord, Options{GenericConstruction: true})
	es, eg := skip.Engine(), generic.Engine()
	if !es.Reduced() {
		t.Fatalf("%s: skipping build is not reduced", name)
	}
	stored := storedEntries(es)
	if stored != skip.ReducedEntryCount() {
		t.Fatalf("%s: stores %d entries, want ReducedEntryCount %d", name, stored, skip.ReducedEntryCount())
	}
	if skip.EntryCount() != generic.EntryCount() {
		t.Fatalf("%s: reduced build counts %d entries, generic %d", name, skip.EntryCount(), generic.EntryCount())
	}
	es.Expand()
	for b := 0; b < 2*g.NumVertices(); b++ {
		if !entriesEqual(es.In[b].Entries(), eg.In[b].Entries()) {
			t.Fatalf("%s: Lin(%d): expanded %v != generic %v", name, b, es.In[b].Entries(), eg.In[b].Entries())
		}
		if !entriesEqual(es.Out[b].Entries(), eg.Out[b].Entries()) {
			t.Fatalf("%s: Lout(%d): expanded %v != generic %v", name, b, es.Out[b].Entries(), eg.Out[b].Entries())
		}
	}
	if skip.EntryCount() != generic.EntryCount() {
		t.Fatalf("%s: expansion changed the entry count to %d", name, skip.EntryCount())
	}
}

// storedEntries counts the entries e's lists hold, read through InLabel
// and OutLabel so that a lean index is counted without expanding it.
func storedEntries(e *pll.Index) int {
	stored := 0
	for v := 0; v < e.Ord.Len(); v++ {
		in, out := e.InLabel(v), e.OutLabel(v)
		stored += in.Len() + out.Len()
	}
	return stored
}

// assertReduceExpandIdentity checks, on every live shard, that expanding,
// reducing and re-expanding leaves the logical labeling — its v1 bytes,
// which carry every list — and the entry count unchanged, that a reduced
// shard reduces again, and that ResidentBytes is a reduced shard's frozen
// store and 8 B per entry of a full one. Each shard ends in the state it
// started in.
func assertReduceExpandIdentity(t testing.TB, x *Sharded) {
	t.Helper()
	blob := func(e *pll.Index) []byte {
		var buf bytes.Buffer
		if _, err := e.WriteTo(&buf); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	for slot, sh := range x.shards {
		if sh == nil {
			continue
		}
		x.subgraph(sh) // a lean shard writes and expands from it
		e := sh.idx.eng
		wasReduced, entries := e.Reduced(), e.EntryCount()
		want := blob(e)
		e.Expand()
		if got := blob(e); !bytes.Equal(got, want) {
			t.Fatalf("shard %d: expansion changed the labeling", slot)
		}
		if !e.Reduce() && wasReduced {
			t.Fatalf("shard %d: an expanded reduced shard does not reduce again", slot)
		}
		if got := blob(e); !bytes.Equal(got, want) {
			t.Fatalf("shard %d: reduction changed the written labeling", slot)
		}
		if !wasReduced {
			e.Expand()
			if got := blob(e); !bytes.Equal(got, want) {
				t.Fatalf("shard %d: reduce then expand is not the identity", slot)
			}
		}
		if e.Reduced() != wasReduced || e.EntryCount() != entries {
			t.Fatalf("shard %d: reduced %v→%v, entries %d→%d", slot, wasReduced, e.Reduced(), entries, e.EntryCount())
		}
		stored := storedEntries(e)
		// A reduced shard holds its stored lists in the delta+varint
		// arena; a full one holds 8 bytes per entry.
		resident := 8 * stored
		if e.Reduced() {
			f := e.FrozenArena()
			if f == nil || f.Entries() != stored {
				t.Fatalf("shard %d: reduced, but its frozen store does not hold its %d stored entries", slot, stored)
			}
			resident = f.Bytes()
		}
		if e.ResidentBytes() != resident {
			t.Fatalf("shard %d: ResidentBytes %d, want %d (lists hold %d entries)", slot, e.ResidentBytes(), resident, stored)
		}
	}
}

// TestWritePathRebuildStaysUnfrozen pins where a reduced shard's stored
// lists are frozen: a boot build freezes them into the delta+varint
// arena, a merge rebuild on the write path leaves them in the slices
// its construction filled (its next label write expands them anyway),
// and that next write expands the shard. Every step answers like the
// BFS oracle.
func TestWritePathRebuildStaysUnfrozen(t *testing.T) {
	// Two 3-cycles, 0→1→2→0 and 3→4→5→3.
	g, err := graph.FromPairs(6, []int32{0, 1, 1, 2, 2, 0, 3, 4, 4, 5, 5, 3})
	if err != nil {
		t.Fatal(err)
	}
	x, _ := BuildSharded(g, Options{})
	check := func(stage string) {
		t.Helper()
		for v := 0; v < x.Graph().NumVertices(); v++ {
			wl, wc := bfscount.CycleCount(x.Graph(), v)
			if l, c := x.CycleCount(v); l != wl || c != wc {
				t.Fatalf("%s: SCCnt(%d) = (%d,%d), oracle (%d,%d)", stage, v, l, c, wl, wc)
			}
		}
	}
	engOf := func(v int) *pll.Index { return x.shards[x.ShardOf(v)].idx.eng }
	check("boot")
	for _, v := range []int{0, 3} {
		if e := engOf(v); !e.Reduced() || e.FrozenArena() == nil || e.Compressed() {
			t.Fatalf("boot shard of %d: reduced %v, frozen %v, compressed %v; want a reduced frozen store", v, e.Reduced(), e.FrozenArena() != nil, e.Compressed())
		}
	}
	// 2→3 and 5→0 merge the two cycles into one component, rebuilt.
	if _, err := x.ApplyBatch([]EdgeOp{Ins(2, 3), Ins(5, 0)}, 1); err != nil {
		t.Fatal(err)
	}
	check("merge")
	e := engOf(0)
	if engOf(3) != e || !e.Reduced() || e.FrozenArena() != nil || e.Arena() != nil {
		t.Fatalf("merged shard: reduced %v, frozen %v, arena %v; want reduced plain slices", e.Reduced(), e.FrozenArena() != nil, e.Arena() != nil)
	}
	stored := storedEntries(e)
	if e.ResidentBytes() != 8*stored || stored >= e.EntryCount() {
		t.Fatalf("merged shard holds %d bytes for %d stored of %d entries; want 8 B per stored entry", e.ResidentBytes(), stored, e.EntryCount())
	}
	// The stored lists sit in one slab without the construction's append
	// slack: each list's capacity is its length plus the growth pad.
	slots := 0
	for vin := 0; vin < len(e.In); vin += 2 {
		slots += cap(e.In[vin].Entries()) + cap(e.Out[vin+1].Entries())
	}
	if want := stored + label.ArenaPad*len(e.In); slots != want {
		t.Fatalf("merged shard's %d stored entries sit in %d slots, want %d", stored, slots, want)
	}
	// A write confined to the merged shard expands it.
	if _, err := x.ApplyBatch([]EdgeOp{Ins(1, 0)}, 1); err != nil {
		t.Fatal(err)
	}
	check("intra-shard insert")
	if e := engOf(0); e.Reduced() || e.FrozenArena() != nil {
		t.Fatalf("written shard: reduced %v, frozen %v; want a full labeling of plain slices", e.Reduced(), e.FrozenArena() != nil)
	}
}

// TestLoaderKeepsInconsistentMirrors patches one mirrored entry of a v2
// file: the loader must keep that shard expanded (it cannot derive the
// patched list), answer as before, and write the file back byte for byte.
func TestLoaderKeepsInconsistentMirrors(t *testing.T) {
	g := testgraphs.Figure2()
	x, _ := BuildSharded(g.Clone(), Options{})
	var file bytes.Buffer
	if _, err := x.WriteTo(&file); err != nil {
		t.Fatal(err)
	}
	// Patch the count of Lin(v7_out)'s first entry in the one shard
	// (every Figure 2 vertex is cyclic, so shard-local ids are global
	// ids); the list's bytes, length prefix included, occur once.
	x.subgraph(x.shards[0])
	eng := x.shards[0].idx.eng
	eng.Expand()
	lst := eng.In[bipartite.OutVertex(6)].Entries()
	rec := binary.LittleEndian.AppendUint32(nil, uint32(len(lst)))
	for _, e := range lst {
		rec = binary.LittleEndian.AppendUint64(rec, uint64(e))
	}
	if bytes.Count(file.Bytes(), rec) != 1 {
		t.Fatalf("Lin(v7_out) record %x is not unique in the file", rec)
	}
	patched := bytes.Clone(rec)
	first := lst[0]
	binary.LittleEndian.PutUint64(patched[4:], uint64(bitpack.Pack(first.Hub(), first.Dist(), first.Count()+1)))
	data := bytes.Replace(file.Bytes(), rec, patched, 1)

	loaded, err := Read(bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	ls := loaded.(*Sharded)
	if e := ls.shards[0].idx.eng; e.Reduced() || e.Arena() == nil {
		t.Fatalf("a shard with an inconsistent mirror loaded reduced %v, in the CSR arena %v; want a full arena", e.Reduced(), e.Arena() != nil)
	}
	for v := 0; v < g.NumVertices(); v++ {
		wl, wc := x.CycleCount(v)
		if l, c := ls.CycleCount(v); l != wl || c != wc {
			t.Fatalf("SCCnt(%d) = (%d,%d), want (%d,%d)", v, l, c, wl, wc)
		}
	}
	if ls.ResidentBytes() != ls.Bytes() {
		t.Fatalf("expanded shard holds %d bytes, logical %d", ls.ResidentBytes(), ls.Bytes())
	}
	var again bytes.Buffer
	if _, err := ls.WriteTo(&again); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(again.Bytes(), data) {
		t.Fatal("re-written file differs from the loaded one")
	}

	// The unpatched file loads reduced and writes back byte for byte too.
	clean, err := Read(bytes.NewReader(file.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	cs := clean.(*Sharded)
	if !cs.shards[0].idx.eng.Reduced() || cs.ResidentBytes() >= cs.Bytes() {
		t.Fatalf("clean load: reduced=%v resident %d logical %d", cs.shards[0].idx.eng.Reduced(), cs.ResidentBytes(), cs.Bytes())
	}
	// A clean load reduces before it freezes: no CSR arena is packed.
	if e := cs.shards[0].idx.eng; e.Arena() != nil || e.FrozenArena() == nil {
		t.Fatalf("clean load: CSR arena %v, frozen store %v; want only the frozen store", e.Arena() != nil, e.FrozenArena() != nil)
	}
	again.Reset()
	if _, err := cs.WriteTo(&again); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(again.Bytes(), file.Bytes()) {
		t.Fatal("re-written clean file differs from the loaded one")
	}
}

// reducedV2Digest is the sha256 of the v2 snapshot of a fresh sharded
// build of randomGraph(seed 20261017, 150, 2). The v2 bytes do not depend
// on how a shard stores its labels: a CSR arena and the frozen store
// write the same file.
const reducedV2Digest = "a5d684c93b71272c9f07d854012f40b90aebd53a25c007d6048ebdcaaa542fcd"

// A reduced shard's frozen store is not label compression: a fresh build
// and a v1 file re-sharded for serving write v2 with the same bytes as
// before the store was frozen, while a compressed index still writes v3
// or v4 holding all four lists of every couple — including when a shard
// it writes is only reduced-frozen.
func TestFrozenReducedIsNotCompressed(t *testing.T) {
	base := randomGraph(rand.New(rand.NewSource(20261017)), 150, 2)
	write := func(w interface {
		WriteTo(io.Writer) (int64, error)
	}) []byte {
		var buf bytes.Buffer
		if _, err := w.WriteTo(&buf); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	v2 := func(name string, data []byte) {
		sum := sha256.Sum256(data)
		if !bytes.HasPrefix(data, []byte(shardedMagic)) || hex.EncodeToString(sum[:]) != reducedV2Digest {
			t.Errorf("%s: wrote %q with sha256 %x, want the v2 bytes %s", name, data[:8], sum, reducedV2Digest)
		}
	}

	mono, _ := Build(base.Clone(), order.ByDegree(base), Options{})
	loaded, err := Read(bytes.NewReader(write(mono)))
	if err != nil {
		t.Fatal(err)
	}
	eng := loaded.(*Index).Engine()
	if !eng.Reduced() || eng.FrozenArena() == nil || eng.Compressed() || eng.CompressedBytes() != 0 {
		t.Fatalf("v1 load: reduced %v, frozen %v, compressed %v (%d B)",
			eng.Reduced(), eng.FrozenArena() != nil, eng.Compressed(), eng.CompressedBytes())
	}
	resharded := AsSharded(loaded)
	if resharded.opts.CompressLabels || resharded.CompressedBytes() != 0 {
		t.Fatalf("a re-sharded v1 file turned compressed (%d B)", resharded.CompressedBytes())
	}
	v2("re-sharded v1", write(resharded))
	fresh, _ := BuildSharded(base.Clone(), Options{})
	v2("fresh build", write(fresh))

	// The v3 writer must compress a reduced-frozen shard in full, not
	// copy its frozen store of the two stored lists.
	forced, _ := BuildSharded(base.Clone(), Options{})
	forced.opts.CompressLabels = true
	built, _ := BuildSharded(base.Clone(), Options{CompressLabels: true})
	if a, b := write(forced), write(built); !bytes.HasPrefix(a, []byte(v3Magic)) || !bytes.Equal(a, b) {
		t.Fatalf("v3 of reduced-frozen shards (%q, %d B) differs from a compressed build's (%d B)", a[:8], len(a), len(b))
	}
	coverage, _ := BuildSharded(base.Clone(), Options{CompressLabels: true, Order: order.Coverage})
	for name, c := range map[string]struct {
		x     *Sharded
		magic string
	}{"v3": {built, v3Magic}, "v4": {coverage, v4Magic}} {
		data := write(c.x)
		if !bytes.HasPrefix(data, []byte(c.magic)) {
			t.Fatalf("%s: wrote %q", name, data[:8])
		}
		back, err := Read(bytes.NewReader(data))
		if err != nil {
			t.Fatal(err)
		}
		for i, sh := range back.(*Sharded).liveShards() {
			e := sh.idx.eng
			if !e.Compressed() || e.FrozenArena().Entries() != e.EntryCount() {
				t.Fatalf("%s shard %d: compressed %v, arena holds %d of %d entries",
					name, i, e.Compressed(), e.FrozenArena().Entries(), e.EntryCount())
			}
		}
		if got, want := back.(*Sharded).EntryCount(), c.x.EntryCount(); got != want {
			t.Fatalf("%s: reloaded %d entries, wrote %d", name, got, want)
		}
	}
}
