package csc

import (
	"runtime"
	"testing"
	"unsafe"

	"repro/internal/label"
	"repro/internal/testgraphs"
)

// deletePairs builds one GiantSCC(2000, 8000) shard and picks its first k
// chords: a Hamiltonian ring runs through every vertex, so deleting any
// chord leaves the tail reaching its head and the shard one component.
func deletePairs(tb testing.TB, k int) (*Sharded, [][2]int) {
	tb.Helper()
	const n = 2000
	g := testgraphs.GiantSCC(n, 8000, 11)
	var chords [][2]int
	for u := 0; u < n && len(chords) < k; u++ {
		for _, v := range g.Out(u) {
			if int(v) != (u+1)%n && len(chords) < k {
				chords = append(chords, [2]int{u, int(v)})
			}
		}
	}
	x, _ := BuildSharded(g, Options{Workers: 1})
	if len(x.liveShards()) != 1 {
		tb.Fatalf("GiantSCC built %d shards, want 1", len(x.liveShards()))
	}
	return x, chords
}

// deletePair deletes one chord and re-inserts it through the batch write
// path, deriving each batch's dirty set as the engine does.
func deletePair(tb testing.TB, x *Sharded, e [2]int) {
	for _, op := range []EdgeOp{Del(e[0], e[1]), Ins(e[0], e[1])} {
		st, err := x.ApplyBatch([]EdgeOp{op}, 1)
		if err != nil {
			tb.Fatal(err)
		}
		DirtyVertices(st)
	}
}

func BenchmarkShardDeletePair(b *testing.B) {
	x, chords := deletePairs(b, 64)
	deletePair(b, x, chords[0]) // the first label write decodes the frozen store
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		deletePair(b, x, chords[i%len(chords)])
	}
}

// writePathBytesPerGbVertex bounds what one delete+re-insert pair may
// allocate per Gb vertex of the shard it repairs. The write path measured
// ~31 B per Gb vertex here (label list growth, the touched-owner lists
// and the dirty set); the bound is 2x that. Whole-shard maps,
// repartitions and per-delete distance arrays cost ~7,850 B per Gb
// vertex on this shard.
const writePathBytesPerGbVertex = 64

// TestWritePathAllocBudget gates the batch write path's allocation per
// delete+re-insert pair of a non-bridge edge, linear in the shard's Gb
// vertex count.
func TestWritePathAllocBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector inflates allocation counts")
	}
	x, chords := deletePairs(t, 9)
	deletePair(t, x, chords[0]) // the first label write decodes the frozen store
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for _, e := range chords[1:] {
		deletePair(t, x, e)
	}
	runtime.ReadMemStats(&after)
	perPair := float64(after.TotalAlloc-before.TotalAlloc) / float64(len(chords)-1)
	gbVertices := 2 * x.g.NumVertices()
	budget := float64(writePathBytesPerGbVertex * gbVertices)
	t.Logf("%.0f B per pair over %d Gb vertices (%.1f B/vertex; budget %.0f B)",
		perPair, gbVertices, perPair/float64(gbVertices), budget)
	if perPair > budget {
		t.Errorf("a delete+re-insert pair allocates %.0f B, budget %.0f B", perPair, budget)
	}
}

// TestExpandAllocatesOnlyDerivedLists pins what a reduced shard's first
// label write allocates to expand it: one slab of exactly the full
// labeling — every entry plus one growth pad per list — decoded from the
// compact frozen store, the list headers and the Gb conversion a lean
// shard does without, and no second 8-byte copy of the stored lists. A
// collection that runs while the expansion holds two copies of the
// shard's labels sets the next heap goal from both.
func TestExpandAllocatesOnlyDerivedLists(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector inflates allocation counts")
	}
	x, _ := deletePairs(t, 0)
	sh := x.liveShards()[0]
	e := sh.idx.eng
	if !e.Lean() || e.G != nil || sh.idx.g != nil {
		t.Fatal("a fresh build is not lean")
	}
	x.subgraph(sh) // what the shard's first write takes first
	entries, frozen, n := e.EntryCount(), e.FrozenArena().Bytes(), e.Ord.Len()
	slab := 8 * (entries + label.ArenaPad*2*n)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	e.Expand()
	runtime.ReadMemStats(&after)
	got := int(after.TotalAlloc - before.TotalAlloc)
	// bipartite.Convert allocates its edge pairs and a fromPairs stamp
	// array besides the graph's own arrays: less than their size again.
	headers, gb := 2*n*int(unsafe.Sizeof(label.List{})), 2*e.G.Bytes()
	want := slab + headers + gb
	t.Logf("expanding %d entries from a %d B frozen store allocated %d B (slab %d B, headers %d B, Gb at most %d B)",
		entries, frozen, got, slab, headers, gb)
	if e.Reduced() || e.FrozenArena() != nil || e.ResidentBytes() != 8*e.EntryCount() {
		t.Fatalf("after Expand: reduced %v, resident %d B for %d entries", e.Reduced(), e.ResidentBytes(), e.EntryCount())
	}
	if slack := 16 << 10; got > want+slack { // the slab rounds up to whole pages
		t.Errorf("Expand allocated %d B, want at most the full labeling's slab, headers and Gb, %d B (+%d)", got, want, slack)
	}
}

// TestThawAllocatesOnlyStoredLists pins what a lean shard's first
// couple-form write allocates to decode its frozen store
// (pll.Index.Thaw): one slab of exactly the stored lists — their entries
// plus one growth pad per list — and the list headers, and neither a Gb
// conversion nor a mirrored list.
func TestThawAllocatesOnlyStoredLists(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector inflates allocation counts")
	}
	x, _ := deletePairs(t, 0)
	sh := x.liveShards()[0]
	e := sh.idx.eng
	g := x.subgraph(sh) // what the shard's first write takes first
	stored, frozen, n := e.StoredEntries(), e.FrozenArena().Bytes(), e.Ord.Len()
	slab := 8 * (stored + label.ArenaPad*n)
	headers := 2 * n * int(unsafe.Sizeof(label.List{}))
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	e.Thaw(g)
	runtime.ReadMemStats(&after)
	got := int(after.TotalAlloc - before.TotalAlloc)
	t.Logf("decoding %d stored of %d entries from a %d B frozen store allocated %d B (slab %d B, headers %d B)",
		stored, e.EntryCount(), frozen, got, slab, headers)
	if !e.Reduced() || e.Lean() || e.G != nil || e.ResidentBytes() != 8*stored {
		t.Fatalf("after Thaw: reduced %v, lean %v, Gb %v, resident %d B for %d stored entries", e.Reduced(), e.Lean(), e.G != nil, e.ResidentBytes(), stored)
	}
	if slack := 16 << 10; got > slab+headers+slack { // the slab rounds up to whole pages
		t.Errorf("Thaw allocated %d B, want at most the stored lists' slab and the headers, %d B (+%d)", got, slab+headers, slack)
	}
}
