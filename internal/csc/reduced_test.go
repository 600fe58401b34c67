package csc

import (
	"bytes"
	"encoding/binary"
	"math/rand"
	"testing"

	"repro/internal/bipartite"
	"repro/internal/bitpack"
	"repro/internal/graph"
	"repro/internal/order"
	"repro/internal/pll"
	"repro/internal/testgraphs"
)

// TestReducedBuildMatchesGeneric pins the reduced construction to the
// generic engine: a fresh skipping build stores only Lin(v_in) and
// Lout(v_out), counts the full labeling, and expands to the generic
// construction's labels entry for entry — on the conformance corpus, 40
// random graphs, and one 300-vertex single-SCC graph.
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
	for _, c := range cases {
		ord := order.ByDegree(c.g)
		skip, _ := Build(c.g.Clone(), ord, Options{})
		generic, _ := Build(c.g.Clone(), ord, Options{GenericConstruction: true})
		es, eg := skip.Engine(), generic.Engine()
		if !es.Reduced() {
			t.Fatalf("%s: skipping build is not reduced", c.name)
		}
		stored := 0
		for b := 0; b < 2*c.g.NumVertices(); b++ {
			stored += es.In[b].Len() + es.Out[b].Len()
		}
		if stored != skip.ReducedEntryCount() {
			t.Fatalf("%s: stores %d entries, want ReducedEntryCount %d", c.name, stored, skip.ReducedEntryCount())
		}
		if skip.EntryCount() != generic.EntryCount() {
			t.Fatalf("%s: reduced build counts %d entries, generic %d", c.name, skip.EntryCount(), generic.EntryCount())
		}
		es.Expand()
		for b := 0; b < 2*c.g.NumVertices(); b++ {
			if !entriesEqual(es.In[b].Entries(), eg.In[b].Entries()) {
				t.Fatalf("%s: Lin(%d): expanded %v != generic %v", c.name, b, es.In[b].Entries(), eg.In[b].Entries())
			}
			if !entriesEqual(es.Out[b].Entries(), eg.Out[b].Entries()) {
				t.Fatalf("%s: Lout(%d): expanded %v != generic %v", c.name, b, es.Out[b].Entries(), eg.Out[b].Entries())
			}
		}
		if skip.EntryCount() != generic.EntryCount() {
			t.Fatalf("%s: expansion changed the entry count to %d", c.name, skip.EntryCount())
		}
	}
}

// assertReduceExpandIdentity checks, on every live shard, that expanding,
// reducing and re-expanding leaves the logical labeling — its v1 bytes,
// which carry every list — and the entry count unchanged, that a reduced
// shard reduces again, and that ResidentBytes matches the entries the
// lists hold. Each shard ends in the state it started in.
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
		stored := 0
		for v := range e.In {
			stored += e.In[v].Len() + e.Out[v].Len()
		}
		if e.ResidentBytes() != 8*stored {
			t.Fatalf("shard %d: ResidentBytes %d, lists hold %d entries", slot, e.ResidentBytes(), stored)
		}
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
	if ls.shards[0].idx.eng.Reduced() {
		t.Fatal("a shard with an inconsistent mirror loaded reduced")
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
	again.Reset()
	if _, err := cs.WriteTo(&again); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(again.Bytes(), file.Bytes()) {
		t.Fatal("re-written clean file differs from the loaded one")
	}
}
