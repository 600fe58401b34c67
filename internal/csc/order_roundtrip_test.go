package csc

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/graph"
	"repro/internal/order"
	"repro/internal/testgraphs"
)

// orderedStrategies is every strategy a build can be configured with
// (Hits is provenance-only: it tags re-ranked shards, never a build).
func orderedStrategies() []order.Strategy {
	return []order.Strategy{order.Degree, order.ID, order.Random, order.Coverage}
}

// A non-degree build must write the v4 magic and round-trip its ordering
// provenance exactly: the global strategy, every per-shard strategy tag,
// every per-shard hub order, and the answers — through both the strict
// stream reader and the lazy mmap reader — then re-serialize
// byte-identically.
func TestV4RoundTrip(t *testing.T) {
	g := testgraphs.ManySmallSCC(6, 4, 30, 10)
	n := g.NumVertices()
	for _, strat := range []order.Strategy{order.Random, order.Coverage} {
		x, _ := BuildSharded(g.Clone(), Options{Workers: 1, CompressLabels: true, Order: strat, OrderSeed: 5})

		var buf bytes.Buffer
		if _, err := x.WriteTo(&buf); err != nil {
			t.Fatalf("%s: WriteTo: %v", strat, err)
		}
		raw := buf.Bytes()
		if string(raw[:8]) != v4Magic {
			t.Fatalf("%s: non-degree build wrote magic %q, want v4", strat, raw[:8])
		}

		got, err := Read(bytes.NewReader(raw))
		if err != nil {
			t.Fatalf("%s: Read(v4): %v", strat, err)
		}
		sx := got.(*Sharded)
		if sx.opts.Order != strat {
			t.Fatalf("%s: global strategy loaded as %s", strat, sx.opts.Order)
		}
		for _, st := range sx.ShardStats() {
			if st.Order != strat {
				t.Fatalf("%s: shard %d strategy loaded as %s", strat, st.Slot, st.Order)
			}
		}
		for si, sh := range x.liveShards() {
			lsh := sx.liveShards()[si]
			a, b := sh.idx.eng.Ord, lsh.idx.eng.Ord
			if a.Len() != b.Len() {
				t.Fatalf("%s: shard %d order length differs", strat, si)
			}
			for r := 0; r < a.Len(); r++ {
				if a.VertexAt(r) != b.VertexAt(r) {
					t.Fatalf("%s: shard %d order differs at rank %d", strat, si, r)
				}
			}
		}
		assertCountersAgree(t, "v4 stream reload", x, got, n)

		var buf2 bytes.Buffer
		if _, err := sx.WriteTo(&buf2); err != nil {
			t.Fatalf("%s: re-serialize: %v", strat, err)
		}
		if !bytes.Equal(raw, buf2.Bytes()) {
			t.Fatalf("%s: v4 re-serialization not byte-identical", strat)
		}

		path := filepath.Join(t.TempDir(), "index.csc")
		if err := os.WriteFile(path, raw, 0o644); err != nil {
			t.Fatal(err)
		}
		mm, err := ReadFile(path, true)
		if err != nil {
			t.Fatalf("%s: ReadFile(mmap): %v", strat, err)
		}
		assertCountersAgree(t, "v4 mmap reload", x, mm, n)
		if ms := mm.(*Sharded); ms.opts.Order != strat {
			t.Fatalf("%s: mmap load lost strategy (got %s)", strat, ms.opts.Order)
		}
	}
}

// A degree build carries no provenance worth a format bump: it must keep
// emitting byte-stable v3, so files written before v4 existed and the
// golden fixtures stay valid.
func TestDegreeBuildStaysV3(t *testing.T) {
	g := testgraphs.ManySmallSCC(6, 4, 30, 10)
	x, _ := BuildSharded(g, Options{Workers: 1, CompressLabels: true})
	var buf bytes.Buffer
	if _, err := x.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	if string(buf.Bytes()[:8]) != v3Magic {
		t.Fatalf("degree build wrote magic %q, want v3", buf.Bytes()[:8])
	}
}

// The hub orders ride in v2's embedded v1 blobs, and a non-degree build
// tags its strategy globally and per shard, so a v2 round-trip keeps
// the orders, their tags and the answers.
func TestV2RoundTripKeepsOrders(t *testing.T) {
	g := testgraphs.ManySmallSCC(6, 4, 30, 10)
	x, _ := BuildSharded(g.Clone(), Options{Workers: 1, Order: order.Coverage, OrderSeed: 5})
	var buf bytes.Buffer
	if _, err := x.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	if string(buf.Bytes()[:8]) != shardedMagic {
		t.Fatalf("uncompressed build wrote magic %q, want v2", buf.Bytes()[:8])
	}
	got, err := Read(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	sx := got.(*Sharded)
	if sx.opts.Order != order.Coverage {
		t.Fatalf("global strategy loaded as %s", sx.opts.Order)
	}
	for si, sh := range x.liveShards() {
		lsh := sx.liveShards()[si]
		if lsh.strat != order.Coverage {
			t.Fatalf("shard %d strategy loaded as %s", si, lsh.strat)
		}
		a, b := sh.idx.eng.Ord, lsh.idx.eng.Ord
		for r := 0; r < a.Len(); r++ {
			if a.VertexAt(r) != b.VertexAt(r) {
				t.Fatalf("shard %d order differs at rank %d after v2 round-trip", si, r)
			}
		}
	}
	assertCountersAgree(t, "v2 reload", x, got, g.NumVertices())
}

// Two builds under the same options must serialize byte-identically for
// every strategy — the whole-index form of the tie-breaking determinism
// the order package promises.
func TestRepeatedBuildsByteIdentical(t *testing.T) {
	g := testgraphs.DAGHeavy(150, 450, 4, 9)
	for _, strat := range orderedStrategies() {
		opts := Options{Workers: 1, CompressLabels: true, Order: strat, OrderSeed: 11}
		var a, b bytes.Buffer
		x1, _ := BuildSharded(g.Clone(), opts)
		if _, err := x1.WriteTo(&a); err != nil {
			t.Fatal(err)
		}
		x2, _ := BuildSharded(g.Clone(), opts)
		if _, err := x2.WriteTo(&b); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(a.Bytes(), b.Bytes()) {
			t.Fatalf("%s: repeated builds serialize differently (%d vs %d bytes)",
				strat, a.Len(), b.Len())
		}
	}
}

// twoTori is two disjoint 6×6 directed tori with one edge from the
// second to the first, so adding the reverse edge (0, 36) merges them.
// Degree order falls back to id order on a torus; coverage does not.
func twoTori() *graph.Digraph {
	t := testgraphs.Torus(6, 6)
	n := t.NumVertices()
	g := graph.New(2 * n)
	for u := 0; u < n; u++ {
		for _, v := range t.Out(u) {
			_ = g.AddEdge(u, int(v))
			_ = g.AddEdge(n+u, n+int(v))
		}
	}
	_ = g.AddEdge(n, 0)
	return g
}

// A restart from a v2 snapshot keeps the build's order: the merge that
// follows it rebuilds under coverage, tags the shard coverage, and
// stores exactly the entries of a fresh coverage build of the merged
// graph. Without the order tags the reload served degree.
func TestV2RestartKeepsOrderForRebuilds(t *testing.T) {
	g := twoTori()
	x, _ := BuildSharded(g.Clone(), Options{Workers: 1, Order: order.Coverage})
	var buf bytes.Buffer
	if _, err := x.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	if string(buf.Bytes()[:8]) != shardedMagic {
		t.Fatalf("uncompressed build wrote magic %q, want v2", buf.Bytes()[:8])
	}
	got, err := Read(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	sx := got.(*Sharded)
	if _, err := sx.InsertEdge(0, 36); err != nil {
		t.Fatal(err)
	}
	_ = g.AddEdge(0, 36)
	st := sx.ShardStats()
	if len(st) != 1 || st[0].Order != order.Coverage {
		t.Fatalf("merged shards %+v, want one coverage shard", st)
	}
	fresh, _ := BuildSharded(g.Clone(), Options{Workers: 1, Order: order.Coverage})
	degree, _ := BuildSharded(g.Clone(), Options{Workers: 1})
	if fresh.EntryCount() == degree.EntryCount() {
		t.Fatalf("coverage and degree both store %d entries: the graph cannot tell the orders apart", fresh.EntryCount())
	}
	if sx.EntryCount() != fresh.EntryCount() {
		t.Fatalf("merged shard stores %d entries, a fresh coverage build %d (degree %d)",
			sx.EntryCount(), fresh.EntryCount(), degree.EntryCount())
	}
	assertCountersAgree(t, "merged after restart", fresh, sx, g.NumVertices())
}

// Wire value 3 once tagged betweenness shards. The strategy is gone but
// the value stays reserved: a v4 or v2 stream carrying it must load,
// keep the tag, answer from the stored order, and write the same bytes
// back.
func TestRetiredOrderTagLoads(t *testing.T) {
	retired := order.Strategy(3)
	g := testgraphs.ManySmallSCC(6, 4, 30, 10)
	for _, compress := range []bool{true, false} {
		x, _ := BuildSharded(g.Clone(), Options{Workers: 1, CompressLabels: compress, Order: order.Coverage, OrderSeed: 5})
		x.liveShards()[0].strat = retired
		var buf bytes.Buffer
		if _, err := x.WriteTo(&buf); err != nil {
			t.Fatal(err)
		}
		if magic := string(buf.Bytes()[:8]); magic != v4Magic && magic != shardedMagic {
			t.Fatalf("wrote magic %q, want v4 or v2", magic)
		}
		got, err := Read(bytes.NewReader(buf.Bytes()))
		if err != nil {
			t.Fatalf("compress=%v: stream tagged 3 rejected: %v", compress, err)
		}
		sx := got.(*Sharded)
		if tag := sx.ShardStats()[0].Order; tag != retired {
			t.Fatalf("compress=%v: shard 0 tag loaded as %s", compress, tag)
		}
		assertCountersAgree(t, "tag-3 reload", x, sx, g.NumVertices())
		var again bytes.Buffer
		if _, err := sx.WriteTo(&again); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(buf.Bytes(), again.Bytes()) {
			t.Fatalf("compress=%v: tag-3 stream not rewritten byte-identical", compress)
		}
	}
}
