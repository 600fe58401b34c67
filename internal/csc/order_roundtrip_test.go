package csc

import (
	"bytes"
	"fmt"
	"path/filepath"
	"testing"

	"repro/internal/graph"
	"repro/internal/order"
	"repro/internal/testgraphs"
)

// orderedStrategies is every strategy a build can be configured with.
func orderedStrategies() []order.Strategy {
	return []order.Strategy{order.Degree, order.ID, order.Random, order.Coverage}
}

// A v4 file carries ordering provenance: the global strategy, every
// per-shard strategy tag and every per-shard hub order must load
// through both the strict stream reader and the lazy mmap reader, equal
// to a fresh build's under the same strategy and seed, answer like it,
// and write back as exactly its v2 bytes (order tags included).
func TestV4RoundTrip(t *testing.T) {
	for _, strat := range []order.Strategy{order.Random, order.Coverage} {
		name := "v4_many_small_" + strat.String() + ".csc"
		raw := readFixture(t, name)
		if string(raw[:8]) != v4Magic {
			t.Fatalf("%s: magic %q, want v4", name, raw[:8])
		}
		stream, err := Read(bytes.NewReader(raw))
		if err != nil {
			t.Fatalf("%s: Read(v4): %v", name, err)
		}
		mapped, err := ReadFile(filepath.Join("testdata", name), true)
		if err != nil {
			t.Fatalf("%s: ReadFile(mmap): %v", name, err)
		}
		g := stream.Graph()
		x, _ := BuildSharded(g.Clone(), Options{Workers: 1, Order: strat, OrderSeed: 5})
		for _, got := range []Counter{stream, mapped} {
			sx := got.(*Sharded)
			if sx.opts.Order != strat {
				t.Fatalf("%s: global strategy loaded as %s", name, sx.opts.Order)
			}
			for _, st := range sx.ShardStats() {
				if st.Order != strat {
					t.Fatalf("%s: shard %d strategy loaded as %s", name, st.Slot, st.Order)
				}
			}
			for si, sh := range x.liveShards() {
				a, b := sh.idx.eng.Ord, sx.liveShards()[si].idx.eng.Ord
				if a.Len() != b.Len() {
					t.Fatalf("%s: shard %d order length differs", name, si)
				}
				for r := 0; r < a.Len(); r++ {
					if a.VertexAt(r) != b.VertexAt(r) {
						t.Fatalf("%s: shard %d order differs at rank %d", name, si, r)
					}
				}
			}
			assertCountersAgree(t, name+" reload", x, got, g.NumVertices())
			if !bytes.Equal(writeV2(t, got), writeV2(t, x)) {
				t.Fatalf("%s: v4 load does not write the fresh build's v2 bytes", name)
			}
		}
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
		opts := Options{Workers: 1, Order: strat, OrderSeed: 11}
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

// Wire values 3 and 5 once tagged betweenness and hit-re-ranked shards.
// Both strategies are gone but the values stay reserved: a v4 or v2
// stream carrying one must load, keep the tag, answer from the stored
// order, and write it back — a v2 stream byte-identical, a v4 file as
// v2 bytes that reload with the tag and rewrite byte-identical.
func TestRetiredOrderTagLoads(t *testing.T) {
	g := testgraphs.ManySmallSCC(6, 4, 30, 10)
	for _, retired := range []order.Strategy{3, 5} {
		x, _ := BuildSharded(g.Clone(), Options{Workers: 1, Order: order.Coverage, OrderSeed: 5})
		x.liveShards()[0].strat = retired
		v4 := readFixture(t, fmt.Sprintf("v4_retired_tag%d.csc", retired))
		for _, file := range [][]byte{v4, writeV2(t, x)} {
			magic := string(file[:8])
			got, err := Read(bytes.NewReader(file))
			if err != nil {
				t.Fatalf("tag %d %s: stream rejected: %v", retired, magic, err)
			}
			sx := got.(*Sharded)
			if tag := sx.ShardStats()[0].Order; tag != retired {
				t.Fatalf("tag %d %s: shard 0 tag loaded as %s", retired, magic, tag)
			}
			assertCountersAgree(t, "retired-tag reload", x, sx, g.NumVertices())
			v2 := writeV2(t, sx)
			if magic == shardedMagic && !bytes.Equal(file, v2) {
				t.Fatalf("tag %d %s: stream not rewritten byte-identical", retired, magic)
			}
			back, err := Read(bytes.NewReader(v2))
			if err != nil {
				t.Fatal(err)
			}
			if tag := back.(*Sharded).ShardStats()[0].Order; tag != retired {
				t.Fatalf("tag %d %s: the v2 rewrite loads shard 0 as %s", retired, magic, tag)
			}
			if !bytes.Equal(writeV2(t, back), v2) {
				t.Fatalf("tag %d %s: the v2 rewrite does not rewrite byte-identical", retired, magic)
			}
		}
	}
}
