package csc

import (
	"bytes"
	"os"
	"path/filepath"
	"slices"
	"testing"

	"repro/internal/graph"
	"repro/internal/label"
	"repro/internal/partition"
	"repro/internal/testgraphs"
)

// assertCountersAgree compares two Counter forms over every vertex and a
// spread of bounds — the byte-identical-answers contract between the
// built, loaded, and mmap'd index forms.
func assertCountersAgree(t *testing.T, ctx string, a, b Counter, n int) {
	t.Helper()
	for v := 0; v < n; v++ {
		al, ac := a.CycleCount(v)
		bl, bc := b.CycleCount(v)
		if al != bl || ac != bc {
			t.Fatalf("%s: CycleCount(%d) = (%d,%d) vs (%d,%d)", ctx, v, al, ac, bl, bc)
		}
		for _, maxLen := range []int{1, 2, 3, al, al + 1, 50} {
			al2, ac2 := boundedRead(a, v, maxLen)
			bl2, bc2 := boundedRead(b, v, maxLen)
			if al2 != bl2 || ac2 != bc2 {
				t.Fatalf("%s: CycleCountBounded(%d,%d) = (%d,%d) vs (%d,%d)",
					ctx, v, maxLen, al2, ac2, bl2, bc2)
			}
		}
	}
}

// boundedRead is CycleCountBounded on either index form (the monolithic
// Index serves bounded reads only as a shard, through read).
func boundedRead(c Counter, v, maxLen int) (int, uint64) {
	if x, ok := c.(*Index); ok {
		return x.read(v, maxLen, true)
	}
	return c.(*Sharded).CycleCountBounded(v, maxLen)
}

// readFixture returns a file of testdata. The v3/v4 files there were
// written by the retired v3/v4 writer (testdata/README.md).
func readFixture(tb testing.TB, name string) []byte {
	tb.Helper()
	data, err := os.ReadFile(filepath.Join("testdata", name))
	if err != nil {
		tb.Fatal(err)
	}
	return data
}

// writeV2 serializes x and returns the bytes.
func writeV2(t *testing.T, x Counter) []byte {
	t.Helper()
	var buf bytes.Buffer
	if _, err := x.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	if !bytes.HasPrefix(buf.Bytes(), []byte(shardedMagic)) {
		if _, mono := x.(*Index); !mono {
			t.Fatalf("a sharded index wrote magic %q, want v2", buf.Bytes()[:8])
		}
	}
	return buf.Bytes()
}

// v3 files must load through the strict stream reader, the lazy mmap
// reader and the plain file reader with the answers of a fresh build of
// their graph, serve every shard from its file arena, and write back as
// exactly the fresh build's v2 bytes.
func TestV3RoundTrip(t *testing.T) {
	for _, name := range []string{"v3_figure2.csc", "v3_dag_heavy.csc", "v3_many_small.csc", "v3_giant_scc.csc"} {
		raw := readFixture(t, name)
		if string(raw[:8]) != v3Magic {
			t.Fatalf("%s: magic %q, want v3", name, raw[:8])
		}
		got, err := Read(bytes.NewReader(raw))
		if err != nil {
			t.Fatalf("%s: Read(v3): %v", name, err)
		}
		sx, ok := got.(*Sharded)
		if !ok {
			t.Fatalf("%s: v3 loaded as %T", name, got)
		}
		n := sx.Graph().NumVertices()
		fresh, _ := BuildSharded(sx.Graph().Clone(), Options{Workers: 1})
		assertCountersAgree(t, name+" stream reload", fresh, got, n)
		for i, sh := range sx.liveShards() {
			if e := sh.idx.eng; !e.Compressed() || !e.Lean() || e.G != nil || sh.idx.g != nil {
				t.Fatalf("%s shard %d: compressed %v, lean %v, holds Gb %v, subgraph %v; want a file arena alone",
					name, i, e.Compressed(), e.Lean(), e.G != nil, sh.idx.g != nil)
			}
		}
		if !bytes.Equal(writeV2(t, sx), writeV2(t, fresh)) {
			t.Fatalf("%s: v3 load does not write the fresh build's v2 bytes", name)
		}

		path := filepath.Join("testdata", name)
		for _, mmap := range []bool{true, false} {
			c, err := ReadFile(path, mmap)
			if err != nil {
				t.Fatalf("%s: ReadFile(mmap=%v): %v", name, mmap, err)
			}
			assertCountersAgree(t, name+" file reload", fresh, c, n)
		}
	}
}

// ReadFile with mmap on a non-v3 file must still load it (strict parse
// of the mapped image).
func TestReadFileMmapFallsBackOnV2(t *testing.T) {
	g := testgraphs.ManySmallSCC(4, 3, 20, 12)
	x, _ := BuildSharded(g, Options{Workers: 1})
	var buf bytes.Buffer
	if _, err := x.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "v2.csc")
	if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	got, err := ReadFile(path, true)
	if err != nil {
		t.Fatalf("ReadFile(v2, mmap): %v", err)
	}
	assertCountersAgree(t, "v2 via mmap path", x, got, g.NumVertices())
}

// A shard serving a v3/v4 file arena decodes it at its first write and
// never writes the file. Stream and mmap loads of a fixture take
// inserts and deletes — one merge and one split among them — and answer
// like the BFS oracle after each op; afterwards the file and the arenas
// still served hold the bytes they held, a shard written in place holds
// 8 B per entry, and the v2 re-serialization reloads to the same
// answers, hub orders and order tags.
func TestCompressedMatchesUncompressed(t *testing.T) {
	for _, name := range []string{"v3_many_small.csc", "v4_many_small_coverage.csc"} {
		path := filepath.Join("testdata", name)
		for _, mmap := range []bool{false, true} {
			ctx := name + map[bool]string{false: " stream", true: " mmap"}[mmap]
			c, err := ReadFile(path, mmap)
			if err != nil {
				t.Fatalf("%s: %v", ctx, err)
			}
			x := c.(*Sharded)
			mirror := x.Graph().Clone()
			file := readFixture(t, name)
			assertDirectory(t, ctx+" load", x)
			assertOracle(t, ctx+" load", x)

			// Every shard serves its arena; keep a copy of each arena's
			// bytes to compare after the writes.
			type arena struct {
				f    *label.Frozen
				want []byte
			}
			var arenas []arena
			for i, sh := range x.liveShards() {
				e := sh.idx.eng
				if !e.Compressed() || e.CompressedBytes() == 0 || e.FrozenArena().Entries() != e.EntryCount() {
					t.Fatalf("%s shard %d: compressed %v, arena holds %d of %d entries",
						ctx, i, e.Compressed(), e.FrozenArena().Entries(), e.EntryCount())
				}
				off, blob := e.FrozenArena().Raw()
				arenas = append(arenas, arena{e.FrozenArena(), slices.Concat(off, blob)})
			}
			live := x.liveShards()
			if len(live) < 3 {
				t.Fatalf("%s: %d shards, want at least 3", ctx, len(live))
			}
			a, b := int(live[0].verts[0]), int(live[1].verts[0])
			if mirror.HasEdge(a, b) || mirror.HasEdge(b, a) {
				t.Fatalf("%s: shards 0 and 1 already joined by an edge", ctx)
			}
			// A within-shard insert and delete on the third shard: the
			// incremental update path, which decodes its arena in place.
			third := live[2]
			u, w := int(third.verts[0]), -1
			for _, v := range third.verts[1:] {
				if !mirror.HasEdge(u, int(v)) {
					w = int(v)
					break
				}
			}
			if w < 0 {
				t.Fatalf("%s: the third shard is complete", ctx)
			}
			ops := []struct {
				ins  bool
				u, v int
			}{
				{true, u, w}, {true, a, b}, {true, b, a}, // the last merges
				{false, u, w}, {false, b, a}, {false, a, b}, // one of these splits
			}
			shards := x.NumShards()
			merged, split := false, false
			for i, op := range ops {
				var err error
				if op.ins {
					_, err = x.InsertEdge(op.u, op.v)
					_ = mirror.AddEdge(op.u, op.v)
				} else {
					_, err = x.DeleteEdge(op.u, op.v)
					_ = mirror.RemoveEdge(op.u, op.v)
				}
				if err != nil {
					t.Fatalf("%s op %d: %v", ctx, i, err)
				}
				if got, want := x.NumShards(), len(partition.SCC(mirror).NonTrivial()); got != want {
					t.Fatalf("%s op %d: %d shards, want %d", ctx, i, got, want)
				}
				merged = merged || x.NumShards() < shards
				split = split || x.NumShards() > shards
				shards = x.NumShards()
				if !graph.Equal(x.Graph(), mirror) {
					t.Fatalf("%s op %d: served graph drifted from the mirror", ctx, i)
				}
				assertOracle(t, ctx, x)
			}
			if !merged || !split {
				t.Fatalf("%s: merged %v, split %v; want both", ctx, merged, split)
			}
			assertDirectory(t, ctx+" written", x)

			if !bytes.Equal(readFixture(t, name), file) {
				t.Fatalf("%s: the file changed", ctx)
			}
			for i, ar := range arenas {
				if off, blob := ar.f.Raw(); !bytes.Equal(slices.Concat(off, blob), ar.want) {
					t.Fatalf("%s: arena %d changed under the writes", ctx, i)
				}
			}
			e := x.shards[x.ShardOf(u)].idx.eng
			if e.Compressed() || e.Lean() || e.ResidentBytes() != 8*e.EntryCount() {
				t.Fatalf("%s: written shard compressed %v, lean %v, %d B for %d entries; want 8 B per entry",
					ctx, e.Compressed(), e.Lean(), e.ResidentBytes(), e.EntryCount())
			}
			if x.CompressedBytes() == 0 {
				t.Fatalf("%s: no shard serves its file arena any more", ctx)
			}

			back, err := Read(bytes.NewReader(writeV2(t, x)))
			if err != nil {
				t.Fatalf("%s: v2 reload: %v", ctx, err)
			}
			y := back.(*Sharded)
			assertCountersAgree(t, ctx+" v2 reload", x, y, mirror.NumVertices())
			if y.opts.Order != x.opts.Order {
				t.Fatalf("%s: v2 reload strategy %s, want %s", ctx, y.opts.Order, x.opts.Order)
			}
			for i, sh := range x.liveShards() {
				ysh := y.liveShards()[i]
				if ysh.strat != sh.strat || !slices.Equal(ysh.verts, sh.verts) {
					t.Fatalf("%s: v2 reload shard %d: tag %s members %v, want %s %v", ctx, i, ysh.strat, ysh.verts, sh.strat, sh.verts)
				}
				o, yo := sh.idx.eng.Ord, ysh.idx.eng.Ord
				for r := 0; r < o.Len(); r++ {
					if o.VertexAt(r) != yo.VertexAt(r) {
						t.Fatalf("%s: v2 reload shard %d order differs at rank %d", ctx, i, r)
					}
				}
			}
		}
	}
}
