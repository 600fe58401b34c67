package csc

import (
	"bytes"
	"math/rand"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/graph"
	"repro/internal/order"
	"repro/internal/testgraphs"
)

// assertCountersAgree compares two Counter forms over every vertex and a
// spread of bounds — the byte-identical-answers contract between the
// mutable, compressed, and mmap'd index forms.
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

// Compressed indexes must answer byte-identically to uncompressed ones —
// at build time, through dynamic updates (which thaw touched lists), and
// after an explicit refreeze.
func TestCompressedMatchesUncompressed(t *testing.T) {
	graphs := []*graph.Digraph{
		testgraphs.Figure2(), testgraphs.DiamondCycles(), testgraphs.DAG(),
		testgraphs.DAGHeavy(200, 600, 4, 7),
		testgraphs.ManySmallSCC(8, 4, 40, 8),
	}
	r := rand.New(rand.NewSource(41))
	for seed := 0; seed < 6; seed++ {
		graphs = append(graphs, randomGraph(r, 8+r.Intn(16), 2))
	}
	for gi, g := range graphs {
		plain, _ := BuildSharded(g.Clone(), Options{Workers: 1})
		comp, _ := BuildSharded(g.Clone(), Options{Workers: 1, CompressLabels: true})
		if comp.CompressedBytes() == 0 && comp.EntryCount() > 0 {
			t.Fatalf("graph %d: compressed index reports 0 compressed bytes", gi)
		}
		n := g.NumVertices()
		assertCountersAgree(t, "built", plain, comp, n)

		// Monolithic compressed form too.
		mono, _ := Build(g.Clone(), order.ByDegree(g), Options{CompressLabels: true})
		assertCountersAgree(t, "monolithic", plain, mono, n)

		// Updates thaw only what they touch; answers must track exactly.
		for step := 0; step < 12; step++ {
			u, v := r.Intn(n), r.Intn(n)
			if u == v {
				continue
			}
			if plain.Graph().HasEdge(u, v) {
				_, err1 := plain.DeleteEdge(u, v)
				_, err2 := comp.DeleteEdge(u, v)
				if (err1 == nil) != (err2 == nil) {
					t.Fatalf("graph %d step %d: delete divergence", gi, step)
				}
			} else {
				_, err1 := plain.InsertEdge(u, v)
				_, err2 := comp.InsertEdge(u, v)
				if (err1 == nil) != (err2 == nil) {
					t.Fatalf("graph %d step %d: insert divergence", gi, step)
				}
			}
		}
		assertCountersAgree(t, "after updates", plain, comp, n)
		comp.RefreezeLabels()
		assertCountersAgree(t, "after refreeze", plain, comp, n)
	}
}

// The v3 format must round-trip through the strict stream reader and the
// lazy mmap reader with identical answers, and re-serialize
// byte-identically.
func TestV3RoundTrip(t *testing.T) {
	graphs := []*graph.Digraph{
		testgraphs.Figure2(),
		testgraphs.DAGHeavy(120, 360, 4, 9),
		testgraphs.ManySmallSCC(6, 4, 30, 10),
		testgraphs.GiantSCC(24, 90, 11),
	}
	for gi, g := range graphs {
		n := g.NumVertices()
		x, _ := BuildSharded(g.Clone(), Options{Workers: 1, CompressLabels: true})

		var buf bytes.Buffer
		if _, err := x.WriteTo(&buf); err != nil {
			t.Fatalf("graph %d: WriteTo: %v", gi, err)
		}
		raw := buf.Bytes()
		if string(raw[:8]) != v3Magic {
			t.Fatalf("graph %d: compressed index wrote magic %q", gi, raw[:8])
		}

		got, err := Read(bytes.NewReader(raw))
		if err != nil {
			t.Fatalf("graph %d: Read(v3): %v", gi, err)
		}
		sx, ok := got.(*Sharded)
		if !ok {
			t.Fatalf("graph %d: v3 loaded as %T", gi, got)
		}
		if !sx.opts.CompressLabels {
			t.Fatalf("graph %d: v3 load lost CompressLabels", gi)
		}
		assertCountersAgree(t, "stream reload", x, got, n)

		// Re-serialization is byte-stable: nothing thawed on the read side.
		var buf2 bytes.Buffer
		if _, err := sx.WriteTo(&buf2); err != nil {
			t.Fatalf("graph %d: re-serialize: %v", gi, err)
		}
		if !bytes.Equal(raw, buf2.Bytes()) {
			t.Fatalf("graph %d: v3 re-serialization not byte-identical (%d vs %d bytes)",
				gi, len(raw), len(buf2.Bytes()))
		}

		// The mmap path: lazy structural load from a file.
		path := filepath.Join(t.TempDir(), "index.csc")
		if err := os.WriteFile(path, raw, 0o644); err != nil {
			t.Fatal(err)
		}
		mm, err := ReadFile(path, true)
		if err != nil {
			t.Fatalf("graph %d: ReadFile(mmap): %v", gi, err)
		}
		assertCountersAgree(t, "mmap reload", x, mm, n)

		// ReadFile without mmap takes the strict path and agrees too.
		plain, err := ReadFile(path, false)
		if err != nil {
			t.Fatalf("graph %d: ReadFile: %v", gi, err)
		}
		assertCountersAgree(t, "file reload", x, plain, n)

		// A loaded v3 index keeps serving through updates.
	insert:
		for u := 0; u < n; u++ {
			for v := 0; v < n; v++ {
				if u != v && !sx.Graph().HasEdge(u, v) {
					if _, err := sx.InsertEdge(u, v); err != nil {
						t.Fatalf("graph %d: insert on reloaded index: %v", gi, err)
					}
					break insert
				}
			}
		}
		if sx.RefreezeLabels() < 0 {
			t.Fatal("negative refreeze")
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
