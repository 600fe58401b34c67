package csc

import (
	"bytes"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/graph"
	"repro/internal/order"
)

var updateGolden = flag.Bool("update-golden", false, "rewrite the v1 and v2 serialization golden files")

// goldenGraph is the fixed graph behind the golden files: two components
// plus trivial vertices, so the v2 file exercises a multi-shard table.
func goldenGraph() *graph.Digraph {
	g, err := graph.FromEdges(9, [][2]int{
		{0, 1}, {1, 2}, {2, 0}, // triangle
		{4, 5}, {5, 4}, // 2-cycle
		{2, 4}, {5, 6}, {7, 0}, // cross edges and tails
	})
	if err != nil {
		panic(err)
	}
	return g
}

// goldenBytes returns a golden file's bytes: a fresh sequential build's
// serialization for v1 and v2, the checked-in file for v3 and v4, which
// nothing writes any more.
func goldenBytes(t *testing.T, version int) []byte {
	t.Helper()
	g := goldenGraph()
	var buf bytes.Buffer
	switch version {
	case 1:
		x, _ := Build(g, order.ByDegree(g), Options{Workers: 1})
		if _, err := x.WriteTo(&buf); err != nil {
			t.Fatal(err)
		}
	case 2:
		x, _ := BuildSharded(g, Options{Workers: 1})
		if _, err := x.WriteTo(&buf); err != nil {
			t.Fatal(err)
		}
	case 3, 4:
		return readFixture(t, fmt.Sprintf("golden_v%d.csc", version))
	}
	return buf.Bytes()
}

// TestGoldenFiles pins all four on-disk formats: the checked-in v1, v2,
// v3, and v4 files must load through the stream and the mmap readers,
// answer exactly the oracle counts, and re-serialize to pinned bytes:
// v1 and v2 to the stored bytes, which a fresh sequential build must
// also write; v3 to golden_v2's bytes, and v4 to the v2 bytes of a
// fresh coverage build under the seed it was written with. A failure
// means a format changed — bump the magic and keep the old reader
// instead of breaking deployed index files.
func TestGoldenFiles(t *testing.T) {
	g := goldenGraph()
	coverage, _ := BuildSharded(g, Options{Workers: 1, Order: order.Coverage, OrderSeed: 7})
	var coverageV2 bytes.Buffer
	if _, err := coverage.WriteTo(&coverageV2); err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		file    string
		version int
		writes  []byte // nil: the stored bytes
	}{
		{"golden_v1.csc", 1, nil},
		{"golden_v2.csc", 2, nil},
		{"golden_v3.csc", 3, readFixture(t, "golden_v2.csc")},
		{"golden_v4.csc", 4, coverageV2.Bytes()},
	} {
		path := filepath.Join("testdata", tc.file)
		if *updateGolden && tc.version <= 2 {
			if err := os.MkdirAll("testdata", 0o755); err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(path, goldenBytes(t, tc.version), 0o644); err != nil {
				t.Fatal(err)
			}
		}
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatalf("%s: %v (run with -update-golden to create)", tc.file, err)
		}
		if tc.writes == nil {
			if want := goldenBytes(t, tc.version); !bytes.Equal(data, want) {
				t.Fatalf("%s: stored bytes differ from a fresh sequential build's serialization", tc.file)
			}
			tc.writes = data
		}
		loaded, err := Read(bytes.NewReader(data))
		if err != nil {
			t.Fatalf("%s: %v", tc.file, err)
		}
		mapped, err := ReadFile(path, true)
		if err != nil {
			t.Fatalf("%s: mmap load: %v", tc.file, err)
		}
		wantCounts := map[int][2]int{ // vertex → (length, count); others no-cycle
			0: {3, 1}, 1: {3, 1}, 2: {3, 1}, 4: {2, 1}, 5: {2, 1},
		}
		for _, c := range []Counter{loaded, mapped} {
			for v := 0; v < c.Graph().NumVertices(); v++ {
				l, n := c.CycleCount(v)
				if want, ok := wantCounts[v]; ok {
					if l != want[0] || uint64(want[1]) != n {
						t.Fatalf("%s: vertex %d = (%d,%d), want %v", tc.file, v, l, n, want)
					}
				} else if n != 0 {
					t.Fatalf("%s: vertex %d = (%d,%d), want no cycle", tc.file, v, l, n)
				}
			}
			var out bytes.Buffer
			if _, err := c.WriteTo(&out); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(out.Bytes(), tc.writes) {
				t.Fatalf("%s: re-serialization (%d B) differs from the pinned bytes (%d B)", tc.file, out.Len(), len(tc.writes))
			}
		}
	}
}

// FuzzRead throws arbitrary bytes at the format dispatcher: no input may
// panic or hang, and anything that parses must re-serialize stably and
// answer queries in range. Seeds cover all three formats plus targeted
// corruptions of the v2 shard table and the v3 label arena.
func FuzzRead(f *testing.F) {
	g := goldenGraph()
	var v1, v2 bytes.Buffer
	mono, _ := Build(g.Clone(), order.ByDegree(g), Options{Workers: 1})
	if _, err := mono.WriteTo(&v1); err != nil {
		f.Fatal(err)
	}
	sh, _ := BuildSharded(g.Clone(), Options{Workers: 1})
	if _, err := sh.WriteTo(&v2); err != nil {
		f.Fatal(err)
	}
	v3 := bytes.NewBuffer(readFixture(f, "golden_v3.csc"))
	v4 := bytes.NewBuffer(readFixture(f, "golden_v4.csc"))
	f.Add(v1.Bytes())
	f.Add(v2.Bytes())
	f.Add(v3.Bytes())
	f.Add(v4.Bytes())
	// Truncations: every prefix of a valid file is invalid, and the loader
	// must say so rather than crash.
	for _, cut := range []int{1, 8, 9, 13, 21, v2.Len() / 2, v2.Len() - 1} {
		if cut < v2.Len() {
			f.Add(v2.Bytes()[:cut])
		}
	}
	for _, cut := range []int{9, 21, v3.Len() / 2, v3.Len() - 1} {
		if cut < v3.Len() {
			f.Add(v3.Bytes()[:cut])
		}
	}
	// Shard-table corruptions: flip bytes around the table region.
	for _, off := range []int{17, 25, 40, 60} {
		if off < v2.Len() {
			mut := append([]byte(nil), v2.Bytes()...)
			mut[off] ^= 0xff
			f.Add(mut)
		}
	}
	// v3 corruptions: the shard table up front, then the back half of the
	// file, which is where the frozen label arenas (offsets + delta blobs)
	// live — the strict reader's per-list validation must catch these.
	for _, off := range []int{17, 25, v3.Len() / 2, 3 * v3.Len() / 4, v3.Len() - 2} {
		if off >= 0 && off < v3.Len() {
			mut := append([]byte(nil), v3.Bytes()...)
			mut[off] ^= 0xff
			f.Add(mut)
		}
	}
	// v4 corruptions, aimed at the order-provenance section: offset 17 is
	// the global order-strategy byte (right after the pll strategy byte),
	// the early offsets hit the per-shard strategy tags and order vectors,
	// and the truncations cut inside them. A cross-format attack — a v4
	// body relabeled with the v3 magic (so strategy bytes get parsed as
	// order-vector data) — rides along.
	for _, off := range []int{17, 18, 30, 45, 60, v4.Len() / 2, v4.Len() - 2} {
		if off >= 0 && off < v4.Len() {
			mut := append([]byte(nil), v4.Bytes()...)
			mut[off] ^= 0xff
			f.Add(mut)
		}
	}
	for _, cut := range []int{9, 17, 18, 40, v4.Len() / 2, v4.Len() - 1} {
		if cut < v4.Len() {
			f.Add(v4.Bytes()[:cut])
		}
	}
	relabeled := append([]byte(nil), v4.Bytes()...)
	copy(relabeled, []byte(v3Magic))
	f.Add(relabeled)
	f.Fuzz(func(t *testing.T, data []byte) {
		x, err := Read(bytes.NewReader(data))
		if err != nil {
			return
		}
		n := x.Graph().NumVertices()
		for v := -1; v <= n && v < 64; v++ {
			if v >= 0 && v < n {
				x.CycleCount(v)
			}
		}
		var out bytes.Buffer
		if _, err := x.WriteTo(&out); err != nil {
			t.Fatalf("re-serialize failed: %v", err)
		}
		y, err := Read(bytes.NewReader(out.Bytes()))
		if err != nil {
			t.Fatalf("re-parse failed: %v", err)
		}
		for v := 0; v < n && v < 64; v++ {
			xl, xc := x.CycleCount(v)
			yl, yc := y.CycleCount(v)
			if xl != yl || xc != yc {
				t.Fatalf("vertex %d unstable across roundtrip: (%d,%d) vs (%d,%d)", v, xl, xc, yl, yc)
			}
		}
	})
}

// Every strict prefix of a valid v2, v3, or v4 file must fail to parse —
// the loader may never silently accept a truncated shard section, label
// arena, or order-strategy tag. The flat v3/v4 parsers also reject
// trailing garbage, so extensions of a valid file fail too.
func TestShardedReadAllPrefixesFail(t *testing.T) {
	for _, version := range []int{2, 3, 4} {
		full := goldenBytes(t, version)
		for cut := 0; cut < len(full); cut++ {
			if _, err := Read(bytes.NewReader(full[:cut])); err == nil {
				t.Fatalf("v%d: prefix of %d/%d bytes parsed successfully", version, cut, len(full))
			}
		}
	}
	for _, version := range []int{3, 4} {
		full := goldenBytes(t, version)
		for _, extra := range [][]byte{{0}, {0xff}, {1, 2, 3, 4}} {
			ext := append(append([]byte(nil), full...), extra...)
			if _, err := Read(bytes.NewReader(ext)); err == nil {
				t.Fatalf("v%d file with %d trailing bytes parsed successfully", version, len(extra))
			}
		}
	}
}
