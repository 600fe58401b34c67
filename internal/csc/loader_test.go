package csc

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/order"
	"repro/internal/pll"
	"repro/internal/testgraphs"
)

// Every loader rejects an index whose edge records are not a simple
// graph: one record patched into a copy of its predecessor (a duplicate
// edge) or into a self-loop makes each reader of v1 to v4, pll.ReadIndex
// and the mmap path included, return its format error, never panic.
func TestLoadersRejectBadEdgeRecords(t *testing.T) {
	// The edge records start right after the header: magic, n, m and the
	// strategy byte, plus v4's order-strategy byte.
	edgesAt := map[int]int{1: 17, 2: 17, 3: 17, 4: 18}
	patches := []struct {
		name  string
		patch func(rec []byte) // rec holds records i-1 and i, 8 bytes each
	}{
		{"duplicate", func(rec []byte) { copy(rec[8:16], rec[0:8]) }},
		{"self-loop", func(rec []byte) { copy(rec[12:16], rec[8:12]) }},
	}
	for version := 1; version <= 4; version++ {
		for _, p := range patches {
			data := bytes.Clone(goldenBytes(t, version))
			at := edgesAt[version]
			if m := binary.LittleEndian.Uint32(data[12:16]); m < 3 {
				t.Fatalf("v%d: %d edge records, want at least 3", version, m)
			}
			p.patch(data[at+8 : at+24]) // records 1 and 2
			readers := map[string]func() error{
				"Read": func() error { _, err := Read(bytes.NewReader(data)); return err },
			}
			if version == 1 {
				readers["pll.ReadIndex"] = func() error { _, err := pll.ReadIndex(bytes.NewReader(data)); return err }
			}
			path := filepath.Join(t.TempDir(), "index.csc")
			if err := os.WriteFile(path, data, 0o644); err != nil {
				t.Fatal(err)
			}
			for _, mmap := range []bool{false, true} {
				readers[fmt.Sprintf("ReadFile(mmap=%v)", mmap)] = func() error {
					_, err := ReadFile(path, mmap)
					return err
				}
			}
			for name, read := range readers {
				err := func() (err error) {
					defer func() {
						if r := recover(); r != nil {
							t.Fatalf("v%d %s %s: panic: %v", version, p.name, name, r)
						}
					}()
					return read()
				}()
				if !errors.Is(err, pll.ErrBadFormat) {
					t.Errorf("v%d %s %s: err = %v, want %v", version, p.name, name, err, pll.ErrBadFormat)
				}
			}
		}
	}
}

// A v1 labeling's graph must be exactly a bipartite conversion: a lean
// index drops it and converts the reconstructed original graph instead,
// so an edge out of a V_in vertex beyond its couple edge — one the
// original graph cannot express — must fail the load, not vanish.
func TestLoaderRejectsNonConversionGb(t *testing.T) {
	g := testgraphs.Figure2()
	x, _ := Build(g.Clone(), order.ByDegree(g), Options{})
	var file bytes.Buffer
	if _, err := x.WriteTo(&file); err != nil {
		t.Fatal(err)
	}
	data := file.Bytes()
	// Records start at byte 17, tails ascending: record 0 is v1's couple
	// edge (0 → 1), record 1 v1_out's first converted edge (1 → 4, for
	// v1 → v3). Moving that edge's tail to v1_in gives v1_in a second
	// out-edge and keeps the records a simple graph.
	rec := data[17+8 : 17+16]
	if u, v := binary.LittleEndian.Uint32(rec), binary.LittleEndian.Uint32(rec[4:]); u != 1 || v != 4 {
		t.Fatalf("record 1 is (%d,%d), want (1,4)", u, v)
	}
	binary.LittleEndian.PutUint32(rec, 0)
	if _, err := Read(bytes.NewReader(data)); !errors.Is(err, pll.ErrBadFormat) {
		t.Fatalf("a labeling graph with an edge out of v1_in to v3_in loaded: err = %v", err)
	}
}
