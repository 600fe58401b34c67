package pll_test

import (
	"bytes"
	"errors"
	"math/rand"
	"testing"

	"repro/internal/csc"
	"repro/internal/graph"
	"repro/internal/order"
	"repro/internal/pll"
)

// validIndexBytes serializes a small real index for use as a fuzz seed
// and truncation corpus.
func validIndexBytes(tb testing.TB, seed int64) []byte {
	tb.Helper()
	r := rand.New(rand.NewSource(seed))
	n := 12
	g := graph.New(n)
	for i := 0; i < 3*n; i++ {
		u, v := r.Intn(n), r.Intn(n)
		if u != v && !g.HasEdge(u, v) {
			_ = g.AddEdge(u, v)
		}
	}
	idx, _ := pll.Build(g, order.ByDegree(g), pll.Options{})
	var buf bytes.Buffer
	if _, err := idx.WriteTo(&buf); err != nil {
		tb.Fatal(err)
	}
	return buf.Bytes()
}

// The recovery path (engine snapshots) feeds ReadIndex whatever survived
// a crash: arbitrary prefixes and bit-flipped bytes must never panic, and
// whatever parses must re-serialize stably. csc.Read layers the bipartite
// reconstruction on top and gets the same treatment.
func FuzzReadIndex(f *testing.F) {
	valid := validIndexBytes(f, 1)
	f.Add(valid)
	f.Add(valid[:len(valid)/2])
	f.Add(valid[:9])
	f.Add([]byte("CSCIDX01"))
	f.Add([]byte{})
	// A couple of deterministic corruptions as seeds.
	for _, off := range []int{8, 12, 16, len(valid) - 5} {
		mut := append([]byte(nil), valid...)
		mut[off] ^= 0x41
		f.Add(mut)
	}

	f.Fuzz(func(t *testing.T, data []byte) {
		idx, err := pll.ReadIndex(bytes.NewReader(data))
		if err != nil {
			if idx != nil {
				t.Fatal("non-nil index returned with error")
			}
			if !errors.Is(err, pll.ErrBadFormat) {
				t.Fatalf("error does not wrap ErrBadFormat: %v", err)
			}
		} else {
			// Whatever parsed must be usable and roundtrip-stable.
			n := idx.G.NumVertices()
			for v := 0; v < n && v < 4; v++ {
				idx.CountPaths(v, 0)
				idx.CountPaths(0, v)
			}
			var out bytes.Buffer
			if _, err := idx.WriteTo(&out); err != nil {
				t.Fatalf("re-serialize: %v", err)
			}
			if _, err := pll.ReadIndex(bytes.NewReader(out.Bytes())); err != nil {
				t.Fatalf("roundtrip of parsed index failed: %v", err)
			}
		}
		// The CSC layer must be exactly as robust (it wraps ReadIndex and
		// reconstructs the original graph from the conversion).
		if x, err := csc.Read(bytes.NewReader(data)); err == nil && x.Graph().NumVertices() > 0 {
			x.CycleCount(0)
		}
	})
}

// No silent short reads: every strict prefix of a valid stream must fail
// with a descriptive error, never parse as a smaller index.
func TestReadIndexTruncationsAllFail(t *testing.T) {
	valid := validIndexBytes(t, 2)
	if _, err := pll.ReadIndex(bytes.NewReader(valid)); err != nil {
		t.Fatal(err)
	}
	for cut := 0; cut < len(valid); cut++ {
		idx, err := pll.ReadIndex(bytes.NewReader(valid[:cut]))
		if err == nil {
			t.Fatalf("prefix of %d/%d bytes parsed silently", cut, len(valid))
		}
		if idx != nil {
			t.Fatalf("prefix of %d bytes returned an index with its error", cut)
		}
		if !errors.Is(err, pll.ErrBadFormat) {
			t.Fatalf("prefix of %d bytes: error %v does not wrap ErrBadFormat", cut, err)
		}
	}
}

// Hostile headers must be rejected up front, not drive huge loops or
// allocations.
func TestReadIndexHostileHeaders(t *testing.T) {
	le := func(b []byte, vals ...uint32) []byte {
		for _, v := range vals {
			b = append(b, byte(v), byte(v>>8), byte(v>>16), byte(v>>24))
		}
		return b
	}
	cases := map[string][]byte{
		"edge count beyond n(n-1)": le([]byte("CSCIDX01"), 4, 4000000000, 0),
		"unknown strategy":         append(le([]byte("CSCIDX01"), 2, 0), 99),
		"huge label list": append(append(
			le([]byte("CSCIDX01"), 1, 0), 0), // n=1, m=0, strategy 0
			le(nil, 0 /* order: vertex 0 */, 4000000000 /* inLen */)...),
	}
	for name, data := range cases {
		if _, err := pll.ReadIndex(bytes.NewReader(data)); err == nil {
			t.Errorf("%s: parsed without error", name)
		} else if !errors.Is(err, pll.ErrBadFormat) {
			t.Errorf("%s: %v does not wrap ErrBadFormat", name, err)
		}
	}
}
