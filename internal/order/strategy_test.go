package order

import (
	"encoding/binary"
	"testing"

	"repro/internal/graph"
	"repro/internal/testgraphs"
)

func ring(n int) *graph.Digraph {
	g := graph.New(n)
	for v := 0; v < n; v++ {
		_ = g.AddEdge(v, (v+1)%n)
	}
	return g
}

func TestStrategyStringParseRoundTrip(t *testing.T) {
	for s := Degree; s.Valid(); s++ {
		if s == retired || s == retiredHits {
			if _, err := ParseStrategy(s.String()); err == nil {
				t.Errorf("retired wire value parses as %q", s.String())
			}
			continue
		}
		got, err := ParseStrategy(s.String())
		if err != nil {
			t.Fatalf("ParseStrategy(%q): %v", s.String(), err)
		}
		if got != s {
			t.Fatalf("ParseStrategy(%q) = %v, want %v", s.String(), got, s)
		}
	}
	for _, name := range []string{"bogus", "betweenness", "hits"} {
		if _, err := ParseStrategy(name); err == nil {
			t.Errorf("unknown name %q accepted", name)
		}
	}
	if Strategy(250).Valid() {
		t.Error("out-of-range strategy valid")
	}
}

// Wire values are a serialization contract (the v4 format stores them):
// appending is fine, renumbering is corruption, and a deleted strategy's
// value stays reserved.
func TestStrategyWireValuesFrozen(t *testing.T) {
	want := map[Strategy]uint8{Degree: 0, ID: 1, Random: 2, retired: 3, Coverage: 4, retiredHits: 5}
	for s, w := range want {
		if uint8(s) != w {
			t.Fatalf("strategy %s has wire value %d, want %d", s, uint8(s), w)
		}
	}
}

// Every strategy must be a pure function of (graph, seed): two computes
// yield the identical total order, on every corpus graph. This is what
// makes repeated builds byte-identical and the v4 provenance tag
// trustworthy.
func TestStrategyDeterminism(t *testing.T) {
	for _, ng := range testgraphs.Corpus() {
		for s := Degree; s.Valid(); s++ {
			a, err := Compute(ng.G, s, 42)
			if err != nil {
				t.Fatalf("%s/%s: %v", ng.Name, s, err)
			}
			b, err := Compute(ng.G, s, 42)
			if err != nil {
				t.Fatalf("%s/%s: %v", ng.Name, s, err)
			}
			if a.Len() != b.Len() {
				t.Fatalf("%s/%s: lengths differ", ng.Name, s)
			}
			for r := 0; r < a.Len(); r++ {
				if a.VertexAt(r) != b.VertexAt(r) {
					t.Fatalf("%s/%s: rank %d differs: %d vs %d", ng.Name, s, r, a.VertexAt(r), b.VertexAt(r))
				}
			}
		}
	}
}

// On a uniform directed ring every vertex is interchangeable, so every
// score-based strategy ties everywhere and must fall back to vertex id —
// the tie-break that keeps orders deterministic.
func TestStrategyTieBreaksOnVertexID(t *testing.T) {
	g := ring(12)
	for _, s := range []Strategy{Degree, Coverage} {
		o, err := Compute(g, s, 7)
		if err != nil {
			t.Fatalf("%s: %v", s, err)
		}
		for r := 0; r < o.Len(); r++ {
			if o.VertexAt(r) != r {
				t.Fatalf("%s: rank %d is vertex %d, want id order on uniform ring", s, r, o.VertexAt(r))
			}
		}
	}
}

// Coverage ranks ties by the path product (out+1)(in+1), not by total
// degree: the shortest paths that can pass through v grow with
// in-degree × out-degree. Vertices 0 and 1 hub two disjoint triangles,
// so both cover three sampled cycles, and both have total degree 4; 1
// has out 2/in 2 (product 9), 0 has out 3/in 1 (product 8). Off every
// cycle, 3 (out 2/in 2), 2 (out 3/in 1) and the sink 8 (in 4) tie on
// degree 4 too. A degree ranking would give 0 1 | 2 3 8 9 4 5 6 7 11 12 10.
func TestCoverageRanksTiesByPathProduct(t *testing.T) {
	g := graph.New(13)
	for _, e := range [][2]int{
		{1, 4}, {4, 5}, {5, 1}, {1, 8}, {9, 1}, // triangle hubbed by 1
		{0, 6}, {6, 7}, {7, 0}, {0, 8}, {0, 10}, // triangle hubbed by 0
		{9, 3}, {12, 3}, {3, 8}, {3, 11}, // 3: out 2/in 2, on no cycle
		{9, 2}, {2, 8}, {2, 11}, {2, 12}, // 2: out 3/in 1, on no cycle
	} {
		if err := g.AddEdge(e[0], e[1]); err != nil {
			t.Fatal(err)
		}
	}
	o := ByCoverage(g, g.NumVertices(), 0)
	// Head: 1 before 0 on equal gain and degree. Tail: 3, 2, then 8
	// (product 5), then the exact tie at product 4 in ascending id,
	// then 11 (3) and 10 (2).
	want := []int{1, 0, 3, 2, 8, 4, 5, 6, 7, 9, 12, 11, 10}
	for r, v := range want {
		if o.VertexAt(r) != v {
			t.Fatalf("order %v, want %v", o.VertexList(), want)
		}
	}
}

// The retired wire values 3 and 5 compute the degree order, so a
// rebuild of a shard loaded with either tag still has an order.
func TestRetiredStrategyRanksByDegree(t *testing.T) {
	for _, ng := range testgraphs.Corpus() {
		deg := ByDegree(ng.G)
		for _, s := range []Strategy{retired, retiredHits} {
			o, err := Compute(ng.G, s, 7)
			if err != nil {
				t.Fatalf("%s/%s: %v", ng.Name, s, err)
			}
			for r := 0; r < o.Len(); r++ {
				if o.VertexAt(r) != deg.VertexAt(r) {
					t.Fatalf("%s/%s: rank %d is vertex %d, degree order has %d", ng.Name, s, r, o.VertexAt(r), deg.VertexAt(r))
				}
			}
		}
	}
}

func TestComputeRejectsUnknownStrategy(t *testing.T) {
	if _, err := Compute(ring(3), Strategy(99), 0); err == nil {
		t.Fatal("unknown strategy accepted")
	}
}

func TestDefaultSamples(t *testing.T) {
	if DefaultSamples(10) != 10 {
		t.Fatalf("DefaultSamples(10) = %d", DefaultSamples(10))
	}
	if DefaultSamples(100000) != 64 {
		t.Fatalf("DefaultSamples(100000) = %d", DefaultSamples(100000))
	}
}

func TestVertexListRoundTrip(t *testing.T) {
	for _, ng := range testgraphs.Corpus() {
		o := ByDegree(ng.G)
		back, err := FromVertexList(o.VertexList())
		if err != nil {
			t.Fatalf("%s: %v", ng.Name, err)
		}
		for r := 0; r < o.Len(); r++ {
			if o.VertexAt(r) != back.VertexAt(r) {
				t.Fatalf("%s: rank %d differs after round-trip", ng.Name, r)
			}
		}
	}
}

// fuzzDecodeList maps fuzz bytes to a vertex list: consecutive
// little-endian int16s, so negatives, duplicates, and out-of-range ids
// all arise naturally from byte mutations.
func fuzzDecodeList(data []byte) []int {
	list := make([]int, 0, len(data)/2)
	for i := 0; i+1 < len(data); i += 2 {
		list = append(list, int(int16(binary.LittleEndian.Uint16(data[i:]))))
	}
	return list
}

// FuzzFromVertexList drives the permutation validator with hostile
// lists. Accepted inputs must be genuine permutations that survive a
// VertexList round-trip; everything else must error rather than produce
// an order with dangling or duplicated ranks (which would corrupt every
// downstream labeling).
func FuzzFromVertexList(f *testing.F) {
	f.Add([]byte{})                                   // empty: valid zero-length order
	f.Add([]byte{0, 0})                               // [0]: trivial permutation
	f.Add([]byte{2, 0, 0, 0, 1, 0})                   // [2 0 1]: valid
	f.Add([]byte{0, 0, 0, 0, 1, 0})                   // [0 0 1]: duplicate
	f.Add([]byte{0, 0, 3, 0})                         // [0 3]: out of range
	f.Add([]byte{0, 0, 0xff, 0xff})                   // [0 -1]: negative
	f.Add([]byte{0xff, 0x7f, 0, 0})                   // [32767 0]: far out of range
	f.Add([]byte{1, 0, 0, 0, 3, 0, 2, 0, 4, 0, 5, 0}) // [1 0 3 2 4 5]: valid
	f.Fuzz(func(t *testing.T, data []byte) {
		list := fuzzDecodeList(data)
		o, err := FromVertexList(list)
		if err != nil {
			return
		}
		if o.Len() != len(list) {
			t.Fatalf("Len %d != input %d", o.Len(), len(list))
		}
		seen := make(map[int]bool, len(list))
		for r := 0; r < o.Len(); r++ {
			v := o.VertexAt(r)
			if v < 0 || v >= o.Len() {
				t.Fatalf("rank %d holds out-of-range vertex %d", r, v)
			}
			if seen[v] {
				t.Fatalf("vertex %d appears at two ranks", v)
			}
			seen[v] = true
			if o.Rank(v) != r {
				t.Fatalf("Rank(VertexAt(%d)) = %d", r, o.Rank(v))
			}
			if v != list[r] {
				t.Fatalf("rank %d: accepted order disagrees with input list", r)
			}
		}
		back := o.VertexList()
		for i := range list {
			if back[i] != list[i] {
				t.Fatalf("VertexList round-trip differs at %d", i)
			}
		}
	})
}
