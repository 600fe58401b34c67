package bfscount

import (
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/graph"
	"repro/internal/testgraphs"
)

func TestPaperExample1(t *testing.T) {
	// Example 1: three shortest cycles of length 6 through v7 (vertex 6).
	g := testgraphs.Figure2()
	length, count := CycleCount(g, 6)
	if length != 6 || count != 3 {
		t.Fatalf("SCCnt(v7) = (len %d, cnt %d), want (6, 3)", length, count)
	}
}

func TestFigure2AllVertices(t *testing.T) {
	// Every vertex of Figure 2 lies on the single big 6-cycle structure;
	// derived by hand from the edge list.
	g := testgraphs.Figure2()
	want := map[int]struct {
		length int
		count  uint64
	}{
		0: {6, 2}, // v1: v1→{v4,v5}→v7→v8→v9→v10→v1
		1: {6, 1}, // v2: v2→v4→v7→v8→v9→v10→v2
		3: {6, 3}, // v4: all three 6-cycles pass v4? no — see below
		6: {6, 3}, // v7 (Example 1)
	}
	// v4 lies on cycles v1→v4→v7→v8→v9→v10→v1 and v2-cycle: 2 cycles.
	want[3] = struct {
		length int
		count  uint64
	}{6, 2}
	for v, w := range want {
		l, c := CycleCount(g, v)
		if l != w.length || c != w.count {
			t.Errorf("SCCnt(v%d) = (%d,%d), want (%d,%d)", v+1, l, c, w.length, w.count)
		}
	}
	// v3 and v6 (zero-based 2 and 5): v3→v6→v7→v8→v9→v10→v1→v3, length 7.
	for _, v := range []int{2, 5} {
		l, _ := CycleCount(g, v)
		if l != 7 {
			t.Errorf("SCCnt(v%d) length = %d, want 7", v+1, l)
		}
	}
	// v5 (zero-based 4): v5→v7→v8→v9→v10→v1→v5, length 6, unique.
	if l, c := CycleCount(g, 4); l != 6 || c != 1 {
		t.Errorf("SCCnt(v5) = (%d,%d), want (6,1)", l, c)
	}
}

func TestSmallFixtures(t *testing.T) {
	cases := []struct {
		name   string
		g      *graph.Digraph
		v      int
		length int
		count  uint64
	}{
		{"triangle", testgraphs.Triangle(), 0, 3, 1},
		{"triangle-v2", testgraphs.Triangle(), 2, 3, 1},
		{"two-cycle", testgraphs.TwoCycle(), 0, 2, 1},
		{"diamond", testgraphs.DiamondCycles(), 0, 3, 2},
		{"diamond-join", testgraphs.DiamondCycles(), 3, 3, 2},
		{"dag", testgraphs.DAG(), 0, NoCycle, 0},
		{"dag-mid", testgraphs.DAG(), 3, NoCycle, 0},
	}
	for _, c := range cases {
		l, cnt := CycleCount(c.g, c.v)
		if l != c.length || cnt != c.count {
			t.Errorf("%s: SCCnt(%d) = (%d,%d), want (%d,%d)",
				c.name, c.v, l, cnt, c.length, c.count)
		}
	}
}

func TestSPCount(t *testing.T) {
	g := testgraphs.Figure2()
	cases := []struct {
		s, t, d int
		c       uint64
	}{
		{9, 7, 4, 3}, // Example 2: SPCnt(v10, v8) = 3 at distance 4
		{0, 6, 2, 2}, // sd(v1,v7)=2, two paths (Table II Lin(v7))
		{6, 3, 5, 2}, // Example 3: SPCnt(v7,v4)
		{6, 4, 5, 1}, // Example 3: SPCnt(v7,v5)
		{6, 5, 6, 1}, // Example 3: SPCnt(v7,v6)
		{0, 0, 0, 1}, // trivial self path
		{7, 2, 4, 1}, // v8→v9→v10→v1→v3
	}
	for _, c := range cases {
		d, cnt := SPCount(g, c.s, c.t)
		if d != c.d || cnt != c.c {
			t.Errorf("SPCnt(v%d,v%d) = (%d,%d), want (%d,%d)",
				c.s+1, c.t+1, d, cnt, c.d, c.c)
		}
	}
}

func TestSPCountUnreachable(t *testing.T) {
	g := testgraphs.DAG()
	if d, c := SPCount(g, 5, 0); d != NoCycle || c != 0 {
		t.Fatalf("unreachable = (%d,%d)", d, c)
	}
}

// Property: SCCnt(v) computed by Algorithm 1 equals the neighbor reduction
// of Equation (3)-(4) evaluated with the SPCount oracle, on random graphs.
func TestCycleCountMatchesNeighborReduction(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := 3 + r.Intn(15)
		g := graph.New(n)
		for i := 0; i < n*3; i++ {
			u, v := r.Intn(n), r.Intn(n)
			if u != v && !g.HasEdge(u, v) {
				_ = g.AddEdge(u, v)
			}
		}
		for v := 0; v < n; v++ {
			gotLen, gotCnt := CycleCount(g, v)
			// Equation (3)/(4) over out-neighbors.
			bestD := -1
			var total uint64
			for _, w := range g.Out(v) {
				d, c := SPCount(g, int(w), v)
				if d < 0 {
					continue
				}
				switch {
				case bestD == -1 || d < bestD:
					bestD, total = d, c
				case d == bestD:
					total += c
				}
			}
			wantLen, wantCnt := NoCycle, uint64(0)
			if bestD >= 0 {
				wantLen, wantCnt = bestD+1, total
			}
			if gotLen != wantLen || gotCnt != wantCnt {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

func TestAllCycleCounts(t *testing.T) {
	g := testgraphs.Triangle()
	ls, cs := AllCycleCounts(g)
	for v := 0; v < 3; v++ {
		if ls[v] != 3 || cs[v] != 1 {
			t.Fatalf("vertex %d: (%d,%d)", v, ls[v], cs[v])
		}
	}
}

// A reused Counter answers exactly like a fresh CycleCount per query, on
// one graph and across graphs of different sizes, and once its arrays
// are sized a query allocates nothing.
func TestCounterReuse(t *testing.T) {
	r := rand.New(rand.NewSource(5))
	var c Counter
	for trial := 0; trial < 20; trial++ {
		n := 2 + r.Intn(60)
		g := graph.New(n)
		for i := 0; i < 2*n; i++ {
			if u, v := r.Intn(n), r.Intn(n); u != v {
				_ = g.AddEdge(u, v)
			}
		}
		for v := 0; v < n; v++ {
			wl, wc := CycleCount(g, v)
			if l, cnt := c.CycleCount(g, v); l != wl || cnt != wc {
				t.Fatalf("trial %d vertex %d: reused counter (%d,%d), fresh (%d,%d)", trial, v, l, cnt, wl, wc)
			}
		}
	}
	g := testgraphs.GiantSCC(500, 2000, 3)
	c.CycleCount(g, 0)
	if allocs := testing.AllocsPerRun(50, func() { c.CycleCount(g, 7) }); allocs != 0 {
		t.Errorf("a sized Counter allocates %.0f times per query", allocs)
	}
}
