package graph

import (
	"bytes"
	"errors"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"
)

func TestAddRemoveBasics(t *testing.T) {
	g := New(4)
	if g.NumVertices() != 4 || g.NumEdges() != 0 {
		t.Fatalf("fresh graph: n=%d m=%d", g.NumVertices(), g.NumEdges())
	}
	mustAdd(t, g, 0, 1)
	mustAdd(t, g, 1, 2)
	mustAdd(t, g, 2, 0)
	if g.NumEdges() != 3 {
		t.Fatalf("m=%d, want 3", g.NumEdges())
	}
	if !g.HasEdge(0, 1) || g.HasEdge(1, 0) {
		t.Fatal("HasEdge direction confusion")
	}
	if g.OutDegree(0) != 1 || g.InDegree(0) != 1 || g.Degree(0) != 2 {
		t.Fatalf("degrees of 0: out=%d in=%d", g.OutDegree(0), g.InDegree(0))
	}
	if err := g.RemoveEdge(1, 2); err != nil {
		t.Fatal(err)
	}
	if g.HasEdge(1, 2) || g.NumEdges() != 2 {
		t.Fatal("RemoveEdge did not remove")
	}
}

func mustAdd(t *testing.T, g *Digraph, u, v int) {
	t.Helper()
	if err := g.AddEdge(u, v); err != nil {
		t.Fatalf("AddEdge(%d,%d): %v", u, v, err)
	}
}

func TestEdgeErrors(t *testing.T) {
	g := New(3)
	if err := g.AddEdge(1, 1); !errors.Is(err, ErrSelfLoop) {
		t.Errorf("self loop err = %v", err)
	}
	if err := g.AddEdge(0, 5); !errors.Is(err, ErrVertexRange) {
		t.Errorf("range err = %v", err)
	}
	if err := g.AddEdge(-1, 0); !errors.Is(err, ErrVertexRange) {
		t.Errorf("negative err = %v", err)
	}
	mustAdd(t, g, 0, 1)
	if err := g.AddEdge(0, 1); !errors.Is(err, ErrDuplicateEdge) {
		t.Errorf("dup err = %v", err)
	}
	if err := g.RemoveEdge(1, 0); !errors.Is(err, ErrMissingEdge) {
		t.Errorf("missing err = %v", err)
	}
	if err := g.RemoveEdge(0, 9); !errors.Is(err, ErrVertexRange) {
		t.Errorf("remove range err = %v", err)
	}
}

func TestMinInOutDegree(t *testing.T) {
	g := New(4)
	mustAdd(t, g, 0, 1)
	mustAdd(t, g, 0, 2)
	mustAdd(t, g, 3, 0)
	if got := g.MinInOutDegree(0); got != 1 {
		t.Errorf("MinInOutDegree(0) = %d, want 1", got)
	}
	if got := g.MinInOutDegree(3); got != 0 {
		t.Errorf("MinInOutDegree(3) = %d, want 0", got)
	}
}

func TestCloneIndependence(t *testing.T) {
	g := New(3)
	mustAdd(t, g, 0, 1)
	c := g.Clone()
	mustAdd(t, c, 1, 2)
	if g.HasEdge(1, 2) {
		t.Fatal("clone shares storage with original")
	}
	if !Equal(g, g.Clone()) {
		t.Fatal("clone not Equal to original")
	}
}

func TestReverse(t *testing.T) {
	g := New(3)
	mustAdd(t, g, 0, 1)
	mustAdd(t, g, 1, 2)
	r := g.Reverse()
	if !r.HasEdge(1, 0) || !r.HasEdge(2, 1) || r.HasEdge(0, 1) {
		t.Fatal("Reverse wrong edges")
	}
	if !Equal(g, r.Reverse()) {
		t.Fatal("double reverse != original")
	}
}

func TestEdgeListRoundtrip(t *testing.T) {
	g := New(5)
	mustAdd(t, g, 0, 1)
	mustAdd(t, g, 1, 2)
	mustAdd(t, g, 4, 0)
	var buf bytes.Buffer
	if err := g.WriteEdgeList(&buf); err != nil {
		t.Fatal(err)
	}
	g2, err := ReadEdgeList(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if !Equal(g, g2) {
		t.Fatal("roundtrip mismatch")
	}
}

func TestReadEdgeListSkipsDirt(t *testing.T) {
	in := "# comment\n4 0\n0 1\n0 1\n2 2\n3 0\n"
	g, err := ReadEdgeList(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	if g.NumEdges() != 2 {
		t.Fatalf("m = %d, want 2 (dup and self-loop skipped)", g.NumEdges())
	}
}

func TestReadEdgeListErrors(t *testing.T) {
	for _, in := range []string{"", "x y\n", "3 1\n0 one\n", "3\n"} {
		if _, err := ReadEdgeList(strings.NewReader(in)); err == nil {
			t.Errorf("input %q: want error", in)
		}
	}
	// Vertex ids are int32: a header past that range is malformed, not an
	// allocation of its size.
	if _, err := ReadEdgeList(strings.NewReader("3000000000 1\n0 1\n")); !errors.Is(err, ErrMalformedInput) {
		t.Errorf("vertex count past int32: err = %v, want ErrMalformedInput", err)
	}
	// The header's edge count sizes nothing: a huge one over a short list
	// parses the edges that are there.
	g, err := ReadEdgeList(strings.NewReader("3 3000000000\n0 1\n1 2\n"))
	if err != nil || g.NumEdges() != 2 {
		t.Errorf("edge count past the input: g = %v, err = %v", g, err)
	}
}

// Property: a random sequence of valid adds and removes keeps out/in
// adjacency mirrored and the edge count consistent.
func TestMutationInvariants(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := 2 + r.Intn(20)
		g := New(n)
		type edge struct{ u, v int }
		var present []edge
		for step := 0; step < 200; step++ {
			u, v := r.Intn(n), r.Intn(n)
			if u == v {
				continue
			}
			if g.HasEdge(u, v) {
				if err := g.RemoveEdge(u, v); err != nil {
					return false
				}
				for i, e := range present {
					if e.u == u && e.v == v {
						present = append(present[:i], present[i+1:]...)
						break
					}
				}
			} else {
				if err := g.AddEdge(u, v); err != nil {
					return false
				}
				present = append(present, edge{u, v})
			}
		}
		if g.NumEdges() != len(present) {
			return false
		}
		// in/out mirrors.
		for v := 0; v < n; v++ {
			for _, w := range g.Out(v) {
				if !contains(g.In(int(w)), int32(v)) {
					return false
				}
			}
			for _, w := range g.In(v) {
				if !contains(g.Out(int(w)), int32(v)) {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

func TestEdgesEnumeration(t *testing.T) {
	g := New(3)
	mustAdd(t, g, 0, 1)
	mustAdd(t, g, 2, 1)
	es := g.Edges()
	if len(es) != 2 {
		t.Fatalf("Edges len = %d", len(es))
	}
	seen := map[[2]int]bool{}
	for _, e := range es {
		seen[e] = true
	}
	if !seen[[2]int{0, 1}] || !seen[[2]int{2, 1}] {
		t.Fatalf("Edges = %v", es)
	}
}
