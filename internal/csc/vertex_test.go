package csc

import (
	"math/rand"
	"testing"

	"repro/internal/bfscount"
	"repro/internal/graph"
	"repro/internal/testgraphs"
)

func TestAddVertexThenWire(t *testing.T) {
	g := testgraphs.Triangle()
	x, _ := BuildSharded(g, Options{})
	v, err := x.AddVertex()
	if err != nil {
		t.Fatal(err)
	}
	if v != 3 {
		t.Fatalf("new vertex id %d, want 3", v)
	}
	if r, c := x.CycleCount(v); r != bfscount.NoCycle || c != 0 {
		t.Fatalf("fresh vertex on a cycle: (%d,%d)", r, c)
	}
	// Wire it into the triangle: 2→3, 3→0 puts it on a 4-cycle.
	if _, err := x.InsertEdge(2, v); err != nil {
		t.Fatal(err)
	}
	if _, err := x.InsertEdge(v, 0); err != nil {
		t.Fatal(err)
	}
	assertAllCycleCounts(t, x, g, "after wiring new vertex")
	if l, c := x.CycleCount(v); l != 4 || c != 1 {
		t.Fatalf("SCCnt(new) = (%d,%d), want (4,1)", l, c)
	}
}

func TestAddManyVerticesInterleaved(t *testing.T) {
	r := rand.New(rand.NewSource(14))
	g := graph.New(6)
	for i := 0; i < 12; i++ {
		u, v := r.Intn(6), r.Intn(6)
		if u != v && !g.HasEdge(u, v) {
			_ = g.AddEdge(u, v)
		}
	}
	x, _ := BuildSharded(g, Options{})
	for step := 0; step < 25; step++ {
		n := g.NumVertices()
		switch r.Intn(3) {
		case 0:
			if _, err := x.AddVertex(); err != nil {
				t.Fatal(err)
			}
		default:
			u, v := r.Intn(n), r.Intn(n)
			if u == v {
				continue
			}
			if g.HasEdge(u, v) {
				if _, err := x.DeleteEdge(u, v); err != nil {
					t.Fatal(err)
				}
			} else {
				if _, err := x.InsertEdge(u, v); err != nil {
					t.Fatal(err)
				}
			}
		}
		assertAllCycleCounts(t, x, g, "interleaved growth")
	}
}

func TestDetachVertex(t *testing.T) {
	g := testgraphs.Figure2()
	x, _ := BuildSharded(g, Options{})
	// Detaching v7 (vertex 6) kills every cycle in Figure 2 except none —
	// all cycles pass v7, so everything becomes acyclic.
	removed, err := x.DetachVertex(6)
	if err != nil {
		t.Fatal(err)
	}
	if removed != 4 { // in: v4,v5,v6; out: v8
		t.Fatalf("removed %d edges, want 4", removed)
	}
	for v := 0; v < g.NumVertices(); v++ {
		if l, _ := x.CycleCount(v); l != bfscount.NoCycle {
			t.Fatalf("cycle survived detaching v7: vertex %d length %d", v, l)
		}
	}
	assertAllCycleCounts(t, x, g, "after detach")
}
