package csc

import (
	"math/rand"
	"testing"

	"repro/internal/bfscount"
	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/order"
)

// Differential property test: the generic hub-filtered construction and
// the couple-vertex-skipping construction must produce identical labels
// on the same graph, and must keep answering CycleCount identically (and
// correctly, against the BFS baseline) under a random stream of
// maintained insertions and deletions. This pins the whole fast-path
// pipeline — hub-indexed pruning, the reduced store and the CSR arena —
// to the seed semantics.
func TestDifferentialConstructionAndUpdateStream(t *testing.T) {
	for seed := int64(0); seed < 6; seed++ {
		differentialRun(t, seed)
	}
}

// FuzzDifferentialConstruction lets `go test -fuzz` explore more seeds;
// the checked-in corpus keeps `go test` fast.
func FuzzDifferentialConstruction(f *testing.F) {
	f.Add(int64(42))
	f.Add(int64(7))
	f.Fuzz(func(t *testing.T, seed int64) {
		differentialRun(t, seed)
	})
}

// differentialRun runs the differential check on one seeded graph under
// the degree, coverage and random orders: the skipping construction's
// scans stop by comparing ranks, so each order cuts them differently.
func differentialRun(t *testing.T, seed int64) {
	t.Helper()
	_, g := differentialGraph(seed)
	for _, o := range testOrders(g, seed) {
		r, g := differentialGraph(seed) // the stream edits its graph
		differentialStream(t, seed, r, o.name, g, o.ord)
	}
}

// differentialGraph returns the seeded Erdős–Rényi graph a differential
// run builds on, and the seed's generator, which then draws the run's
// update stream.
func differentialGraph(seed int64) (*rand.Rand, *graph.Digraph) {
	r := rand.New(rand.NewSource(seed))
	n := 10 + r.Intn(25)
	m := n + r.Intn(3*n)
	return r, gen.ErdosRenyi(gen.Config{N: n, M: m, Seed: seed})
}

// differentialStream builds g under ord with both constructions, checks
// their labels agree, then applies the update stream r draws to both.
func differentialStream(t *testing.T, seed int64, r *rand.Rand, name string, g *graph.Digraph, ord *order.Order) {
	t.Helper()
	n := g.NumVertices()
	what := "generic vs skipping under " + name

	generic, _ := Build(g.Clone(), ord, Options{GenericConstruction: true})
	skipping, _ := Build(g.Clone(), ord, Options{})

	assertEngineLabelsEqual(t, seed, -1, what, generic, skipping)

	// Random update stream applied to both; answers must agree with each
	// other and with the BFS ground truth after every step.
	indexes := []*Index{generic, skipping}
	for step := 0; step < 30; step++ {
		u, v := r.Intn(n), r.Intn(n)
		if u == v {
			continue
		}
		if g.HasEdge(u, v) {
			g.RemoveEdge(u, v)
			for _, x := range indexes {
				if _, err := x.DeleteEdge(u, v); err != nil {
					t.Fatalf("seed %d step %d: delete(%d,%d): %v", seed, step, u, v, err)
				}
			}
		} else {
			g.AddEdge(u, v)
			for _, x := range indexes {
				if _, err := x.InsertEdge(u, v); err != nil {
					t.Fatalf("seed %d step %d: insert(%d,%d): %v", seed, step, u, v, err)
				}
			}
		}
		assertEngineLabelsEqual(t, seed, step, what, generic, skipping)
		for w := 0; w < n; w++ {
			wantL, wantC := bfscount.CycleCount(g, w)
			for _, x := range indexes {
				gotL, gotC := x.CycleCount(w)
				if gotL != wantL || gotC != wantC {
					t.Fatalf("seed %d step %d (%s): CycleCount(%d) = (%d,%d), want BFS (%d,%d)",
						seed, step, name, w, gotL, gotC, wantL, wantC)
				}
			}
		}
	}
}

func assertEngineLabelsEqual(t *testing.T, seed int64, step int, what string, a, b *Index) {
	t.Helper()
	ae, be := a.Engine(), b.Engine()
	// Compare full labelings: a fresh skipping build is reduced.
	ae.Expand()
	be.Expand()
	n2 := ae.G.NumVertices()
	for v := 0; v < n2; v++ {
		if !entriesEqual(ae.In[v].Entries(), be.In[v].Entries()) {
			t.Fatalf("seed %d step %d: %s: Lin(%d): %v != %v",
				seed, step, what, v, ae.In[v].Entries(), be.In[v].Entries())
		}
		if !entriesEqual(ae.Out[v].Entries(), be.Out[v].Entries()) {
			t.Fatalf("seed %d step %d: %s: Lout(%d): %v != %v",
				seed, step, what, v, ae.Out[v].Entries(), be.Out[v].Entries())
		}
	}
	if ae.EntryCount() != be.EntryCount() {
		t.Fatalf("seed %d step %d: %s: entry counts %d != %d",
			seed, step, what, ae.EntryCount(), be.EntryCount())
	}
}
