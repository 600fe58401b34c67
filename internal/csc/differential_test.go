package csc

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/order"
)

// Differential property test: the generic hub-filtered construction and
// the couple-vertex-skipping construction must produce identical labels
// on the same graph, and under a random stream of maintained insertions
// and deletions — through the generic engine and the couple form — must
// keep answering CycleCount like the BFS baseline and keep their labels
// identical where the generic mirrors stay derivations (writePaths). This pins the whole fast-path
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
// their labels agree, then runs the update stream r draws through both
// write paths: the generic engine on the generic build, the couple form
// on the skipping one (writePaths).
func differentialStream(t *testing.T, seed int64, r *rand.Rand, name string, g *graph.Digraph, ord *order.Order) {
	t.Helper()
	what := fmt.Sprintf("seed %d: generic vs skipping under %s", seed, name)
	w := newWritePaths(g, ord)
	assertLabelingsEqual(t, what, w.generic.Engine(), w.couple.Engine())
	randomToggles(t, what, w, r, 30)
}
