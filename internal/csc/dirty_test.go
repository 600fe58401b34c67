package csc

import (
	"math/rand"
	"testing"

	"repro/internal/graph"
	"repro/internal/order"
	"repro/internal/pll"
	"repro/internal/testgraphs"
)

// dirtyStream drives a random update stream (per-op and batched, with
// merge/split-inducing deletes and reinserts) through one Counter and
// asserts dirty-set exactness after every applied unit: any vertex whose
// SCCnt answer changed must be in DirtyVertices of the stats that unit
// returned. The pre/post answers come from the index itself — the
// conformance suites already pin those against the BFS oracle — so this
// test isolates the dirty-tracking claim.
func dirtyStream(t *testing.T, name string, x updater, seed int64, batched bool) {
	t.Helper()
	g := x.Graph()
	n := g.NumVertices()
	r := rand.New(rand.NewSource(seed))

	before, cBefore := countsOf(x)

	check := func(step int, dirty []int) {
		after, cAfter := countsOf(x)
		inDirty := make(map[int]bool, len(dirty))
		for _, v := range dirty {
			inDirty[v] = true
		}
		for v := 0; v < n; v++ {
			if (before[v] != after[v] || cBefore[v] != cAfter[v]) && !inDirty[v] {
				t.Fatalf("%s step %d: vertex %d changed (%d,%d)->(%d,%d) but is not in the dirty set %v",
					name, step, v, before[v], cBefore[v], after[v], cAfter[v], dirty)
			}
		}
		before, cBefore = after, cAfter
	}

	randOp := func() EdgeOp {
		for {
			u, v := r.Intn(n), r.Intn(n)
			if u == v {
				continue
			}
			if g.HasEdge(u, v) {
				return Del(u, v)
			}
			return Ins(u, v)
		}
	}

	// Steps scale down with graph size: large corpus members pay a
	// component rebuild per merging insert, and the point — covering
	// every update path — is made in a few steps there.
	steps := 30
	if n > 100 {
		steps = 12
	}

	if batched {
		// Tiny fixtures cannot fill a batch with distinct pairs; clamp
		// the batch size to half the ordered-pair budget.
		target := 6
		if pairs := n * (n - 1); pairs < 2*target {
			target = pairs / 2
		}
		if target < 1 {
			return
		}
		for step := 0; step < (steps+1)/2; step++ {
			var batch []EdgeOp
			pending := make(map[[2]int32]bool)
			for len(batch) < target {
				op := randOp()
				k := [2]int32{op.A, op.B}
				if pending[k] {
					continue // keep the sequence trivially valid
				}
				pending[k] = true
				batch = append(batch, op)
			}
			st, err := x.(*Sharded).ApplyBatch(batch, 2)
			if err != nil {
				t.Fatalf("%s step %d: %v", name, step, err)
			}
			check(step, DirtyVertices(st))
		}
		return
	}
	for step := 0; step < steps; step++ {
		op := randOp()
		var (
			st  pll.UpdateStats
			err error
		)
		if op.Kind == OpInsert {
			st, err = x.InsertEdge(int(op.A), int(op.B))
		} else {
			st, err = x.DeleteEdge(int(op.A), int(op.B))
		}
		if err != nil {
			t.Fatalf("%s step %d: %v", name, step, err)
		}
		check(step, DirtyVertices(st))
	}
}

// updater is the per-op update surface both index forms share.
type updater interface {
	Counter
	InsertEdge(a, b int) (pll.UpdateStats, error)
	DeleteEdge(a, b int) (pll.UpdateStats, error)
}

// TestDirtySetExactness runs the dirty-tracking oracle over the whole
// corpus, on both index forms per-op and on the sharded one batched. Rings losing an
// edge split their component and regaining it merges it back, so the
// stream exercises scoped rebuilds, INCCNT, and decremental repair.
func TestDirtySetExactness(t *testing.T) {
	if testing.Short() {
		t.Skip("corpus sweep is not -short")
	}
	for _, ng := range testgraphs.Corpus() {
		ng := ng
		t.Run(ng.Name, func(t *testing.T) {
			t.Parallel()
			mono, _ := Build(ng.G.Clone(), order.ByDegree(ng.G), Options{Workers: 1})
			dirtyStream(t, "mono", mono, 101, false)
			sh, _ := BuildSharded(ng.G.Clone(), Options{Workers: 1})
			dirtyStream(t, "sharded", sh, 102, false)
			shb, _ := BuildSharded(ng.G.Clone(), Options{Workers: 1})
			dirtyStream(t, "sharded-batch", shb, 103, true)
		})
	}
}

// DirtyVertices must dedupe, sort, and map couple ids onto one original
// vertex.
func TestDirtyVerticesShape(t *testing.T) {
	g := graph.New(3)
	_ = g.AddEdge(0, 1)
	_ = g.AddEdge(1, 2)
	x, _ := Build(g, order.ByDegree(g), Options{Workers: 1})
	st, err := x.InsertEdge(2, 0)
	if err != nil {
		t.Fatal(err)
	}
	dirty := DirtyVertices(st)
	if len(dirty) == 0 {
		t.Fatal("closing a cycle produced an empty dirty set")
	}
	for i, v := range dirty {
		if v < 0 || v >= 3 {
			t.Fatalf("dirty vertex %d out of original-graph range", v)
		}
		if i > 0 && dirty[i-1] >= v {
			t.Fatalf("dirty set not strictly sorted: %v", dirty)
		}
	}
	if DirtyVertices(pll.UpdateStats{}) != nil {
		t.Fatal("empty stats must map to a nil dirty set")
	}
}
