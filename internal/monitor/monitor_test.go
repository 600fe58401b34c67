package monitor

import (
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/bfscount"
	"repro/internal/csc"
	"repro/internal/graph"
	"repro/internal/testgraphs"
)

func build(t *testing.T, g *graph.Digraph, k int) *TopK {
	t.Helper()
	x, _ := csc.BuildSharded(g, csc.Options{})
	return New(x, k)
}

// The scoreboard must equal a full re-query of every vertex after every
// update — this is the test that proves the touched-owner set from the
// engine covers all query changes.
func TestScoreboardStaysExact(t *testing.T) {
	for seed := int64(0); seed < 6; seed++ {
		r := rand.New(rand.NewSource(seed))
		n := 10 + r.Intn(15)
		g := graph.New(n)
		for i := 0; i < n*2; i++ {
			u, v := r.Intn(n), r.Intn(n)
			if u != v && !g.HasEdge(u, v) {
				_ = g.AddEdge(u, v)
			}
		}
		m := build(t, g, 5)
		for step := 0; step < 40; step++ {
			u, v := r.Intn(n), r.Intn(n)
			if u == v {
				continue
			}
			var err error
			if g.HasEdge(u, v) {
				err = m.DeleteEdge(u, v)
			} else {
				err = m.InsertEdge(u, v)
			}
			if err != nil {
				t.Fatal(err)
			}
			for w := 0; w < n; w++ {
				wl, wc := bfscount.CycleCount(g, w)
				s := m.Score(w)
				if wl == bfscount.NoCycle {
					if s.Exists {
						t.Fatalf("seed %d step %d: vertex %d stale score %+v, no cycle",
							seed, step, w, s)
					}
					continue
				}
				if !s.Exists || s.Length != wl || s.Count != wc {
					t.Fatalf("seed %d step %d: vertex %d score %+v, want (%d,%d)",
						seed, step, w, s, wl, wc)
				}
			}
		}
	}
}

func TestTopMatchesBruteForce(t *testing.T) {
	r := rand.New(rand.NewSource(42))
	n := 30
	g := graph.New(n)
	for i := 0; i < n*3; i++ {
		u, v := r.Intn(n), r.Intn(n)
		if u != v && !g.HasEdge(u, v) {
			_ = g.AddEdge(u, v)
		}
	}
	m := build(t, g, 4)
	for step := 0; step < 15; step++ {
		u, v := r.Intn(n), r.Intn(n)
		if u == v {
			continue
		}
		if g.HasEdge(u, v) {
			if err := m.DeleteEdge(u, v); err != nil {
				t.Fatal(err)
			}
		} else {
			if err := m.InsertEdge(u, v); err != nil {
				t.Fatal(err)
			}
		}
		top := m.Top()
		if len(top) > 4 {
			t.Fatalf("Top returned %d > k", len(top))
		}
		// Brute force: a dense board from the BFS oracle. Score must match
		// it for every vertex — trivial ones and the out-of-range -1 and n
		// included, which the sparse board holds no entry for.
		var all []Score
		tracked := 0
		for w := -1; w <= n; w++ {
			want := Score{Vertex: w}
			if w >= 0 && w < n {
				if l, c := bfscount.CycleCount(g, w); l != bfscount.NoCycle {
					want = Score{Vertex: w, Exists: true, Length: l, Count: c}
					all = append(all, want)
					tracked++
				}
			}
			if s := m.Score(w); s != want {
				t.Fatalf("step %d: Score(%d) = %+v, dense board has %+v", step, w, s, want)
			}
		}
		if m.Tracked() != tracked {
			t.Fatalf("step %d: board tracks %d vertices, %d lie on a cycle", step, m.Tracked(), tracked)
		}
		for i := range top {
			best := all[0]
			for _, s := range all[1:] {
				if rankBefore(s, best) {
					best = s
				}
			}
			if top[i] != best {
				t.Fatalf("step %d: Top[%d] = %+v, want %+v", step, i, top[i], best)
			}
			for j, s := range all {
				if s == best {
					all = append(all[:j], all[j+1:]...)
					break
				}
			}
		}
	}
}

// RescoreAll and RescoreDirty share the monitor's persistent result
// buffers, so they must serialize on the scoreboard lock. Regression
// for a review finding: a full rescore running concurrently with a
// post-batch dirty rescore raced on the resized buffers and panicked.
// Run with -race.
func TestConcurrentRescoreAllAndDirty(t *testing.T) {
	g := graph.New(24)
	for v := 0; v < 24; v++ {
		_ = g.AddEdge(v, (v+1)%24)
	}
	m := build(t, g, 5)
	var wg sync.WaitGroup
	wg.Add(3)
	go func() {
		defer wg.Done()
		for i := 0; i < 50; i++ {
			m.RescoreAll(2)
		}
	}()
	go func() {
		defer wg.Done()
		for i := 0; i < 400; i++ {
			m.RescoreDirty([]int{i % 24, (i + 7) % 24})
		}
	}()
	go func() {
		defer wg.Done()
		for i := 0; i < 400; i++ {
			m.Top()
			m.Score(i % 24)
		}
	}()
	wg.Wait()
	if s := m.Score(0); !s.Exists || s.Length != 24 {
		t.Fatalf("scoreboard corrupted: %+v", s)
	}
}

// Out-of-range ids in a dirty set must be dropped before the batched
// query — the scoreboard has no row for them — while in-range ids around
// them still rescore. Regression for a review finding.
func TestRescoreDirtyOutOfRange(t *testing.T) {
	g := graph.New(3)
	_ = g.AddEdge(0, 1)
	_ = g.AddEdge(1, 2)
	x, _ := csc.BuildSharded(g, csc.Options{Workers: 1})
	m := New(x, 2)
	if _, err := x.InsertEdge(2, 0); err != nil {
		t.Fatal(err)
	}
	m.RescoreDirty([]int{-1, 0, 3, 1, 99, 2})
	for v := 0; v < 3; v++ {
		if s := m.Score(v); !s.Exists || s.Length != 3 {
			t.Fatalf("vertex %d not rescored around out-of-range ids: %+v", v, s)
		}
	}
	m.RescoreDirty([]int{-5, 42}) // nothing in range: a no-op, not a panic
}

func TestTopOnAcyclicGraph(t *testing.T) {
	g := graph.New(4)
	_ = g.AddEdge(0, 1)
	_ = g.AddEdge(1, 2)
	m := build(t, g, 3)
	if top := m.Top(); len(top) != 0 {
		t.Fatalf("acyclic Top = %v", top)
	}
	if err := m.InsertEdge(2, 0); err != nil {
		t.Fatal(err)
	}
	top := m.Top()
	if len(top) != 3 || !top[0].Exists || top[0].Length != 3 {
		t.Fatalf("after closing cycle: %v", top)
	}
}

// countingQuerier counts the vertices a scoreboard asks it for (the
// warm pass asks from several workers at once).
type countingQuerier struct {
	Querier
	asked atomic.Int64
}

func (q *countingQuerier) CycleCountMany(vs []int, lengths []int, counts []uint64) {
	q.asked.Add(int64(len(vs)))
	q.Querier.CycleCountMany(vs, lengths, counts)
}

// After a batch, RescoreDirty reads exactly the batch's dirty set where
// RescoreAll reads every vertex, and the two boards agree. The batches
// delete 32 intra-shard edges and then reinsert them, splitting and
// re-merging small components.
func TestRescoreDirtyReadsOnlyTheDirtySet(t *testing.T) {
	g := testgraphs.ManySmallSCC(600, 6, 1200, 8)
	n := g.NumVertices()
	x, _ := csc.BuildSharded(g, csc.Options{})
	q := &countingQuerier{Querier: indexQuerier{x}}
	m := Watch(q, 8, 2)
	if got := q.asked.Load(); got != int64(n) {
		t.Fatalf("warm pass read %d vertices, want n = %d", got, n)
	}

	var intra [][2]int
	for _, e := range g.Edges() {
		if s := x.ShardOf(e[0]); s >= 0 && s == x.ShardOf(e[1]) {
			intra = append(intra, e)
		}
	}
	rand.New(rand.NewSource(5)).Shuffle(len(intra), func(i, j int) { intra[i], intra[j] = intra[j], intra[i] })
	var del, ins []csc.EdgeOp
	for _, e := range intra[:32] {
		del = append(del, csc.Del(e[0], e[1]))
		ins = append(ins, csc.Ins(e[0], e[1]))
	}
	for bi, batch := range [][]csc.EdgeOp{del, ins} {
		st, err := x.ApplyBatch(batch, 2)
		if err != nil {
			t.Fatal(err)
		}
		dirty := csc.DirtyVertices(st)
		if len(dirty) == 0 || len(dirty) >= n {
			t.Fatalf("batch %d dirtied %d of %d vertices", bi, len(dirty), n)
		}
		q.asked.Store(0)
		m.RescoreDirty(dirty)
		if got := q.asked.Load(); got != int64(len(dirty)) {
			t.Fatalf("batch %d: dirty rescore read %d vertices, want len(dirty) = %d", bi, got, len(dirty))
		}
		full := Watch(indexQuerier{x}, 8, 2)
		for v := 0; v < n; v++ {
			if got, want := m.Score(v), full.Score(v); got != want {
				t.Fatalf("batch %d vertex %d: dirty board %+v, full rescore %+v", bi, v, got, want)
			}
		}
		if m.Tracked() != full.Tracked() {
			t.Fatalf("batch %d: dirty board tracks %d vertices, full rescore %d", bi, m.Tracked(), full.Tracked())
		}
	}
}
