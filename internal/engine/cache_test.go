package engine

import (
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/bfscount"
	"repro/internal/csc"
	"repro/internal/graph"
	"repro/internal/order"
	"repro/internal/testgraphs"
)

// The metamorphic cache-consistency suite: over the whole corpus, an
// engine with the result cache serves random update streams (including
// batches that merge and split components), and after every flushed
// round each vertex is read twice through the cached path — a fill and a
// hit — and both answers must equal an uncached index built fresh from
// the mirrored graph. On top of that, every vertex whose answer changed
// across the round must appear in the union of the round's dirty sets
// (the hook payload), which is what the cache invalidated — dirty-set
// exactness observed end to end through the serving surface.
func TestCacheConsistencyCorpus(t *testing.T) {
	if testing.Short() {
		t.Skip("corpus sweep is not -short")
	}
	for _, ng := range testgraphs.Corpus() {
		ng := ng
		t.Run(ng.Name, func(t *testing.T) {
			t.Parallel()
			mirror := ng.G.Clone()
			n := mirror.NumVertices()
			if n < 2 {
				t.Skip("no edges to churn")
			}
			ex, _ := csc.BuildSharded(ng.G.Clone(), csc.Options{Workers: 1})
			e := New(ex, Options{FlushInterval: -1, MaxBatch: 8, UpdateWorkers: 2})
			defer e.Close()

			// Dirty sets, one slice per applied batch. The hook runs on
			// the writer goroutine; reads below happen after Flush, which
			// synchronizes with it.
			var dirtySets [][]int
			e.OnBatch(func(_ []Op, dirty []int) {
				dirtySets = append(dirtySets, append([]int(nil), dirty...))
			})

			prevLen := make([]int, n)
			prevCnt := make([]uint64, n)
			fresh := func() *csc.Index {
				x, _ := csc.Build(mirror.Clone(), order.ByDegree(mirror), csc.Options{Workers: 1})
				return x
			}
			f := fresh()
			for v := 0; v < n; v++ {
				prevLen[v], prevCnt[v] = f.CycleCount(v)
			}

			r := rand.New(rand.NewSource(77))
			rounds := 6
			if n > 100 {
				rounds = 3
			}
			for round := 0; round < rounds; round++ {
				dirtySets = dirtySets[:0]
				for i := 0; i < 10; i++ {
					u, v := r.Intn(n), r.Intn(n)
					if u == v {
						continue
					}
					if mirror.HasEdge(u, v) {
						if err := mirror.RemoveEdge(u, v); err != nil {
							t.Fatal(err)
						}
						if err := e.Delete(u, v); err != nil {
							t.Fatal(err)
						}
					} else {
						if err := mirror.AddEdge(u, v); err != nil {
							t.Fatal(err)
						}
						if err := e.Insert(u, v); err != nil {
							t.Fatal(err)
						}
					}
				}
				e.Flush()

				union := make(map[int]bool)
				for _, ds := range dirtySets {
					for _, v := range ds {
						union[v] = true
					}
				}
				f := fresh()
				for v := 0; v < n; v++ {
					wl, wc := f.CycleCount(v)
					l1, c1 := e.CycleCount(v) // fill (or earlier-round hit)
					l2, c2 := e.CycleCount(v) // hit
					if l1 != wl || c1 != wc || l2 != wl || c2 != wc {
						t.Fatalf("round %d vertex %d: cached (%d,%d)/(%d,%d), fresh (%d,%d)",
							round, v, l1, c1, l2, c2, wl, wc)
					}
					if (prevLen[v] != wl || prevCnt[v] != wc) && !union[v] {
						t.Fatalf("round %d vertex %d: answer changed (%d,%d)->(%d,%d) outside the dirty sets",
							round, v, prevLen[v], prevCnt[v], wl, wc)
					}
					prevLen[v], prevCnt[v] = wl, wc
				}
			}
			if st := e.Stats(); st.CacheHits == 0 {
				t.Fatal("cache never hit across the whole stream")
			}
		})
	}
}

// With NoCache the engine must answer identically and report zero hits.
func TestCacheDisabled(t *testing.T) {
	g := testgraphs.ManySmallSCC(8, 4, 10, 3)
	n := g.NumVertices()
	ex, _ := csc.BuildSharded(g.Clone(), csc.Options{Workers: 1})
	ox, _ := csc.Build(g, order.ByDegree(g), csc.Options{Workers: 1})
	e := New(ex, Options{FlushInterval: -1, NoCache: true})
	defer e.Close()
	for v := 0; v < n; v++ {
		e.CycleCount(v)
		l, c := e.CycleCount(v)
		wl, wc := ox.CycleCount(v)
		if l != wl || c != wc {
			t.Fatalf("vertex %d: (%d,%d), want (%d,%d)", v, l, c, wl, wc)
		}
	}
	if st := e.Stats(); st.CacheHits != 0 || st.Queries == 0 {
		t.Fatalf("NoCache stats: %+v", st)
	}
}

// CycleCountBounded must agree with the unbounded answer filtered by the
// bound, on both the cached path (second read) and the miss path (first
// read after an invalidating batch), and for out-of-range vertices.
func TestCycleCountBounded(t *testing.T) {
	g := testgraphs.ManySmallSCC(6, 5, 8, 9)
	n := g.NumVertices()
	ex, _ := csc.BuildSharded(g, csc.Options{Workers: 1})
	e := New(ex, Options{FlushInterval: -1})
	defer e.Close()
	check := func() {
		t.Helper()
		for v := 0; v < n; v++ {
			wl, wc := e.CycleCount(v)
			for _, bound := range []int{2, 4, 5, 100} {
				l, c := e.CycleCountBounded(v, bound)
				if wl != -1 && wl <= bound {
					if l != wl || c != wc {
						t.Fatalf("vertex %d bound %d: (%d,%d), want (%d,%d)", v, bound, l, c, wl, wc)
					}
				} else if l != -1 || c != 0 {
					t.Fatalf("vertex %d bound %d: (%d,%d), want no cycle", v, bound, l, c)
				}
			}
		}
	}
	check()
	// Invalidate a ring, then re-check straight from the miss path.
	if err := e.Delete(0, 1); err != nil {
		t.Fatal(err)
	}
	e.Flush()
	check()
	if l, c := e.CycleCountBounded(-1, 10); l != -1 || c != 0 {
		t.Fatalf("out-of-range bounded read = (%d,%d)", l, c)
	}
	if l, c := e.CycleCountBounded(n, 10); l != -1 || c != 0 {
		t.Fatalf("out-of-range bounded read = (%d,%d)", l, c)
	}
}

// The top-k watch reads through the cache without inflating the client
// stats: Queries/CacheHits stay zero across the warm pass and hook
// rescores, yet the warm pass fills the cache so the very first client
// read is already a hit.
func TestWatchReadsUncounted(t *testing.T) {
	g := testgraphs.ManySmallSCC(6, 4, 6, 5)
	ex, _ := csc.BuildSharded(g, csc.Options{Workers: 1})
	e := New(ex, Options{FlushInterval: -1, MaxBatch: 8})
	defer e.Close()
	watch := e.WatchTopK(3)
	if st := e.Stats(); st.Queries != 0 || st.CacheHits != 0 {
		t.Fatalf("warm pass counted as client traffic: %+v", st)
	}
	if l, _ := e.CycleCount(0); l != 4 {
		t.Fatalf("CycleCount(0) length %d, want the ring", l)
	}
	if st := e.Stats(); st.Queries != 1 || st.CacheHits != 1 {
		t.Fatalf("first client read should be the only counted query and hit the warm slot: %+v", st)
	}
	if err := e.Delete(0, 1); err != nil {
		t.Fatal(err)
	}
	e.Flush() // hook rescores the dirty ring, uncounted
	if st := e.Stats(); st.Queries != 1 {
		t.Fatalf("hook rescore counted as client traffic: %+v", st)
	}
	if s := watch.Score(0); s.Exists {
		t.Fatalf("broken ring still scored: %+v", s)
	}
}

// The race-gated stress of cached reads during batch-parallel writes:
// readers hammer a small hot set — the shape that maximizes hit-path
// traffic racing invalidation — while the writer applies multi-op
// batches through the parallel planner. At every quiesce point the
// cached answers must match a sequential oracle, and the run must
// actually exercise both hits and invalidations. Run it with -race.
func TestConcurrentCachedReadStress(t *testing.T) {
	const (
		n       = 48
		m       = 120
		readers = 4
		rounds  = 6
		perRnd  = 30
	)
	if testing.Short() {
		t.Skip("concurrent stress is not -short")
	}
	g := randomGraph(n, m, 91)
	ex, _ := csc.BuildSharded(g.Clone(), csc.Options{})
	ox, _ := csc.Build(g, order.ByDegree(g), csc.Options{})
	e := New(ex, Options{MaxBatch: 16, FlushInterval: -1, UpdateWorkers: 4})
	defer e.Close()

	var stop atomic.Bool
	var wg sync.WaitGroup
	for rdr := 0; rdr < readers; rdr++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			r := rand.New(rand.NewSource(seed))
			hot := [4]int{r.Intn(n), r.Intn(n), r.Intn(n), r.Intn(n)}
			for !stop.Load() {
				v := hot[r.Intn(len(hot))]
				if l, c := e.CycleCount(v); l == 0 || (l < 0 && c != 0) {
					t.Errorf("impossible cached answer (%d,%d) for %d", l, c, v)
					return
				}
			}
		}(int64(9000 + rdr))
	}

	r := rand.New(rand.NewSource(23))
	for round := 0; round < rounds; round++ {
		for i := 0; i < perRnd; i++ {
			u, v := r.Intn(n), r.Intn(n)
			if u == v {
				continue
			}
			kind := OpInsert
			if r.Intn(2) == 0 {
				kind = OpDelete
			}
			if err := e.Enqueue(Op{Kind: kind, A: int32(u), B: int32(v)}); err != nil {
				t.Fatal(err)
			}
			var err error
			if kind == OpInsert {
				_, err = ox.InsertEdge(u, v)
			} else {
				_, err = ox.DeleteEdge(u, v)
			}
			if err != nil && err != graph.ErrDuplicateEdge && err != graph.ErrMissingEdge {
				t.Fatal(err)
			}
		}
		e.Flush()
		for v := 0; v < n; v++ {
			gl, gc := e.CycleCount(v)
			wl, wc := ox.CycleCount(v)
			if gl != wl || gc != wc {
				t.Fatalf("round %d vertex %d: cached (%d,%d), oracle (%d,%d)", round, v, gl, gc, wl, wc)
			}
		}
	}
	stop.Store(true)
	wg.Wait()
	st := e.Stats()
	if st.CacheHits == 0 {
		t.Fatal("hot-set readers never hit the cache")
	}
	if st.Batches == 0 {
		t.Fatal("no batches applied — the stress never invalidated anything")
	}
}

// The cache and the top-k scoreboard are sized by the vertices on a
// cycle, not by n: over 50,000 isolated vertices plus one triangle they
// hold exactly the triangle's three. Merging a 2-vertex tail into the
// cycle grows both to five (and the tail reads match the BFS oracle);
// deleting the merging edge shrinks both back to three.
func TestServingStateScalesWithCyclicShare(t *testing.T) {
	const n = 50_005 // triangle 0-1-2, tail 2→3→4, isolated 5..n-1
	g, err := graph.FromEdges(n, [][2]int{{0, 1}, {1, 2}, {2, 0}, {2, 3}, {3, 4}})
	if err != nil {
		t.Fatal(err)
	}
	mirror := g.Clone()
	ex, _ := csc.BuildSharded(g, csc.Options{Workers: 1})
	e := New(ex, Options{FlushInterval: -1})
	defer e.Close()
	watch := e.WatchTopK(4)
	sizes := func(want int) {
		t.Helper()
		if got := e.Stats().CacheSlots; got != want {
			t.Fatalf("cache holds %d slots, want %d", got, want)
		}
		if got := watch.Tracked(); got != want {
			t.Fatalf("scoreboard tracks %d vertices, want %d", got, want)
		}
	}
	reads := func(vs ...int) {
		t.Helper()
		for _, v := range vs {
			wl, wc := bfscount.CycleCount(mirror, v)
			for i := 0; i < 2; i++ { // fill, then hit
				if l, c := e.CycleCount(v); l != wl || c != wc {
					t.Fatalf("vertex %d read %d: (%d,%d), want (%d,%d)", v, i, l, c, wl, wc)
				}
			}
			if s := watch.Score(v); s.Exists != (wl != bfscount.NoCycle) || (s.Exists && (s.Length != wl || s.Count != wc)) {
				t.Fatalf("vertex %d score %+v, want (%d,%d)", v, s, wl, wc)
			}
		}
	}
	sizes(3)
	reads(0, 1, 2, 3, 4, 5, n-1)
	sizes(3) // reads of trivial vertices allocate nothing

	if err := mirror.AddEdge(4, 0); err != nil {
		t.Fatal(err)
	}
	if err := e.Insert(4, 0); err != nil {
		t.Fatal(err)
	}
	e.Flush()
	sizes(5)
	reads(0, 1, 2, 3, 4, 5)

	if err := mirror.RemoveEdge(4, 0); err != nil {
		t.Fatal(err)
	}
	if err := e.Delete(4, 0); err != nil {
		t.Fatal(err)
	}
	e.Flush()
	sizes(3)
	reads(0, 1, 2, 3, 4, 5)
}
