package engine

import (
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/csc"
	"repro/internal/graph"
	"repro/internal/order"
)

// The concurrent acceptance test (run it with -race): N reader
// goroutines hammer CycleCount and the top-k watch while the writer
// applies a randomized insert/delete stream, and at every quiesce point
// the engine must answer exactly like an oracle index that applied the
// same stream sequentially. Coalescing makes the two equivalent by
// construction — the net batch against the live graph equals the net
// effect of the sequential stream — and this test is the proof.
func TestConcurrentStress(t *testing.T) {
	const (
		n       = 60
		m       = 150
		readers = 4
		rounds  = 8
		perRnd  = 40
	)
	if testing.Short() {
		t.Skip("concurrent stress is not -short")
	}

	// Engine and oracle start from identical builds of the same graph.
	g := randomGraph(n, m, 42)
	ex, _ := csc.BuildSharded(g.Clone(), csc.Options{})
	ox, _ := csc.Build(g, order.ByDegree(g), csc.Options{})

	e := New(ex, Options{MaxBatch: 16, FlushInterval: -1})
	defer e.Close()
	watch := e.WatchTopK(5)

	var stop atomic.Bool
	var wg sync.WaitGroup
	for rdr := 0; rdr < readers; rdr++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			r := rand.New(rand.NewSource(seed))
			for !stop.Load() {
				v := r.Intn(n)
				l, c := e.CycleCount(v)
				if l == 0 || (l < 0 && c != 0) {
					t.Errorf("reader saw impossible answer (%d,%d) for %d", l, c, v)
					return
				}
				if r.Intn(8) == 0 {
					watch.Top()
				}
				if r.Intn(8) == 0 {
					e.Stats()
				}
			}
		}(int64(1000 + rdr))
	}

	r := rand.New(rand.NewSource(7))
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
			// The oracle applies the same stream sequentially; redundant
			// ops are no-ops for it, as coalescing makes them for the
			// engine.
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

		// Quiesce point: the writer is idle (Flush returned, this
		// goroutine is the only enqueuer), readers keep running.
		if !graph.Equal(e.Index().Graph(), ox.Graph()) {
			t.Fatalf("round %d: engine graph diverged from oracle", round)
		}
		for v := 0; v < n; v++ {
			gl, gc := e.CycleCount(v)
			wl, wc := ox.CycleCount(v)
			if gl != wl || gc != wc {
				t.Fatalf("round %d vertex %d: engine (%d,%d), oracle (%d,%d)",
					round, v, gl, gc, wl, wc)
			}
			s := watch.Score(v)
			if s.Exists != (wl != -1) || (s.Exists && (s.Length != wl || s.Count != wc)) {
				t.Fatalf("round %d vertex %d: watch %+v, oracle (%d,%d)", round, v, s, wl, wc)
			}
		}
	}
	if st := e.Stats(); st.OpsRejected != 0 {
		t.Fatalf("writer rejected %d ops — coalescing let a conflict through", st.OpsRejected)
	}
	stop.Store(true)
	wg.Wait()
}
