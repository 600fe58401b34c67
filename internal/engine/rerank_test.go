package engine

import (
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/csc"
	"repro/internal/graph"
	"repro/internal/order"
	"repro/internal/testgraphs"
)

// rerankEngine builds a sharded engine with aggressive online re-ranking:
// sub-millisecond ticks, a one-hit eligibility floor, and a near-zero
// drift threshold, with the read cache off so every query exercises the
// hit-counting join kernel.
func rerankEngine(g *graph.Digraph) *Engine {
	x, _ := csc.BuildSharded(g, csc.Options{})
	return New(x, Options{
		FlushInterval:       -1,
		UpdateWorkers:       1,
		NoCache:             true,
		OOBRebuildThreshold: 8,
		ReRankInterval:      500 * time.Microsecond,
		ReRankMinHits:       1,
		ReRankDrift:         1e-9,
	})
}

// The online re-rank loop end to end: queries accumulate hub hits, the
// ticker picks the drifting shard, the rebuild runs out of band, and the
// swapped shard serves identical answers under its hit-weighted order.
func TestOnlineReRankFiresAndPreservesAnswers(t *testing.T) {
	g := testgraphs.GiantSCC(30, 90, 9)
	e := rerankEngine(g.Clone())
	defer e.Close()

	deadline := time.Now().Add(10 * time.Second)
	for e.Stats().ReRanks == 0 {
		if time.Now().After(deadline) {
			t.Fatal("no re-rank fired within deadline")
		}
		// Keep feeding the drift signal; the first tick after queries
		// lands the counters, a later one fires the re-rank.
		for v := 0; v < e.NumVertices(); v++ {
			e.CycleCount(v)
		}
		time.Sleep(time.Millisecond)
	}
	if err := e.WaitRebuilds(); err != nil {
		t.Fatal(err)
	}
	assertOracle(t, "post-re-rank", e)

	// The swapped shard carries Hits provenance (read under a reader
	// epoch, like the metrics collectors do).
	sx := e.Index()
	m := e.lock.rlock(0)
	stats := sx.ShardStats()
	m.RUnlock()
	tagged := false
	for _, st := range stats {
		if st.Order == order.Hits {
			tagged = true
		}
	}
	if !tagged {
		t.Fatalf("no shard tagged with hits provenance after re-rank: %+v", stats)
	}
	// The oracle reads above recorded hits, so the ticker may start
	// another re-rank at any time. Quiesce and read the stale set on the
	// writer goroutine, where re-ranks start, so none begins in between.
	var degraded []int
	if err := e.do(func() error {
		e.awaitRebuilds()
		degraded = e.ix.StaleShards()
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if len(degraded) != 0 {
		t.Fatalf("Degraded = %v after re-rank quiesce", degraded)
	}
}

// The race-gated swap stress (run with -race): re-rank swaps fire
// repeatedly while reader goroutines hammer the very shard being
// re-ranked and a batch writer toggles edges through it. Readers must
// never observe a stale or torn answer across a swap epoch — during a
// frozen window the exact pre-freeze answers, after a structural quiesce
// exactly the sequential oracle.
func TestReRankSwapStress(t *testing.T) {
	if testing.Short() {
		t.Skip("re-rank swap stress is not -short")
	}
	const (
		n       = 40
		m       = 120
		readers = 4
		rounds  = 6
	)
	g := testgraphs.GiantSCC(n, m, 9)
	e := rerankEngine(g.Clone())
	defer e.Close()
	ox, _ := csc.BuildSharded(g.Clone(), csc.Options{})

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
				// Torn-read screen: a giant-SCC member always lies on some
				// cycle, whichever epoch answers.
				if l == 0 || (l > 0 && c == 0) {
					t.Errorf("reader saw impossible answer (%d,%d) for %d", l, c, v)
					return
				}
				if r.Intn(16) == 0 {
					e.Stats()
				}
			}
		}(int64(2000 + rdr))
	}

	r := rand.New(rand.NewSource(13))
	for round := 0; round < rounds; round++ {
		// Let several re-rank ticks fire against a hot read stream.
		hot := time.Now().Add(15 * time.Millisecond)
		for time.Now().Before(hot) {
			for v := 0; v < n; v++ {
				e.CycleCount(v)
			}
		}
		// Structural churn through the same shard, mirrored to the oracle.
		for i := 0; i < 10; i++ {
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
		if err := e.WaitRebuilds(); err != nil {
			t.Fatal(err)
		}
		// Quiesce: whatever mix of re-rank and structural swaps landed,
		// answers equal the sequential oracle exactly.
		if !graph.Equal(e.Index().Graph(), ox.Graph()) {
			t.Fatalf("round %d: engine graph diverged from oracle", round)
		}
		for v := 0; v < n; v++ {
			gl, gc := e.CycleCount(v)
			wl, wc := ox.CycleCount(v)
			if gl != wl || gc != wc {
				t.Fatalf("round %d vertex %d: engine (%d,%d), oracle (%d,%d)", round, v, gl, gc, wl, wc)
			}
		}
	}
	stop.Store(true)
	wg.Wait()
	if st := e.Stats(); st.OpsRejected != 0 {
		t.Fatalf("writer rejected %d ops", st.OpsRejected)
	}
}
