package engine

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

// twoSixRings builds ring A over 0..5 and ring B over 6..11, plus the
// given extra edges — two shards when built sharded.
func twoSixRings(t *testing.T, extra ...[2]int) *graph.Digraph {
	t.Helper()
	g := graph.New(12)
	for k := 0; k < 6; k++ {
		if err := g.AddEdge(k, (k+1)%6); err != nil {
			t.Fatal(err)
		}
		if err := g.AddEdge(6+k, 6+(k+1)%6); err != nil {
			t.Fatal(err)
		}
	}
	for _, e := range extra {
		if err := g.AddEdge(e[0], e[1]); err != nil {
			t.Fatal(err)
		}
	}
	return g
}

func oobEngine(g *graph.Digraph, threshold int) *Engine {
	x, _ := csc.BuildSharded(g, csc.Options{})
	return New(x, Options{
		FlushInterval:       -1,
		UpdateWorkers:       1,
		OOBRebuildThreshold: threshold,
	})
}

// assertOracle checks every vertex against the indexless BFS oracle on
// the engine's own (quiesced) graph.
func assertOracle(t *testing.T, tag string, e *Engine) {
	t.Helper()
	fg := e.Index().Graph()
	for v := 0; v < e.NumVertices(); v++ {
		wl, wc := bfscount.CycleCount(fg, v)
		gl, gc := e.CycleCount(v)
		if gl != wl || gc != wc {
			t.Fatalf("%s: vertex %d: engine (%d,%d) != oracle (%d,%d)", tag, v, gl, gc, wl, wc)
		}
	}
}

// A batch that merges two shards into a component above the threshold
// must commit without an inline rebuild: during the out-of-band window
// every read is either the exact pre-batch answer (stale shard) or the
// exact post-batch one (swap landed), never garbage — and after
// WaitRebuilds the swap has invalidated the read cache, refreshed the
// top-k scoreboard through the post-swap hook, and cleared Degraded.
// At threshold 0 the same batch rebuilds inline: no stale window and no
// out-of-band rebuild.
func TestOOBRebuildStaleWindowThenSwap(t *testing.T) {
	merge := func(e *Engine) {
		t.Helper()
		// Break both rings and splice them into one 12-cycle.
		for _, del := range [][2]int{{0, 1}, {11, 6}} {
			if err := e.Delete(del[0], del[1]); err != nil {
				t.Fatal(err)
			}
		}
		for _, ins := range [][2]int{{0, 6}, {11, 1}} {
			if err := e.Insert(ins[0], ins[1]); err != nil {
				t.Fatal(err)
			}
		}
		e.Flush()
	}

	inline := oobEngine(twoSixRings(t), 0)
	defer inline.Close()
	merge(inline)
	for v := 0; v < 12; v++ {
		if l, c := inline.CycleCount(v); l != 12 || c != 1 {
			t.Fatalf("inline vertex %d: (%d,%d), want (12,1) at once", v, l, c)
		}
	}
	if st := inline.Stats(); st.OOBRebuilds != 0 || len(st.Degraded) != 0 {
		t.Fatalf("threshold 0 deferred: OOBRebuilds %d, Degraded %v", st.OOBRebuilds, st.Degraded)
	}

	e := oobEngine(twoSixRings(t), 8)
	defer e.Close()
	watch := e.WatchTopK(3)
	merge(e)

	// The out-of-band window: the swap may or may not have landed yet,
	// but every answer must be one of the two consistent states. Reading
	// here also primes the read cache, so the post-wait reads below prove
	// the swap invalidated it.
	for v := 0; v < 12; v++ {
		l, c := e.CycleCount(v)
		if !(l == 6 && c == 1) && !(l == 12 && c == 1) {
			t.Fatalf("stale window vertex %d: (%d,%d) is neither pre-batch (6,1) nor post-batch (12,1)", v, l, c)
		}
	}

	if err := e.WaitRebuilds(); err != nil {
		t.Fatal(err)
	}
	for v := 0; v < 12; v++ {
		if l, c := e.CycleCount(v); l != 12 || c != 1 {
			t.Fatalf("post-swap vertex %d: (%d,%d), want (12,1)", v, l, c)
		}
	}
	assertOracle(t, "post-swap", e)

	st := e.Stats()
	if len(st.Degraded) != 0 {
		t.Fatalf("Degraded = %v after WaitRebuilds", st.Degraded)
	}
	if st.OOBRebuilds != 1 {
		t.Fatalf("OOBRebuilds = %d, want 1", st.OOBRebuilds)
	}
	top := watch.Top()
	if len(top) == 0 {
		t.Fatal("top-k empty after swap")
	}
	for _, sc := range top {
		if sc.Length != 12 || sc.Count != 1 {
			t.Fatalf("top-k vertex %d scored (%d,%d) — swap hook did not rescore", sc.Vertex, sc.Length, sc.Count)
		}
	}
}

// A flapped bridge — split deferred, then the edge re-inserted — must
// leave the engine fully fresh at quiesce with the original answers,
// whether the flap dissolved the deferral (zero rebuilds) or the first
// rebuild won the race and a second one restored the merge.
func TestOOBFlapQuiesces(t *testing.T) {
	e := oobEngine(twoSixRings(t, [2]int{5, 6}, [2]int{11, 0}), 4)
	defer e.Close()

	if err := e.Delete(5, 6); err != nil {
		t.Fatal(err)
	}
	e.Flush()
	if err := e.Insert(5, 6); err != nil {
		t.Fatal(err)
	}
	e.Flush()
	if err := e.WaitRebuilds(); err != nil {
		t.Fatal(err)
	}

	st := e.Stats()
	if len(st.Degraded) != 0 {
		t.Fatalf("Degraded = %v after flap quiesce", st.Degraded)
	}
	assertOracle(t, "after flap", e)
}

// The durability barrier: snapshots and serialization must never
// capture a stale shard. A snapshot taken immediately after a deferring
// batch must recover — in a fresh engine — to the exact post-batch
// answers.
func TestOOBSnapshotBarrierAndRecovery(t *testing.T) {
	dir := t.TempDir()
	boot := func() (csc.Counter, error) {
		x, _ := csc.BuildSharded(twoSixRings(t), csc.Options{})
		return x, nil
	}
	opts := Options{FlushInterval: -1, UpdateWorkers: 1, OOBRebuildThreshold: 8}
	e, err := Open(dir, boot, opts)
	if err != nil {
		t.Fatal(err)
	}

	for _, del := range [][2]int{{0, 1}, {11, 6}} {
		if err := e.Delete(del[0], del[1]); err != nil {
			t.Fatal(err)
		}
	}
	for _, ins := range [][2]int{{0, 6}, {11, 1}} {
		if err := e.Insert(ins[0], ins[1]); err != nil {
			t.Fatal(err)
		}
	}
	e.Flush()
	// No WaitRebuilds: Snapshot itself must await the pending swap
	// rather than serialize a frozen shard.
	if err := e.Snapshot(); err != nil {
		t.Fatal(err)
	}
	if err := e.Close(); err != nil {
		t.Fatal(err)
	}

	e2, err := Open(dir, boot, opts)
	if err != nil {
		t.Fatal(err)
	}
	defer e2.Close()
	for v := 0; v < 12; v++ {
		if l, c := e2.CycleCount(v); l != 12 || c != 1 {
			t.Fatalf("recovered vertex %d: (%d,%d), want (12,1)", v, l, c)
		}
	}
	if st := e2.Stats(); len(st.Degraded) != 0 {
		t.Fatalf("recovered engine Degraded = %v", st.Degraded)
	}
}

// The race-gated swap stress (run with -race): reader goroutines hammer
// every vertex while a batch writer toggles random edges through a giant
// SCC and, each round, a bridge pair that merges a 10-ring into it or
// splits it off again. Merge and split both defer, so the shards freeze
// and their rebuilds swap in under the readers. Readers must never
// observe a torn answer across a swap epoch, and after every quiesce
// the answers equal the sequential oracle exactly. The read cache is
// off so every read joins the labels being swapped.
func TestOOBSwapStress(t *testing.T) {
	if testing.Short() {
		t.Skip("swap stress is not -short")
	}
	const (
		n       = 40 // giant SCC 0..n-1; the ring is n..n+ring-1
		m       = 120
		ring    = 10
		readers = 4
		rounds  = 6
	)
	giant := testgraphs.GiantSCC(n, m, 9)
	g := graph.New(n + ring)
	for u := 0; u < n; u++ {
		for _, v := range giant.Out(u) {
			_ = g.AddEdge(u, int(v))
		}
	}
	for k := 0; k < ring; k++ {
		_ = g.AddEdge(n+k, n+(k+1)%ring)
	}
	x, _ := csc.BuildSharded(g.Clone(), csc.Options{})
	e := New(x, Options{
		FlushInterval:       -1,
		UpdateWorkers:       1,
		NoCache:             true,
		OOBRebuildThreshold: 8,
	})
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
				v := r.Intn(n + ring)
				l, c := e.CycleCount(v)
				// Torn-read screen: every vertex lies on some cycle (the
				// giant SCC's or the ring's), whichever epoch answers.
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

	apply := func(kind OpKind, u, v int) {
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
	r := rand.New(rand.NewSource(13))
	for round := 0; round < rounds; round++ {
		// Random churn through the giant shard, mirrored to the oracle.
		for i := 0; i < 10; i++ {
			u, v := r.Intn(n), r.Intn(n)
			if u == v {
				continue
			}
			kind := OpInsert
			if r.Intn(2) == 0 {
				kind = OpDelete
			}
			apply(kind, u, v)
		}
		// The bridge pair: even rounds merge the ring in, odd rounds
		// split it off.
		bridge := OpInsert
		if round%2 == 1 {
			bridge = OpDelete
		}
		apply(bridge, 0, n)
		apply(bridge, n, 0)
		e.Flush()
		if err := e.WaitRebuilds(); err != nil {
			t.Fatal(err)
		}
		if !graph.Equal(e.Index().Graph(), ox.Graph()) {
			t.Fatalf("round %d: engine graph diverged from oracle", round)
		}
		for v := 0; v < n+ring; v++ {
			gl, gc := e.CycleCount(v)
			wl, wc := ox.CycleCount(v)
			if gl != wl || gc != wc {
				t.Fatalf("round %d vertex %d: engine (%d,%d), oracle (%d,%d)", round, v, gl, gc, wl, wc)
			}
		}
	}
	stop.Store(true)
	wg.Wait()
	st := e.Stats()
	if st.OpsRejected != 0 {
		t.Fatalf("writer rejected %d ops", st.OpsRejected)
	}
	if st.OOBRebuilds == 0 {
		t.Fatal("no out-of-band rebuild swapped in: the stress never crossed a swap")
	}
	t.Logf("%d out-of-band swaps, %d superseded", st.OOBRebuilds, st.OOBSuperseded)
}
