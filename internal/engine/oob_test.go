package engine

import (
	"testing"

	"repro/internal/bfscount"
	"repro/internal/csc"
	"repro/internal/graph"
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
