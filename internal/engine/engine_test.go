package engine

import (
	"math/rand"
	"sync"
	"testing"
	"time"

	"repro/internal/csc"
	"repro/internal/graph"
)

// randomGraph builds a deterministic pseudo-random digraph.
func randomGraph(n, m int, seed int64) *graph.Digraph {
	r := rand.New(rand.NewSource(seed))
	g := graph.New(n)
	for g.NumEdges() < m {
		u, v := r.Intn(n), r.Intn(n)
		if u != v && !g.HasEdge(u, v) {
			_ = g.AddEdge(u, v)
		}
	}
	return g
}

func buildIndex(n, m int, seed int64) *csc.Sharded {
	g := randomGraph(n, m, seed)
	x, _ := csc.BuildSharded(g, csc.Options{})
	return x
}

func TestEngineBasicFlow(t *testing.T) {
	x := buildIndex(30, 60, 1)
	e := New(x, Options{})
	defer e.Close()

	// A triangle on vertices the random graph may not have connected.
	for _, p := range [][2]int{{0, 1}, {1, 2}, {2, 0}} {
		if e.Index().Graph().HasEdge(p[0], p[1]) {
			continue
		}
		if err := e.Insert(p[0], p[1]); err != nil {
			t.Fatal(err)
		}
	}
	e.Flush()
	l, _ := e.CycleCount(0)
	if l < 2 {
		t.Fatalf("vertex 0 should sit on a cycle after closing the triangle, got length %d", l)
	}

	// Queries agree with a direct index query at quiesce.
	for v := 0; v < e.NumVertices(); v++ {
		gl, gc := e.CycleCount(v)
		wl, wc := e.Index().CycleCount(v)
		if gl != wl || gc != wc {
			t.Fatalf("vertex %d: engine (%d,%d) vs index (%d,%d)", v, gl, gc, wl, wc)
		}
	}
}

func TestEngineRejectsBadOps(t *testing.T) {
	x := buildIndex(10, 20, 2)
	e := New(x, Options{})
	defer e.Close()

	if err := e.Insert(3, 3); err != graph.ErrSelfLoop {
		t.Fatalf("self-loop: got %v", err)
	}
	if err := e.Insert(-1, 3); err != graph.ErrVertexRange {
		t.Fatalf("negative vertex: got %v", err)
	}
	if err := e.Delete(3, 10); err != graph.ErrVertexRange {
		t.Fatalf("out-of-range vertex: got %v", err)
	}
	if l, c := e.CycleCount(99); l != -1 || c != 0 {
		// bfscount.NoCycle == -1
		t.Fatalf("out-of-range query: got (%d,%d)", l, c)
	}
	// A full-width id beyond int32 must be rejected, not wrap onto a
	// small valid vertex (1<<32+2 truncates to 2).
	if err := e.Insert(1<<32+2, 3); err != graph.ErrVertexRange {
		t.Fatalf("wrapping vertex id: got %v", err)
	}
	if e.Index().Graph().HasEdge(2, 3) {
		t.Fatal("wrapped id mutated the wrong edge")
	}
}

// Coalescing: duplicate inserts dedupe, insert+delete of the same edge
// cancels, and ops that are redundant against the live graph drop — the
// applied batch is the net effect.
func TestEngineCoalescesBatch(t *testing.T) {
	g := graph.New(6)
	_ = g.AddEdge(0, 1) // pre-existing edge
	x, _ := csc.BuildSharded(g, csc.Options{})
	e := New(x, Options{FlushInterval: time.Hour}) // nothing applies until Flush
	defer e.Close()

	ops := []Op{
		{OpInsert, 0, 1},                   // duplicate of a live edge: drops
		{OpInsert, 1, 2},                   // survives
		{OpInsert, 2, 3}, {OpDelete, 2, 3}, // cancels
		{OpDelete, 0, 1}, {OpInsert, 0, 1}, // cancels back to the live edge
		{OpInsert, 3, 4}, {OpInsert, 3, 4}, // dedupes to one insert
		{OpDelete, 4, 5}, // deleting an absent edge: drops
	}
	for _, op := range ops {
		if err := e.Enqueue(op); err != nil {
			t.Fatal(err)
		}
	}
	e.Flush()

	st := e.Stats()
	if st.OpsEnqueued != uint64(len(ops)) {
		t.Fatalf("enqueued %d, want %d", st.OpsEnqueued, len(ops))
	}
	if st.OpsApplied != 2 { // (1,2) and (3,4)
		t.Fatalf("applied %d ops, want 2", st.OpsApplied)
	}
	if st.OpsCoalesced != uint64(len(ops)-2) {
		t.Fatalf("coalesced %d ops, want %d", st.OpsCoalesced, len(ops)-2)
	}
	if st.OpsRejected != 0 {
		t.Fatalf("rejected %d ops, want 0", st.OpsRejected)
	}
	gr := e.Index().Graph()
	for _, want := range [][2]int{{0, 1}, {1, 2}, {3, 4}} {
		if !gr.HasEdge(want[0], want[1]) {
			t.Fatalf("edge %v missing after flush", want)
		}
	}
	if gr.HasEdge(2, 3) || gr.HasEdge(4, 5) {
		t.Fatal("cancelled/dropped edge was applied")
	}
}

func TestEngineOnBatchHook(t *testing.T) {
	x := buildIndex(20, 40, 3)
	e := New(x, Options{})
	defer e.Close()

	var mu sync.Mutex
	var batches [][]Op
	var touched [][]int
	e.OnBatch(func(applied []Op, tv []int) {
		mu.Lock()
		batches = append(batches, append([]Op(nil), applied...))
		touched = append(touched, append([]int(nil), tv...))
		mu.Unlock()
	})

	g := e.Index().Graph()
	var a, b int
	for a, b = 0, 1; g.HasEdge(a, b); b++ {
	}
	if err := e.Insert(a, b); err != nil {
		t.Fatal(err)
	}
	e.Flush()

	mu.Lock()
	defer mu.Unlock()
	if len(batches) != 1 || len(batches[0]) != 1 {
		t.Fatalf("hook saw batches %v", batches)
	}
	if got := batches[0][0]; got.Kind != OpInsert || int(got.A) != a || int(got.B) != b {
		t.Fatalf("hook op %+v, want insert (%d,%d)", got, a, b)
	}
	// The endpoints are always in the touched set.
	seen := map[int]bool{}
	for _, v := range touched[0] {
		seen[v] = true
	}
	if !seen[a] || !seen[b] {
		t.Fatalf("touched %v misses endpoints (%d,%d)", touched[0], a, b)
	}
}

// WatchTopK's hook-driven scoreboard must agree with full re-query after
// every flushed batch.
func TestWatchTopKStaysExact(t *testing.T) {
	x := buildIndex(25, 50, 4)
	e := New(x, Options{MaxBatch: 4, FlushInterval: -1})
	defer e.Close()
	w := e.WatchTopK(5)

	r := rand.New(rand.NewSource(7))
	n := e.NumVertices()
	for step := 0; step < 30; step++ {
		u, v := r.Intn(n), r.Intn(n)
		if u == v {
			continue
		}
		var err error
		if e.Index().Graph().HasEdge(u, v) {
			err = e.Delete(u, v)
		} else {
			err = e.Insert(u, v)
		}
		if err != nil {
			t.Fatal(err)
		}
		e.Flush()
		for q := 0; q < n; q++ {
			wl, wc := e.Index().CycleCount(q)
			s := w.Score(q)
			if s.Exists != (wl != -1) || (s.Exists && (s.Length != wl || s.Count != wc)) {
				t.Fatalf("step %d vertex %d: score %+v, want (%d,%d)", step, q, s, wl, wc)
			}
		}
	}
}

func TestEngineClosedErrors(t *testing.T) {
	x := buildIndex(10, 20, 5)
	e := New(x, Options{})
	if err := e.Close(); err != nil {
		t.Fatal(err)
	}
	if err := e.Insert(0, 1); err != ErrClosed {
		t.Fatalf("insert after close: %v", err)
	}
	if err := e.Snapshot(); err != ErrClosed {
		t.Fatalf("snapshot after close: %v", err)
	}
	// Close is idempotent.
	if err := e.Close(); err != nil {
		t.Fatal(err)
	}
	// Queries still work on the frozen state.
	if l, _ := e.CycleCount(0); l == 0 {
		t.Fatal("query after close broke")
	}
}

// The measurement behind the striped-RWMutex design decision: readers on
// a single RWMutex serialize on the shared reader count, shards don't.
func BenchmarkEpochRead(b *testing.B) {
	x := buildIndex(500, 1500, 6)
	e := New(x, Options{})
	defer e.Close()
	b.RunParallel(func(pb *testing.PB) {
		v := rand.Intn(500)
		for pb.Next() {
			e.CycleCount(v)
			v++
			if v >= 500 {
				v = 0
			}
		}
	})
}

func BenchmarkSingleRWMutexRead(b *testing.B) {
	x := buildIndex(500, 1500, 6)
	var mu sync.RWMutex
	b.RunParallel(func(pb *testing.PB) {
		v := rand.Intn(500)
		for pb.Next() {
			mu.RLock()
			x.CycleCount(v)
			mu.RUnlock()
			v++
			if v >= 500 {
				v = 0
			}
		}
	})
}
