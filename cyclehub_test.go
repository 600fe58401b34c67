package cyclehub

import (
	"bytes"
	"math"
	"math/rand"
	"strings"
	"testing"
)

func buildTriangle(t *testing.T) *Index {
	t.Helper()
	g, err := GraphFromEdges(4, [][2]int{{0, 1}, {1, 2}, {2, 0}, {2, 3}})
	if err != nil {
		t.Fatal(err)
	}
	return BuildIndex(g)
}

func TestQuickstartFlow(t *testing.T) {
	idx := buildTriangle(t)
	r := idx.CycleCount(0)
	if !r.Exists || r.Length != 3 || r.Count != 1 {
		t.Fatalf("CycleCount(0) = %+v", r)
	}
	if r := idx.CycleCount(3); r.Exists {
		t.Fatalf("vertex 3 should be cycle-free: %+v", r)
	}
	if err := idx.InsertEdge(3, 0); err != nil {
		t.Fatal(err)
	}
	// The new cycle through 3 is 3→0→1→2→3.
	if r := idx.CycleCount(3); !r.Exists || r.Length != 4 || r.Count != 1 {
		t.Fatalf("after insert: %+v", r)
	}
	if err := idx.DeleteEdge(3, 0); err != nil {
		t.Fatal(err)
	}
	if r := idx.CycleCount(3); r.Exists {
		t.Fatalf("after delete: %+v", r)
	}
}

func TestMatchesBFSBaseline(t *testing.T) {
	r := rand.New(rand.NewSource(31))
	n := 40
	g := NewGraph(n)
	for i := 0; i < 3*n; i++ {
		u, v := r.Intn(n), r.Intn(n)
		if u != v && !g.HasEdge(u, v) {
			_ = g.AddEdge(u, v)
		}
	}
	ref := g.Clone()
	idx := BuildIndex(g)
	for v := 0; v < n; v++ {
		if got, want := idx.CycleCount(v), CycleCountBFS(ref, v); got != want {
			t.Fatalf("vertex %d: index %+v, BFS %+v", v, got, want)
		}
	}
}

func TestMinimalityOption(t *testing.T) {
	g, _ := GraphFromEdges(3, [][2]int{{0, 1}, {1, 2}, {2, 0}})
	idx := BuildIndex(g, WithMinimality())
	if r := idx.CycleCount(1); !r.Exists || r.Length != 3 {
		t.Fatalf("minimality index broken: %+v", r)
	}
}

func TestStats(t *testing.T) {
	idx := buildTriangle(t)
	s := idx.Stats()
	if s.Entries == 0 || s.Bytes != 8*s.Entries || s.ReducedBytes >= s.Bytes {
		t.Fatalf("stats: %+v", s)
	}
}

func TestSerializeRoundtrip(t *testing.T) {
	idx := buildTriangle(t)
	var buf bytes.Buffer
	if _, err := idx.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := ReadIndex(&buf)
	if err != nil {
		t.Fatal(err)
	}
	for v := 0; v < 4; v++ {
		if got.CycleCount(v) != idx.CycleCount(v) {
			t.Fatalf("vertex %d differs after roundtrip", v)
		}
	}
	if got.Graph().NumEdges() != idx.Graph().NumEdges() {
		t.Fatal("graph lost in roundtrip")
	}
	// Loaded index stays dynamic.
	if err := got.InsertEdge(3, 0); err != nil {
		t.Fatal(err)
	}
	if r := got.CycleCount(3); !r.Exists {
		t.Fatal("loaded index not maintainable")
	}
}

func TestReadGraph(t *testing.T) {
	g, err := ReadGraph(strings.NewReader("3 2\n0 1\n1 2\n"))
	if err != nil {
		t.Fatal(err)
	}
	if g.NumVertices() != 3 || g.NumEdges() != 2 {
		t.Fatalf("parsed %d/%d", g.NumVertices(), g.NumEdges())
	}
}

func TestCycleCountAllParallel(t *testing.T) {
	r := rand.New(rand.NewSource(9))
	n := 200
	g := NewGraph(n)
	for i := 0; i < 3*n; i++ {
		u, v := r.Intn(n), r.Intn(n)
		if u != v && !g.HasEdge(u, v) {
			_ = g.AddEdge(u, v)
		}
	}
	idx := BuildIndex(g)
	seq := idx.CycleCountAll(1)
	par := idx.CycleCountAll(8)
	if len(seq) != n || len(par) != n {
		t.Fatal("wrong result length")
	}
	for v := range seq {
		if seq[v] != par[v] {
			t.Fatalf("vertex %d: sequential %+v != parallel %+v", v, seq[v], par[v])
		}
	}
}

func TestVertexGrowthAndDetach(t *testing.T) {
	g, _ := GraphFromEdges(3, [][2]int{{0, 1}, {1, 2}, {2, 0}})
	idx := BuildIndex(g)
	v, err := idx.AddVertex()
	if err != nil {
		t.Fatal(err)
	}
	if err := idx.InsertEdge(2, v); err != nil {
		t.Fatal(err)
	}
	if err := idx.InsertEdge(v, 0); err != nil {
		t.Fatal(err)
	}
	if r := idx.CycleCount(v); !r.Exists || r.Length != 4 {
		t.Fatalf("new vertex cycle: %+v", r)
	}
	removed, err := idx.DetachVertex(v)
	if err != nil || removed != 2 {
		t.Fatalf("DetachVertex = (%d, %v)", removed, err)
	}
	if r := idx.CycleCount(v); r.Exists {
		t.Fatalf("detached vertex still cyclic: %+v", r)
	}
	if r := idx.CycleCount(0); !r.Exists || r.Length != 3 {
		t.Fatalf("triangle broken by detach: %+v", r)
	}
}

func TestWatchTopK(t *testing.T) {
	g, _ := GraphFromEdges(5, [][2]int{{0, 1}, {1, 2}, {2, 0}, {2, 3}, {3, 4}})
	w := WatchTopK(BuildIndex(g), 3)
	top := w.Top()
	if len(top) != 3 || top[0].Result.Length != 3 {
		t.Fatalf("initial top = %v", top)
	}
	if err := w.InsertEdge(4, 2); err != nil {
		t.Fatal(err)
	}
	if s := w.Score(3); !s.Exists || s.Length != 3 {
		t.Fatalf("vertex 3 after closing 2→3→4→2: %+v", s)
	}
	if err := w.DeleteEdge(4, 2); err != nil {
		t.Fatal(err)
	}
	if s := w.Score(3); s.Exists {
		t.Fatalf("vertex 3 after reopening: %+v", s)
	}
}

func TestUpdateErrorsSurface(t *testing.T) {
	idx := buildTriangle(t)
	if err := idx.InsertEdge(0, 1); err == nil {
		t.Error("duplicate insert accepted")
	}
	if err := idx.DeleteEdge(1, 0); err == nil {
		t.Error("missing delete accepted")
	}
}

// Workers beyond the vertex count are clamped — a 3-vertex graph queried
// with 64 workers must not misbehave (and must not spawn 61 idle
// goroutines, which the clamp in csc.CycleCountAll guarantees).
func TestCycleCountAllClampsWorkers(t *testing.T) {
	idx := buildTriangle(t)
	res := idx.CycleCountAll(64)
	if len(res) != 4 {
		t.Fatalf("got %d results", len(res))
	}
	for v := 0; v < 3; v++ {
		if !res[v].Exists || res[v].Length != 3 {
			t.Fatalf("vertex %d: %+v", v, res[v])
		}
	}
	if res[3].Exists {
		t.Fatalf("vertex 3 off-cycle: %+v", res[3])
	}
}

func TestEngineFacade(t *testing.T) {
	g, _ := GraphFromEdges(5, [][2]int{{0, 1}})
	e, err := NewEngine(BuildIndex(g), WithTopK(2), WithBatch(8, -1))
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()

	for _, p := range [][2]int{{1, 2}, {2, 0}, {0, 1}} { // last one is redundant
		if err := e.InsertEdge(p[0], p[1]); err != nil {
			t.Fatal(err)
		}
	}
	e.Flush()
	if r := e.CycleCount(0); !r.Exists || r.Length != 3 {
		t.Fatalf("CycleCount(0) = %+v", r)
	}
	if r := e.CycleCount(99); r.Exists {
		t.Fatalf("out-of-range = %+v", r)
	}
	top := e.Top()
	if len(top) != 2 || !top[0].Result.Exists {
		t.Fatalf("Top = %+v", top)
	}
	if s := e.Score(0); !s.Exists || s.Length != 3 {
		t.Fatalf("Score(0) = %+v", s)
	}
	if s := e.Score(99); s.Exists { // out of range: no panic, no score
		t.Fatalf("Score(99) = %+v", s)
	}
	st := e.Stats()
	if st.OpsEnqueued != 3 || st.OpsApplied != 2 || st.OpsCoalesced != 1 {
		t.Fatalf("stats %+v", st)
	}
	if err := e.DeleteEdge(2, 0); err != nil {
		t.Fatal(err)
	}
	e.Flush()
	if r := e.CycleCount(0); r.Exists {
		t.Fatalf("cycle should be broken: %+v", r)
	}
}

// The read-path facade: bounded queries screen by length, repeat reads
// hit the result cache, and WithoutReadCache turns it off.
func TestEngineReadPathFacade(t *testing.T) {
	build := func() *Index {
		g, _ := GraphFromEdges(4, [][2]int{{0, 1}, {1, 2}, {2, 0}})
		return BuildIndex(g)
	}
	e, err := NewEngine(build(), WithBatch(8, -1))
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	if r := e.CycleCountBounded(0, 2); r.Exists {
		t.Fatalf("maxlen=2 should screen the triangle: %+v", r)
	}
	if r := e.CycleCountBounded(0, 3); !r.Exists || r.Length != 3 || r.Count != 1 {
		t.Fatalf("maxlen=3 = %+v", r)
	}
	e.CycleCount(1)
	e.CycleCount(1)
	if st := e.Stats(); st.CacheHits == 0 {
		t.Fatalf("repeat read never hit the cache: %+v", st)
	}

	nc, err := NewEngine(build(), WithoutReadCache(), WithBatch(8, -1))
	if err != nil {
		t.Fatal(err)
	}
	defer nc.Close()
	nc.CycleCount(1)
	if r := nc.CycleCount(1); !r.Exists || r.Length != 3 {
		t.Fatalf("uncached read = %+v", r)
	}
	if st := nc.Stats(); st.CacheHits != 0 {
		t.Fatalf("WithoutReadCache still hit: %+v", st)
	}

	idx := build()
	if r := idx.CycleCountBounded(0, 2); r.Exists {
		t.Fatalf("index maxlen=2 should screen the triangle: %+v", r)
	}
	if r := idx.CycleCountBounded(0, 3); !r.Exists || r.Length != 3 {
		t.Fatalf("index maxlen=3 = %+v", r)
	}
	// A huge client-supplied bound must behave as unbounded, not wrap
	// negative through the 2L-1 distance mapping.
	for _, bound := range []int{1<<62 + 1, math.MaxInt} {
		if r := idx.CycleCountBounded(0, bound); !r.Exists || r.Length != 3 || r.Count != 1 {
			t.Fatalf("index maxlen=%d = %+v, want the triangle", bound, r)
		}
	}
}

func TestEngineFacadeWALRecovery(t *testing.T) {
	dir := t.TempDir()
	boot := func() (*Index, error) {
		g, _ := GraphFromEdges(4, [][2]int{{0, 1}})
		return BuildIndex(g), nil
	}
	e, err := OpenEngine(dir, boot, WithBatch(4, -1))
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range [][2]int{{1, 2}, {2, 0}} {
		if err := e.InsertEdge(p[0], p[1]); err != nil {
			t.Fatal(err)
		}
	}
	e.Flush()
	var before bytes.Buffer
	if _, err := e.WriteTo(&before); err != nil {
		t.Fatal(err)
	}
	// "Kill" (Close persists nothing new — no final snapshot, per-batch
	// WAL fsyncs — it only releases the store lock, as process death
	// would), then reopen: bootstrap runs again (no snapshot yet) and the
	// WAL replays on top, so bytes match the pre-kill engine.
	if err := e.Close(); err != nil {
		t.Fatal(err)
	}
	e2, err := OpenEngine(dir, boot, WithBatch(4, -1))
	if err != nil {
		t.Fatal(err)
	}
	defer e2.Close()
	var after bytes.Buffer
	if _, err := e2.WriteTo(&after); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(before.Bytes(), after.Bytes()) {
		t.Fatal("recovered engine serialization differs from pre-kill state")
	}
	if r := e2.CycleCount(1); !r.Exists || r.Length != 3 {
		t.Fatalf("recovered CycleCount(1) = %+v", r)
	}
	// HTTP handler mounts over the facade.
	if e2.Handler() == nil {
		t.Fatal("nil handler")
	}
}

// An engine over the sharded default must absorb updates that merge and
// split components while serving, and recover them from the WAL.
func TestEngineShardedMergeSplitRecovery(t *testing.T) {
	dir := t.TempDir()
	boot := func() (*Index, error) {
		g, _ := GraphFromEdges(6, [][2]int{{0, 1}, {1, 2}, {3, 4}, {4, 5}})
		return BuildIndex(g), nil
	}
	e, err := OpenEngine(dir, boot, WithBatch(4, -1))
	if err != nil {
		t.Fatal(err)
	}
	// 2→0 closes {0,1,2}; 5→3 closes {3,4,5}; 2→3 plus 5→0 merges both.
	for _, p := range [][2]int{{2, 0}, {5, 3}, {2, 3}, {5, 0}} {
		if err := e.InsertEdge(p[0], p[1]); err != nil {
			t.Fatal(err)
		}
	}
	e.Flush()
	if r := e.CycleCount(0); !r.Exists || r.Length != 3 {
		t.Fatalf("CycleCount(0) = %+v", r)
	}
	if r := e.CycleCount(3); !r.Exists || r.Length != 3 {
		t.Fatalf("CycleCount(3) = %+v", r)
	}
	var before bytes.Buffer
	if _, err := e.WriteTo(&before); err != nil {
		t.Fatal(err)
	}
	if err := e.Close(); err != nil {
		t.Fatal(err)
	}
	e2, err := OpenEngine(dir, boot, WithBatch(4, -1))
	if err != nil {
		t.Fatal(err)
	}
	defer e2.Close()
	var after bytes.Buffer
	if _, err := e2.WriteTo(&after); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(before.Bytes(), after.Bytes()) {
		t.Fatal("recovered sharded engine state differs from pre-kill state")
	}
	// Splitting delete after recovery: break the merged component apart.
	if err := e2.DeleteEdge(2, 3); err != nil {
		t.Fatal(err)
	}
	e2.Flush()
	if r := e2.CycleCount(0); !r.Exists || r.Length != 3 {
		t.Fatalf("after split: CycleCount(0) = %+v", r)
	}
	if r := e2.CycleCount(3); !r.Exists || r.Length != 3 {
		t.Fatalf("after split: CycleCount(3) = %+v", r)
	}
}

func TestApplyBatchFacade(t *testing.T) {
	for _, workers := range []int{0, 1, 2, 8} {
		idx := buildTriangle(t)
		// One batch: flap the triangle edge (nets to nothing) and close
		// the 4-cycle through vertex 3.
		ops := []EdgeOp{
			{Delete: true, A: 0, B: 1},
			{A: 0, B: 1},
			{A: 3, B: 0},
		}
		if err := idx.ApplyBatch(ops, workers); err != nil {
			t.Fatalf("workers %d: %v", workers, err)
		}
		if r := idx.CycleCount(3); !r.Exists || r.Length != 4 || r.Count != 1 {
			t.Fatalf("workers %d: after batch: %+v", workers, r)
		}
		// An invalid batch is rejected whole: nothing applies.
		err := idx.ApplyBatch([]EdgeOp{{A: 1, B: 3}, {A: 1, B: 3}}, workers)
		if err == nil {
			t.Fatalf("workers %d: duplicate insert accepted", workers)
		}
		if idx.Graph().HasEdge(1, 3) {
			t.Fatalf("workers %d: rejected batch mutated the graph", workers)
		}
		if err := idx.ApplyBatch([]EdgeOp{{A: 0, B: -1}}, workers); err == nil {
			t.Fatalf("workers %d: out-of-range vertex accepted", workers)
		}
	}
}

func TestEngineWithUpdateWorkers(t *testing.T) {
	g, err := GraphFromEdges(6, [][2]int{{0, 1}, {1, 2}, {2, 0}, {3, 4}, {4, 5}, {5, 3}})
	if err != nil {
		t.Fatal(err)
	}
	eng, err := NewEngine(BuildIndex(g), WithUpdateWorkers(4), WithBatch(64, -1))
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	// Touch both shards in one logical burst; answers must match the
	// sequential semantics regardless of the worker pool.
	for _, e := range [][2]int{{2, 3}, {5, 0}} {
		if err := eng.InsertEdge(e[0], e[1]); err != nil {
			t.Fatal(err)
		}
	}
	eng.Flush()
	if r := eng.CycleCount(0); !r.Exists || r.Length != 3 {
		t.Fatalf("vertex 0 after merge: %+v", r)
	}
	if r := eng.CycleCount(3); !r.Exists {
		t.Fatalf("vertex 3 after merge: %+v", r)
	}
	st := eng.Stats()
	if st.OpsApplied == 0 || st.OpsRejected != 0 {
		t.Fatalf("stats after batch: %+v", st)
	}
}

func TestOrderingOptions(t *testing.T) {
	r := rand.New(rand.NewSource(47))
	n := 30
	g := NewGraph(n)
	for i := 0; i < 3*n; i++ {
		u, v := r.Intn(n), r.Intn(n)
		if u != v && !g.HasEdge(u, v) {
			_ = g.AddEdge(u, v)
		}
	}
	for _, s := range []Ordering{OrderDegree, OrderID, OrderRandom, OrderCoverage} {
		idx := BuildIndex(g.Clone(), WithOrdering(s))
		for v := 0; v < n; v++ {
			if got, want := idx.CycleCount(v), CycleCountBFS(g, v); got != want {
				t.Fatalf("%v vertex %d: index %+v, BFS %+v", s, v, got, want)
			}
		}
	}
	if _, err := ParseOrdering("coverage"); err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"bogus", "hits"} {
		if _, err := ParseOrdering(name); err == nil {
			t.Fatalf("unknown ordering %q accepted", name)
		}
	}
}

// Out-of-range ids answer "no cycle" through both the plain and the
// bounded read, instead of panicking. (The monolithic and v1 forms are
// checked in internal/csc: TestIndexOutOfRangeReads.)
func TestOutOfRangeReads(t *testing.T) {
	const n = 4
	g, _ := GraphFromEdges(n, [][2]int{{0, 1}, {1, 2}, {2, 0}, {2, 3}})
	idx := BuildIndex(g)
	if r := idx.CycleCount(0); !r.Exists || r.Length != 3 {
		t.Fatalf("CycleCount(0) = %+v, want the triangle", r)
	}
	for _, v := range []int{-1, n, n + 95} {
		if r := idx.CycleCount(v); r.Exists {
			t.Fatalf("CycleCount(%d) = %+v, want no cycle", v, r)
		}
		if r := idx.CycleCountBounded(v, 10); r.Exists {
			t.Fatalf("CycleCountBounded(%d, 10) = %+v, want no cycle", v, r)
		}
	}
}
