// Package monitor maintains a continuously correct SCCnt scoreboard over
// a dynamic graph — the fraud-detection loop from the paper's
// introduction turned into a primitive. The scoreboard re-scores only the
// dirty set of each update (the label engine reports exactly the vertices
// whose answers can have changed), so the per-update monitoring cost is a
// handful of microsecond queries rather than a full scan.
//
// Two wirings exist. Under the serving engine (internal/engine), the
// monitor rides the engine's post-batch hook: the engine applies batches
// and hands the dirty set to RescoreDirty — served through the engine's
// epoch-tagged result cache, so each rescore also re-warms exactly the
// slots the batch expired — and Score/Top stay safe for concurrent
// readers while batches apply. Standalone, the monitor owns the index:
// route updates through InsertEdge/DeleteEdge.
//
// All rescore passes share the monitor's persistent result buffers and
// the batched CycleCountMany read, so steady-state rescoring allocates
// nothing.
package monitor

import (
	"errors"
	"runtime"
	"sort"
	"sync"

	"repro/internal/bfscount"
	"repro/internal/csc"
)

// Querier is the read surface the scoreboard needs. A standalone index
// satisfies it through the indexQuerier adapter; the serving engine
// implements it directly (cached, epoch-protected reads).
type Querier interface {
	// NumVertices bounds the scoreboard.
	NumVertices() int
	// CycleCount answers SCCnt(v) (bfscount.NoCycle when none).
	CycleCount(v int) (length int, count uint64)
	// CycleCountMany evaluates SCCnt for every vertex of vs into the
	// caller's buffers — the allocation-free batch read every rescore
	// pass uses.
	CycleCountMany(vs []int, lengths []int, counts []uint64)
}

// indexQuerier adapts a standalone index to the Querier surface. The
// batch read is a plain loop — the index has nothing to amortize across
// a batch; the contract's point is that results land in caller buffers
// (the serving engine's implementation additionally reads each vertex
// through its cache inside its own epoch).
type indexQuerier struct{ *csc.Sharded }

func (q indexQuerier) NumVertices() int { return q.Graph().NumVertices() }

func (q indexQuerier) CycleCountMany(vs []int, lengths []int, counts []uint64) {
	for i, v := range vs {
		lengths[i], counts[i] = q.CycleCount(v)
	}
}

// Score is one vertex's standing.
type Score struct {
	Vertex int
	// Exists reports whether any cycle passes through the vertex.
	Exists bool
	// Length is the shortest cycle length when Exists.
	Length int
	// Count is the number of shortest cycles when Exists.
	Count uint64
}

// rankBefore orders scores the way the case study reads Figure 13: higher
// counts first, shorter cycles break ties, vertex id stabilizes.
func rankBefore(a, b Score) bool {
	if a.Exists != b.Exists {
		return a.Exists
	}
	if a.Count != b.Count {
		return a.Count > b.Count
	}
	if a.Length != b.Length {
		return a.Length < b.Length
	}
	return a.Vertex < b.Vertex
}

// TopK watches every vertex's SCCnt under updates. Score and Top may run
// concurrently with rescores (the scoreboard is mutex-guarded); index
// queries themselves are synchronized by whoever applies the updates (or
// by the engine's reader epochs, in engine wiring).
type TopK struct {
	q Querier
	x *csc.Sharded // standalone (index-owning) mode only; nil under Watch
	k int

	mu     sync.RWMutex
	scores []Score // fixed length; only the mu-guarded contents change

	// Persistent rescore state under its own lock: the identity list for
	// full scans, the result buffers every CycleCountMany lands in, and
	// the filtered vertex list for dirty sets carrying out-of-range ids
	// — so steady-state rescoring allocates nothing. bufMu serializes
	// rescore passes against each other; mu is taken only for the brief
	// scoreboard writeback, so Score/Top readers never wait out a full
	// board scan. Lock order: bufMu before mu.
	bufMu  sync.Mutex
	allVs  []int
	lenBuf []int
	cntBuf []uint64
	vsBuf  []int
}

// errReadOnly is returned by the update methods of an engine-attached
// (Watch-constructed) monitor: the engine owns the index there.
var errReadOnly = errors.New("monitor: read-only wiring — apply updates through the engine, not the monitor")

// New wraps an index and scores every vertex once, using every core for
// the warm pass. In standalone use the monitor owns the index from here
// on: route updates through TopK's methods.
func New(x *csc.Sharded, k int) *TopK { return NewParallel(x, k, 0) }

// NewParallel is New with explicit warm-pass parallelism (0 = all cores,
// clamped to the vertex count).
func NewParallel(x *csc.Sharded, k, workers int) *TopK {
	m := Watch(indexQuerier{x}, k, workers)
	m.x = x
	return m
}

// Watch wraps a bare read surface — the serving engine, in the wiring
// engine.WatchTopK sets up — and scores every vertex once. The returned
// monitor is read-only: updates flow through whoever owns the Querier,
// which reports each batch's dirty set to RescoreDirty.
func Watch(q Querier, k, workers int) *TopK {
	n := q.NumVertices()
	m := &TopK{q: q, k: k, scores: make([]Score, n)}
	m.RescoreAll(workers)
	return m
}

// Index exposes the underlying index for queries (nil for an
// engine-attached monitor, which has no index of its own).
func (m *TopK) Index() *csc.Sharded { return m.x }

// RescoreAll refreshes every vertex — the warm pass. The given
// parallelism (0 = all cores) splits the scan into chunks that land in
// disjoint ranges of the persistent buffers; no per-pass allocation
// remains after the first call. The scan runs under the rescore lock —
// serializing against a concurrent RescoreDirty (the engine's
// post-batch hook) on the shared buffers — while the scoreboard lock is
// taken only for the writeback, so Score/Top readers never wait out a
// full board scan. In standalone wiring the index itself must still be
// quiescent.
func (m *TopK) RescoreAll(workers int) {
	n := len(m.scores)
	if n == 0 {
		return
	}
	m.bufMu.Lock()
	defer m.bufMu.Unlock()
	m.growBuffers(n)
	if m.allVs == nil {
		m.allVs = make([]int, n)
		for v := range m.allVs {
			m.allVs[v] = v
		}
	}
	scanAll(n, workers, func(lo, hi int) {
		m.q.CycleCountMany(m.allVs[lo:hi], m.lenBuf[lo:hi], m.cntBuf[lo:hi])
	})
	m.mu.Lock()
	defer m.mu.Unlock()
	for v := 0; v < n; v++ {
		m.scores[v] = mkScore(v, m.lenBuf[v], m.cntBuf[v])
	}
}

// RescoreDirty refreshes exactly the given vertices — the engine's
// post-batch hook calls this with each batch's dirty set, and the
// standalone update methods with each update's. One batched
// CycleCountMany read into the persistent buffers, then a scoreboard
// write under the lock.
func (m *TopK) RescoreDirty(dirty []int) {
	if len(dirty) == 0 {
		return
	}
	m.bufMu.Lock()
	defer m.bufMu.Unlock()
	// Drop out-of-range ids before the batched query: the scoreboard has
	// no row for them. The common all-in-range case touches nothing.
	n := len(m.scores)
	for i, v := range dirty {
		if v < 0 || v >= n {
			m.vsBuf = append(m.vsBuf[:0], dirty[:i]...)
			for _, w := range dirty[i+1:] {
				if w >= 0 && w < n {
					m.vsBuf = append(m.vsBuf, w)
				}
			}
			dirty = m.vsBuf
			break
		}
	}
	if len(dirty) == 0 {
		return
	}
	m.growBuffers(len(dirty))
	m.q.CycleCountMany(dirty, m.lenBuf, m.cntBuf)
	m.mu.Lock()
	defer m.mu.Unlock()
	for i, v := range dirty {
		m.scores[v] = mkScore(v, m.lenBuf[i], m.cntBuf[i])
	}
}

// Rescore is the historical name of RescoreDirty.
func (m *TopK) Rescore(vertices []int) { m.RescoreDirty(vertices) }

// growBuffers sizes the shared result buffers for n results.
func (m *TopK) growBuffers(n int) {
	if cap(m.lenBuf) < n {
		m.lenBuf = make([]int, n)
		m.cntBuf = make([]uint64, n)
	}
	m.lenBuf = m.lenBuf[:n]
	m.cntBuf = m.cntBuf[:n]
}

// scanAll splits [0,n) into one chunk per worker and runs f on each.
func scanAll(n, workers int, f func(lo, hi int)) {
	workers = clampWorkers(workers, n)
	if workers <= 1 {
		f(0, n)
		return
	}
	var wg sync.WaitGroup
	chunk := (n + workers - 1) / workers
	for lo := 0; lo < n; lo += chunk {
		hi := lo + chunk
		if hi > n {
			hi = n
		}
		wg.Add(1)
		go func(lo, hi int) {
			defer wg.Done()
			f(lo, hi)
		}(lo, hi)
	}
	wg.Wait()
}

func mkScore(v, l int, c uint64) Score {
	s := Score{Vertex: v}
	if l != bfscount.NoCycle {
		s.Exists = true
		s.Length = l
		s.Count = c
	}
	return s
}

// InsertEdge applies a maintained insertion and refreshes exactly the
// vertices whose labels changed (standalone, index-owning mode).
func (m *TopK) InsertEdge(a, b int) error {
	if m.x == nil {
		return errReadOnly
	}
	st, err := m.x.InsertEdge(a, b)
	if err != nil {
		return err
	}
	m.RescoreDirty(csc.DirtyVertices(st))
	return nil
}

// DeleteEdge applies a maintained deletion and refreshes touched vertices.
func (m *TopK) DeleteEdge(a, b int) error {
	if m.x == nil {
		return errReadOnly
	}
	st, err := m.x.DeleteEdge(a, b)
	if err != nil {
		return err
	}
	m.RescoreDirty(csc.DirtyVertices(st))
	return nil
}

// Score returns the current standing of one vertex. Out-of-range
// vertices report a non-existent score rather than panicking — the
// serving surface passes client-supplied ids through here.
func (m *TopK) Score(v int) Score {
	m.mu.RLock()
	defer m.mu.RUnlock()
	if v < 0 || v >= len(m.scores) {
		return Score{Vertex: v}
	}
	return m.scores[v]
}

// Top returns the current top-k scores among cycle-carrying vertices,
// highest count first. The selection scans the in-memory scoreboard
// (nanoseconds per vertex); the expensive part — the SCCnt queries — was
// already paid incrementally.
func (m *TopK) Top() []Score {
	m.mu.RLock()
	defer m.mu.RUnlock()
	top := make([]Score, 0, m.k+1)
	for _, s := range m.scores {
		if !s.Exists {
			continue
		}
		i := sort.Search(len(top), func(i int) bool { return rankBefore(s, top[i]) })
		if i >= m.k {
			continue
		}
		top = append(top, Score{})
		copy(top[i+1:], top[i:])
		top[i] = s
		if len(top) > m.k {
			top = top[:m.k]
		}
	}
	return top
}

func clampWorkers(workers, n int) int {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > n {
		workers = n
	}
	return workers
}
