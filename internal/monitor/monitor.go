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
// The scoreboard holds scores for cycle-carrying vertices only, so its
// memory follows the cyclic share of the graph, not its vertex count;
// every other vertex reads as a zero Score. Dirty rescores share the
// monitor's persistent result buffers and the batched CycleCountMany
// read, so steady-state rescoring allocates only when the board grows.
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
	n int // vertex count: ids outside [0,n) never score

	mu     sync.RWMutex
	scores map[int32]Score // cycle-carrying vertices only

	// Persistent dirty-rescore state under its own lock: the result
	// buffers every CycleCountMany lands in, and the filtered vertex list
	// for dirty sets carrying out-of-range ids. bufMu serializes rescore
	// passes against each other; mu is taken only for the brief
	// scoreboard writeback, so Score/Top readers never wait out a full
	// board scan. Lock order: bufMu before mu.
	bufMu  sync.Mutex
	lenBuf []int
	cntBuf []uint64
	vsBuf  []int
}

// warmChunk bounds each warm-pass worker's result buffers: the pass
// reads every vertex, a chunk at a time, and keeps only the scores of
// cycle-carrying ones.
const warmChunk = 1024

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
	m := &TopK{q: q, k: k, n: q.NumVertices()}
	m.RescoreAll(workers)
	return m
}

// Index exposes the underlying index for queries (nil for an
// engine-attached monitor, which has no index of its own).
func (m *TopK) Index() *csc.Sharded { return m.x }

// RescoreAll refreshes every vertex — the warm pass. The given
// parallelism (0 = all cores) splits [0,n) into one range per worker;
// each worker reads its range warmChunk vertices at a time through its
// own bounded buffers and keeps only the cycle-carrying scores. The
// scan runs under the rescore lock — serializing against a concurrent
// RescoreDirty (the engine's post-batch hook) — while the scoreboard
// lock is taken only to swap in the new board, so Score/Top readers
// never wait out a full scan. In standalone wiring the index itself
// must still be quiescent.
func (m *TopK) RescoreAll(workers int) {
	if m.n == 0 {
		return
	}
	m.bufMu.Lock()
	defer m.bufMu.Unlock()
	parts := scanAll(m.n, workers, m.scanRange)
	total := 0
	for _, p := range parts {
		total += len(p)
	}
	scores := make(map[int32]Score, total)
	for _, p := range parts {
		for _, s := range p {
			scores[int32(s.Vertex)] = s
		}
	}
	m.mu.Lock()
	m.scores = scores
	m.mu.Unlock()
}

// scanRange reads SCCnt for every vertex of [lo,hi) and returns the
// cycle-carrying ones' scores.
func (m *TopK) scanRange(lo, hi int) []Score {
	c := min(warmChunk, hi-lo)
	vs, lens, cnts := make([]int, c), make([]int, c), make([]uint64, c)
	var found []Score
	for ; lo < hi; lo += c {
		c = min(c, hi-lo)
		for i := range c {
			vs[i] = lo + i
		}
		m.q.CycleCountMany(vs[:c], lens[:c], cnts[:c])
		for i, l := range lens[:c] {
			if l != bfscount.NoCycle {
				found = append(found, Score{Vertex: vs[i], Exists: true, Length: l, Count: cnts[i]})
			}
		}
	}
	return found
}

// RescoreDirty refreshes exactly the given vertices — the engine's
// post-batch hook calls this with each batch's dirty set, and the
// standalone update methods with each update's. One batched
// CycleCountMany read into the persistent buffers, then a scoreboard
// write under the lock: a vertex with a cycle gains or updates its
// score, one without drops it.
func (m *TopK) RescoreDirty(dirty []int) {
	if len(dirty) == 0 {
		return
	}
	m.bufMu.Lock()
	defer m.bufMu.Unlock()
	// Drop out-of-range ids before the batched query: the scoreboard has
	// no row for them. The common all-in-range case touches nothing.
	n := m.n
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
		if l := m.lenBuf[i]; l != bfscount.NoCycle {
			m.scores[int32(v)] = Score{Vertex: v, Exists: true, Length: l, Count: m.cntBuf[i]}
		} else {
			delete(m.scores, int32(v))
		}
	}
}

// growBuffers sizes the shared result buffers for n results.
func (m *TopK) growBuffers(n int) {
	if cap(m.lenBuf) < n {
		m.lenBuf = make([]int, n)
		m.cntBuf = make([]uint64, n)
	}
	m.lenBuf = m.lenBuf[:n]
	m.cntBuf = m.cntBuf[:n]
}

// scanAll splits [0,n) into one range per worker, runs f on each, and
// returns the results in range order.
func scanAll(n, workers int, f func(lo, hi int) []Score) [][]Score {
	workers = clampWorkers(workers, n)
	if workers <= 1 {
		return [][]Score{f(0, n)}
	}
	chunk := (n + workers - 1) / workers
	parts := make([][]Score, (n+chunk-1)/chunk)
	var wg sync.WaitGroup
	for i := range parts {
		lo := i * chunk
		hi := min(lo+chunk, n)
		wg.Add(1)
		go func() {
			defer wg.Done()
			parts[i] = f(lo, hi)
		}()
	}
	wg.Wait()
	return parts
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

// Score returns the current standing of one vertex: its score when a
// cycle passes through it, otherwise a non-existent score. Out-of-range
// vertices report a non-existent score rather than panicking — the
// serving surface passes client-supplied ids through here.
func (m *TopK) Score(v int) Score {
	if v < 0 || v >= m.n {
		return Score{Vertex: v}
	}
	m.mu.RLock()
	s, ok := m.scores[int32(v)]
	m.mu.RUnlock()
	if !ok {
		return Score{Vertex: v}
	}
	return s
}

// Tracked is the number of scores the board holds: the vertices that
// currently lie on a cycle.
func (m *TopK) Tracked() int {
	m.mu.RLock()
	defer m.mu.RUnlock()
	return len(m.scores)
}

// Top returns the current top-k scores among cycle-carrying vertices,
// highest count first. The selection scans only the held scores
// (nanoseconds each); the expensive part — the SCCnt queries — was
// already paid incrementally.
func (m *TopK) Top() []Score {
	m.mu.RLock()
	defer m.mu.RUnlock()
	top := make([]Score, 0, m.k+1)
	for _, s := range m.scores {
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
