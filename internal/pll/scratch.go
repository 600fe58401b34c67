package pll

import (
	"slices"
	"sync"

	"repro/internal/bitpack"
	"repro/internal/label"
)

// unreachScatter is the sentinel in the rank-indexed hub scatter. Any sum
// involving it is ≥ MaxDist, which no tentative BFS distance ever reaches,
// so probes need no sentinel branch.
const unreachScatter = int32(bitpack.MaxDist)

// Scratch is the private working state of one BFS pass: tentative
// distance/count arrays, the FIFO queue, the touched list used for O(pass)
// resets, and the rank-indexed hub scatter that turns the prune test from
// a two-list merge-join into a linear probe of the candidate's own list.
// Construction borrows one from the pool for the whole build; the engine
// keeps one for its update passes (see Index.scratch).
type Scratch struct {
	Dist    []int32
	Cnt     []uint64
	Queue   []int32
	Touched []int32

	// hub[r] holds the scattered distance of the anchor list's entry with
	// hub rank r, or unreachScatter when absent. maxHub is the anchor's
	// largest scattered rank (-1 for an empty anchor): lists are
	// rank-ascending, so probes stop once a candidate entry's hub exceeds
	// it — no later entry can share a hub with the anchor.
	hub    []int32
	maxHub int32

	// owner[v] == op marks label owner v as already recorded in the
	// current update op's TouchedOwners (beginOp starts an op), so each
	// owner is reported once per op without a per-op set.
	owner []uint32
	op    uint32

	// seedA and seedB hold an insertion's affected-hub seeds, Lin(a) and
	// Lout(b) as captured before its passes run.
	seedA, seedB []bitpack.Entry

	// del is the decremental update's step-1 state, materialized by the
	// first deletion that borrows this scratch (construction never does).
	del *deletionScratch
}

// deletionScratch holds the step-1 working set of DeleteEdge (over Gb)
// and DeleteCouple (over the base graph): the four pre-deletion BFS
// distance arrays, the SA/SB membership flags and lists, and the repair
// pass ranks.
type deletionScratch struct {
	dist   [4][]int32 // sd(·,a), sd(·,b), sd(a,·), sd(b,·); -1 = unreachable
	side   []uint8    // inSA | inSB | outSA flags per vertex
	sa, sb []int32
	ranks  []int
	drop   []int
}

// SA/SB membership flags of deletionScratch.side.
const (
	inSA uint8 = 1 << iota
	inSB
	outSA // the couple form's v_out ∈ SA, which differs from v_in ∈ SA at b
)

// deletion returns the scratch's deletion state reset for an n-vertex
// graph: distances all -1, no flags, empty lists.
func (s *Scratch) deletion(n int) *deletionScratch {
	if s.del == nil {
		s.del = &deletionScratch{}
	}
	d := s.del
	for i := range d.dist {
		d.dist[i] = slices.Grow(d.dist[i][:0], n)[:n]
		for v := range d.dist[i] {
			d.dist[i][v] = -1
		}
	}
	d.side = slices.Grow(d.side[:0], n)[:n]
	clear(d.side)
	d.sa, d.sb = d.sa[:0], d.sb[:0]
	return d
}

// beginOp starts one update op's owner dedupe over n vertices.
func (s *Scratch) beginOp(n int) {
	if len(s.owner) < n {
		s.owner = slices.Grow(s.owner, n-len(s.owner))[:n]
	}
	if s.op++; s.op == 0 { // wrapped: stale stamps could collide
		clear(s.owner)
		s.op = 1
	}
}

// firstTouch reports whether v is recorded for the first time in the
// current op, marking it.
func (s *Scratch) firstTouch(v int) bool {
	if s.owner[v] == s.op {
		return false
	}
	s.owner[v] = s.op
	return true
}

// scratchPool recycles Scratch allocations across indexes. With the
// SCC-sharded index, every shard is its own Index and batch-parallel
// updates run many per-shard streams and scoped rebuilds concurrently:
// pooling lets those streams share a handful of scratches (Grow only ever
// appends, so a scratch sized for one shard upgrades in place for a
// bigger one) instead of every shard pinning its own arrays for life.
var scratchPool = sync.Pool{New: func() any { return &Scratch{} }}

// GetScratch returns a pooled scratch grown for n vertices/ranks. The
// caller owns it exclusively until PutScratch.
func GetScratch(n int) *Scratch {
	s := scratchPool.Get().(*Scratch)
	s.Grow(n)
	return s
}

// PutScratch returns a scratch to the pool. The scratch must be clean —
// every Visit reset, every Scatter unscattered — which is the state every
// construction and update pass leaves it in.
func PutScratch(s *Scratch) {
	if s != nil {
		scratchPool.Put(s)
	}
}

// Grow re-sizes every scratch array for n vertices/ranks, preserving the
// sentinel invariants. It must run whenever the indexed graph gains
// vertices: the update passes index Dist/Cnt by vertex id and the hub
// scatter by rank, so a stale size turns the first post-growth update into
// an out-of-bounds access.
func (s *Scratch) Grow(n int) {
	for len(s.Dist) < n {
		s.Dist = append(s.Dist, -1)
		s.Cnt = append(s.Cnt, 0)
	}
	for len(s.hub) < n {
		s.hub = append(s.hub, unreachScatter)
	}
}

// Visit stamps a tentative distance and count, recording the cell for the
// end-of-pass reset.
func (s *Scratch) Visit(u int, d int32, c uint64) {
	s.Dist[u] = d
	s.Cnt[u] = c
	s.Touched = append(s.Touched, int32(u))
}

// Reset restores the Dist/Cnt cells touched since the last reset and
// empties the queue, keeping capacity.
func (s *Scratch) Reset() {
	for _, t := range s.Touched {
		s.Dist[t] = -1
		s.Cnt[t] = 0
	}
	s.Queue = s.Queue[:0]
	s.Touched = s.Touched[:0]
}

// Scatter loads the anchor list into the rank-indexed hub array, every
// distance raised by shift (a reduced CSC construction scatters Lout(v_out)
// with shift 1 for the Lout(v_in) it mirrors). Every Scatter must be
// paired with an Unscatter of the same list before the scratch is reused.
// Hubs ascend, so the last entry seen carries maxHub.
func (s *Scratch) Scatter(l *label.List, shift int) {
	s.maxHub = -1
	l.Each(func(e bitpack.Entry) bool {
		h := e.Hub()
		s.hub[h] = int32(e.Dist() + shift)
		s.maxHub = int32(h)
		return true
	})
}

// Unscatter clears the cells Scatter loaded.
func (s *Scratch) Unscatter(l *label.List) {
	l.Each(func(e bitpack.Entry) bool {
		s.hub[e.Hub()] = unreachScatter
		return true
	})
}

// Probe evaluates the prune test against the scattered anchor: the minimum
// of anchor(h)+dist over the candidate list's entries — the distance of
// label.Join with the anchor side turned into an O(1) array lookup. Values
// ≥ MaxDist mean "no common hub" and compare like Join's Unreachable.
//
// below is the caller's prune threshold (the tentative BFS distance): the
// scan stops at the first sum strictly under it, since any such sum
// already decides the prune. The running minimum can never drop below the
// threshold without returning, so when the scan completes the result is
// the exact minimum — which is all the classification test (dq == d)
// needs.
func (s *Scratch) Probe(l *label.List, below int) int {
	min := int32(bitpack.MaxDist)
	b := int32(below)
	for _, e := range l.Entries() {
		h := int32(e.Hub())
		if h > s.maxHub {
			break // rank-ascending: no further entry shares an anchor hub
		}
		if d := s.hub[h] + int32(e.Dist()); d < min {
			if d < b {
				return int(d)
			}
			min = d
		}
	}
	return int(min)
}
