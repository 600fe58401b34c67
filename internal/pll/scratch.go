package pll

import (
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
// The engine owns one Scratch for sequential construction and updates;
// the parallel builder gives each worker its own.
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
}

// NewScratch allocates a scratch sized for n vertices/ranks.
func NewScratch(n int) *Scratch {
	s := &Scratch{}
	s.Grow(n)
	return s
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

// Scatter loads the anchor list into the rank-indexed hub array. Every
// Scatter must be paired with an Unscatter of the same list before the
// scratch is reused. Streaming through Each keeps a compressed-frozen
// anchor frozen; hubs ascend, so the last entry seen carries maxHub.
func (s *Scratch) Scatter(l *label.List) {
	s.maxHub = -1
	l.Each(func(e bitpack.Entry) bool {
		h := e.Hub()
		s.hub[h] = int32(e.Dist())
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
	if l.Frozen() {
		// Stream the compressed list without thawing; the early-stop rules
		// are identical to the slice loop below.
		l.Each(func(e bitpack.Entry) bool {
			h := int32(e.Hub())
			if h > s.maxHub {
				return false // rank-ascending: no further shared hub possible
			}
			if d := s.hub[h] + int32(e.Dist()); d < min {
				min = d
				if d < b {
					return false
				}
			}
			return true
		})
		return int(min)
	}
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

// stagedEntry is one label append produced by a speculative pass.
type stagedEntry struct {
	v       int32 // owner vertex
	checked bool  // survived a prune test; re-validated at merge time
	e       bitpack.Entry
}

// Stage buffers the appends of one hub BFS pass in emission order. The
// sequential builder commits stages as-is; the parallel builder re-validates
// the checked entries against the merged labels first, falling back to a
// rerun when an in-batch label would have pruned the pass differently.
type Stage struct {
	inSide bool // appends target In lists (else Out lists)
	ops    []stagedEntry

	// classification under the labels the pass observed; only the generic
	// engine tracks these (the skipping construction never did).
	classify     bool
	canonical    int
	nonCanonical int
}

// Reset empties the stage for a new pass targeting the given side.
func (st *Stage) Reset(inSide, classify bool) {
	st.inSide = inSide
	st.ops = st.ops[:0]
	st.classify = classify
	st.canonical = 0
	st.nonCanonical = 0
}

// Add records one append. checked marks entries that passed a prune test;
// unchecked entries (self labels, couple labels) are committed verbatim.
func (st *Stage) Add(v int, checked bool, e bitpack.Entry) {
	st.ops = append(st.ops, stagedEntry{v: int32(v), checked: checked, e: e})
}

// Canonical classifies the last added entry as canonical (dq > d) or not.
func (st *Stage) Canonical(canonical bool) {
	if !st.classify {
		return
	}
	if canonical {
		st.canonical++
	} else {
		st.nonCanonical++
	}
}
