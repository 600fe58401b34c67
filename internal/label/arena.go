package label

import (
	"repro/internal/bitpack"
)

// Arena is the frozen CSR form of a set of label lists: every list's
// entries live back-to-back in one contiguous allocation, with an offset
// array marking the spans. Freezing replaces thousands of small per-vertex
// allocations with a single slab, which removes GC pressure and makes the
// merge-join queries walk sequential memory.
//
// Each non-empty span is padded with a small mutable tail (cap > len), so
// dynamic inserts first grow in place inside the arena; only a list that
// outgrows its span is copied out by the runtime's append, detaching that
// one list while the rest stay packed. Deletes and in-place replacements
// always stay inside the span. The arena therefore never needs re-freezing
// for correctness — it is a layout optimization, not an ownership change.
//
// Empty lists take no slots: a full labeling has none (every vertex
// carries its self entry), and the lists a reduced CSC labeling leaves
// unstored (pll's reduced state) are derived into private slices before
// any write reaches them.
type Arena struct {
	entries []bitpack.Entry
	off     []int32 // len = lists+1; span i is entries[off[i]:off[i+1]]
	frozen  int     // live entries at freeze time
}

// ArenaPad is the spare capacity reserved per list so post-freeze inserts
// stay inside the arena. Two entries absorb the common case (a couple of
// maintained insertions) while costing 16 bytes per list.
const ArenaPad = 2

// Freeze packs every list of the given groups into a fresh arena and
// re-points each list at its span. The lists remain fully functional for
// queries and dynamic maintenance afterwards.
func Freeze(groups ...[]List) *Arena {
	lists, total := 0, 0
	for _, g := range groups {
		lists += len(g)
		for i := range g {
			if n := len(g[i].e); n > 0 {
				total += n + ArenaPad
			}
		}
	}
	a := &Arena{
		entries: make([]bitpack.Entry, total),
		off:     make([]int32, 0, lists+1),
	}
	pos := 0
	for _, g := range groups {
		for i := range g {
			l := &g[i]
			a.off = append(a.off, int32(pos))
			n := len(l.e)
			if n == 0 {
				l.e = nil
				continue
			}
			span := a.entries[pos : pos+n : pos+n+ArenaPad]
			copy(span, l.e)
			l.e = span
			a.frozen += n
			pos += n + ArenaPad
		}
	}
	a.off = append(a.off, int32(pos))
	return a
}

// Lists returns the number of frozen lists.
func (a *Arena) Lists() int { return len(a.off) - 1 }

// FrozenEntries returns the number of live entries at freeze time.
func (a *Arena) FrozenEntries() int { return a.frozen }

// Cap returns the arena's total slot count including per-list pads.
func (a *Arena) Cap() int { return len(a.entries) }

// Bytes returns the arena allocation size (8 bytes per slot).
func (a *Arena) Bytes() int { return 8 * len(a.entries) }

// Span returns the i-th list's slot range [start, end) inside the arena,
// pad included.
func (a *Arena) Span(i int) (start, end int) {
	return int(a.off[i]), int(a.off[i+1])
}
