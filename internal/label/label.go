// Package label provides the hub-label lists used by both the HP-SPC
// baseline and the CSC index: slices of 64-bit packed entries kept sorted
// by hub rank, so the SPCnt query (Equations 1-2 of the paper) is a single
// merge-join of an out-list and an in-list. Join (join.go) is that one
// kernel: it takes a distance bound, so unbounded reads, bounded
// screening reads and update-time prunes all share it.
package label

import (
	"sort"

	"repro/internal/bitpack"
)

// Unreachable is the distance returned by Join when the two lists share no
// hub within the bound (for an unbounded join: no path exists under the
// index).
const Unreachable = int(bitpack.MaxDist)

// List is a label list: packed entries in strictly ascending hub-rank
// order. The zero value is an empty, ready-to-use list.
//
// A list lives in one of two forms. The mutable form backs entries with a
// plain slice (possibly a span of the CSR Arena). After FreezeCompressed
// the slice is released and the list reads its section of a compressed
// Frozen arena through streaming cursors — Each, Lookup, and Join never
// materialize entries. Any mutation (or an explicit Entries /
// At call) thaws the list first: the section decodes back into a private
// slice and the list detaches from the arena until the next freeze.
type List struct {
	e  []bitpack.Entry
	fz *Frozen // non-nil while frozen; thawing detaches
	fi int32   // section index within fz
}

// Wrap returns a mutable list over e, which must hold hub-ascending
// entries. The list takes e over: the caller must not use it afterwards.
func Wrap(e []bitpack.Entry) List { return List{e: e} }

// Frozen reports whether the list currently reads from a compressed
// arena.
func (l *List) Frozen() bool { return l.fz != nil }

// thaw decodes the frozen section back into a private mutable slice and
// detaches the list from the arena. Thawing is driven by the single
// writer (updates); concurrent readers are the caller's concern, exactly
// as for slice mutation.
func (l *List) thaw() {
	if l.fz == nil {
		return
	}
	l.e = l.fz.decode(l.fi, l.e)
	l.fz.markThawed(l.fi)
	l.fz = nil
}

// Len returns the number of entries.
func (l *List) Len() int {
	if l.fz != nil {
		return l.fz.listLen(l.fi)
	}
	return len(l.e)
}

// At returns the i-th entry in rank order, thawing a frozen list (random
// access wants the materialized form; hot read paths use Each).
func (l *List) At(i int) bitpack.Entry {
	l.thaw()
	return l.e[i]
}

// Entries exposes the backing slice for read-only iteration, thawing a
// frozen list first. Read paths that must not thaw use Each.
func (l *List) Entries() []bitpack.Entry {
	l.thaw()
	return l.e
}

// Each calls fn for every entry in ascending hub order, stopping early
// when fn returns false. On a frozen list this streams the compressed
// section without materializing it; on a mutable list it is a plain
// range loop.
func (l *List) Each(fn func(bitpack.Entry) bool) {
	if l.fz == nil {
		for _, e := range l.e {
			if !fn(e) {
				return
			}
		}
		return
	}
	for c := l.fz.cursor(l.fi); c.ok; c.next() {
		if !fn(c.cur) {
			return
		}
	}
}

// AppendTo appends the list's entries to dst in ascending hub order and
// returns the extended slice. A frozen list decodes through one cursor
// without thawing; bulk readers (the writers, an expansion) use it
// instead of Each.
func (l *List) AppendTo(dst []bitpack.Entry) []bitpack.Entry {
	if l.fz == nil {
		return append(dst, l.e...)
	}
	c := l.fz.cursor(l.fi)
	return c.drain(dst)
}

// Lookup finds the entry with the given hub rank. Frozen lists seek
// through the sync records without thawing.
func (l *List) Lookup(hub int) (bitpack.Entry, bool) {
	if l.fz != nil {
		c := l.fz.cursor(l.fi)
		c.seekGE(hub)
		if c.ok && c.cur.Hub() == hub {
			return c.cur, true
		}
		return 0, false
	}
	i := l.search(hub)
	if i < len(l.e) && l.e[i].Hub() == hub {
		return l.e[i], true
	}
	return 0, false
}

func (l *List) search(hub int) int {
	return sort.Search(len(l.e), func(i int) bool { return l.e[i].Hub() >= hub })
}

// Append adds an entry. Construction emits hubs in descending rank
// priority, which is ascending rank *position*, so the common case is a
// plain append; out-of-order hubs fall back to a sorted insert. Appending
// an existing hub replaces its entry.
func (l *List) Append(e bitpack.Entry) {
	l.thaw()
	if n := len(l.e); n == 0 || l.e[n-1].Hub() < e.Hub() {
		l.e = append(l.e, e)
		return
	}
	l.Set(e)
}

// Set inserts e at its sorted position, replacing any entry with the same
// hub. It reports whether a new entry was inserted (vs. replaced).
func (l *List) Set(e bitpack.Entry) bool {
	l.thaw()
	i := l.search(e.Hub())
	if i < len(l.e) && l.e[i].Hub() == e.Hub() {
		l.e[i] = e
		return false
	}
	l.e = append(l.e, 0)
	copy(l.e[i+1:], l.e[i:])
	l.e[i] = e
	return true
}

// Remove deletes the entry with the given hub rank, reporting whether one
// existed.
func (l *List) Remove(hub int) bool {
	l.thaw()
	i := l.search(hub)
	if i >= len(l.e) || l.e[i].Hub() != hub {
		return false
	}
	l.e = append(l.e[:i], l.e[i+1:]...)
	return true
}

// Clone returns an independent mutable copy. Cloning a frozen list
// decodes its section without thawing the original.
func (l *List) Clone() List {
	if l.fz != nil {
		return List{e: l.fz.decode(l.fi, nil)}
	}
	return List{e: append([]bitpack.Entry(nil), l.e...)}
}

// Reset empties the list, keeping capacity. A frozen list just detaches
// (nothing to decode).
func (l *List) Reset() {
	if l.fz != nil {
		l.fz.markThawed(l.fi)
		l.fz = nil
		l.e = nil
		return
	}
	l.e = l.e[:0]
}

// Hubs returns the hub ranks present in the list.
func (l *List) Hubs() []int {
	hs := make([]int, 0, l.Len())
	l.Each(func(e bitpack.Entry) bool {
		hs = append(hs, e.Hub())
		return true
	})
	return hs
}

// Bytes returns the logical storage footprint of the list payload
// (8 bytes per entry, the paper's 64-bit label encoding) regardless of
// form — compressed physical bytes are reported by Frozen.Bytes.
func (l *List) Bytes() int { return 8 * l.Len() }
