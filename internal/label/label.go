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
// plain slice (possibly a span of the CSR Arena). A frozen list is a
// read-only view of one section of a Frozen arena (FreezeCompressed,
// Frozen.Section): Each, AppendTo, Lookup and Join stream the section
// through cursors and never materialize it. The section may alias a
// read-only mapping of an index file, so every call that needs the
// mutable slice (Entries, Append, Set, Remove, Reset) panics on a frozen
// list; its owner decodes the section into a fresh list first.
type List struct {
	e  []bitpack.Entry
	fz *Frozen // non-nil for a frozen view
	fi int32   // section index within fz
}

// Wrap returns a mutable list over e, which must hold hub-ascending
// entries. The list takes e over: the caller must not use it afterwards.
func Wrap(e []bitpack.Entry) List { return List{e: e} }

// Frozen reports whether the list is a read-only view of a compressed
// arena section.
func (l *List) Frozen() bool { return l.fz != nil }

// mutable panics on a frozen list, whose section is read-only.
func (l *List) mutable() {
	if l.fz != nil {
		panic("label: a frozen list is read-only")
	}
}

// Len returns the number of entries.
func (l *List) Len() int {
	if l.fz != nil {
		return l.fz.listLen(l.fi)
	}
	return len(l.e)
}

// Entries exposes the backing slice of a mutable list for read-only
// iteration. A frozen list has none: read it with Each or AppendTo.
func (l *List) Entries() []bitpack.Entry {
	l.mutable()
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
// returns the extended slice. A frozen list decodes through one cursor;
// bulk readers (the writers, an expansion) use it instead of Each.
func (l *List) AppendTo(dst []bitpack.Entry) []bitpack.Entry {
	if l.fz == nil {
		return append(dst, l.e...)
	}
	c := l.fz.cursor(l.fi)
	return c.drain(dst)
}

// Lookup finds the entry with the given hub rank. Frozen lists seek
// through the sync records.
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
	l.mutable()
	if n := len(l.e); n == 0 || l.e[n-1].Hub() < e.Hub() {
		l.e = append(l.e, e)
		return
	}
	l.Set(e)
}

// Set inserts e at its sorted position, replacing any entry with the same
// hub. It reports whether a new entry was inserted (vs. replaced).
func (l *List) Set(e bitpack.Entry) bool {
	l.mutable()
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
	l.mutable()
	i := l.search(hub)
	if i >= len(l.e) || l.e[i].Hub() != hub {
		return false
	}
	l.e = append(l.e[:i], l.e[i+1:]...)
	return true
}

// Clone returns an independent mutable copy. Cloning a frozen list
// decodes its section.
func (l *List) Clone() List {
	if l.fz != nil {
		c := l.fz.cursor(l.fi)
		return List{e: c.drain(make([]bitpack.Entry, 0, c.n))}
	}
	return List{e: append([]bitpack.Entry(nil), l.e...)}
}

// Reset empties the list, keeping capacity.
func (l *List) Reset() {
	l.mutable()
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
