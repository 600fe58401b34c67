package pll

import (
	"slices"

	"repro/internal/bipartite"
	"repro/internal/bitpack"
	"repro/internal/graph"
	"repro/internal/label"
	"repro/internal/order"
)

// The reduced state stores a CSC labeling the way the paper's index
// reduction (§IV-E) sizes it. The index is over a bipartite conversion
// Gb whose couples (v_in, v_out) hold consecutive ranks, v_in first. v_in's
// only out-edge goes to v_out and v_out's only in-edge comes from v_in, so
// two of a couple's four lists are shifted copies of the other two:
//
//   - Lin(v_out) is Lin(v_in) with every distance +1, then v_out's self
//     entry;
//   - Lout(v_in) is Lout(v_out) without its cycle entry (hub v_in) and its
//     self entry, with every distance +1, then v_in's self entry.
//
// A reduced index stores only Lin(v_in) and Lout(v_out) — exactly the two
// lists an SCCnt query joins — and keeps the two mirrored lists empty.
// EntryCount still counts the logical labeling. Reads need nothing else;
// every label mutation (INCCNT, decremental repair, vertex growth, a
// compressed freeze) first derives the mirrors back through Expand, so
// the dynamic algorithms always run on a full labeling. The writers emit
// the derived lists, so every snapshot format is unchanged.

// NewReduced allocates an empty index shell in the reduced state for a
// construction over a bipartite conversion that stores only Lin(v_in)
// and Lout(v_out). The construction must count every mirrored entry it
// does not store (CountMirrored).
func NewReduced(gb *graph.Digraph, ord *order.Order) *Index {
	idx := NewEmpty(gb, ord)
	idx.reduced = true
	return idx
}

// Reduced reports whether the index stores only Lin(v_in) and Lout(v_out).
func (idx *Index) Reduced() bool { return idx.reduced }

// CountMirrored records one entry of a mirrored list that a reduced
// construction does not store.
func (idx *Index) CountMirrored() {
	idx.entries++
	idx.mirrored++
}

// Expand derives the mirrored lists of a reduced index into one slab
// sized for them, each list followed by the arena's growth pad. The
// stored lists stay where they are: re-packing the arena would hold the
// old and the new copy of every label at once, and a collection that
// ran during the copy would set the next heap goal from both, leaving
// the process several MB larger for seconds. A full index is left as
// is.
func (idx *Index) Expand() {
	if !idx.reduced {
		return
	}
	slab := make([]bitpack.Entry, 0, idx.mirrored+label.ArenaPad*len(idx.In))
	wrap := func(lo int) label.List {
		hi := len(slab)
		for range label.ArenaPad {
			slab = append(slab, 0)
		}
		return label.Wrap(slab[lo:hi:len(slab)])
	}
	for vin := 0; vin+1 < len(idx.In); vin += 2 {
		vout := vin + 1
		lo := len(slab)
		slab = idx.deriveIn(vout, slab)
		idx.In[vout] = wrap(lo)
		lo = len(slab)
		slab = idx.deriveOut(vin, slab)
		idx.Out[vin] = wrap(lo)
	}
	idx.reduced, idx.mirrored = false, 0
	// The inverted indexes are rebuilt lazily from the full labeling.
	idx.invIn, idx.invOut = nil, nil
}

// Reduce drops the mirrored lists of a full index whose mirrors all equal
// their derivation, re-packs the CSR arena without them, and reports
// whether the index is now reduced. An index with any mirror that differs
// from its derivation — or a compressed one, whose arena layout is fixed —
// stays full. Loaders call it, so a snapshot reloads as compact as the
// build that wrote it.
func (idx *Index) Reduce() bool {
	if idx.reduced {
		return true
	}
	if idx.frozen != nil || len(idx.In)%2 != 0 {
		return false
	}
	var buf []bitpack.Entry
	mirrored := 0
	for vin := 0; vin < len(idx.In); vin += 2 {
		vout := vin + 1
		buf = idx.deriveIn(vout, buf[:0])
		if !slices.Equal(idx.In[vout].Entries(), buf) {
			return false
		}
		mirrored += len(buf)
		buf = idx.deriveOut(vin, buf[:0])
		if !slices.Equal(idx.Out[vin].Entries(), buf) {
			return false
		}
		mirrored += len(buf)
	}
	for vin := 0; vin < len(idx.In); vin += 2 {
		idx.In[vin+1] = label.List{}
		idx.Out[vin] = label.List{}
	}
	idx.reduced, idx.mirrored = true, mirrored
	idx.invIn, idx.invOut = nil, nil
	if idx.arena != nil {
		idx.FreezeArena()
	}
	return true
}

// deriveIn appends the derivation of Lin(vout) to dst.
func (idx *Index) deriveIn(vout int, dst []bitpack.Entry) []bitpack.Entry {
	idx.In[bipartite.Couple(vout)].Each(func(e bitpack.Entry) bool {
		dst = append(dst, bitpack.Pack(e.Hub(), e.Dist()+1, e.Count()))
		return true
	})
	return append(dst, bitpack.Pack(idx.Ord.Rank(vout), 0, 1))
}

// deriveOut appends the derivation of Lout(vin) to dst.
func (idx *Index) deriveOut(vin int, dst []bitpack.Entry) []bitpack.Entry {
	vout := bipartite.Couple(vin)
	rin, rout := idx.Ord.Rank(vin), idx.Ord.Rank(vout)
	idx.Out[vout].Each(func(e bitpack.Entry) bool {
		if h := e.Hub(); h != rin && h != rout {
			dst = append(dst, bitpack.Pack(h, e.Dist()+1, e.Count()))
		}
		return true
	})
	return append(dst, bitpack.Pack(rin, 0, 1))
}

// isMirror reports whether v's in-list (in) or out-list is a mirror the
// index does not store.
func (idx *Index) isMirror(v int, in bool) bool {
	return idx.reduced && in != bipartite.IsIn(v)
}

// derive appends the derivation of v's mirrored in-list (in) or out-list
// to dst.
func (idx *Index) derive(v int, in bool, dst []bitpack.Entry) []bitpack.Entry {
	if in {
		return idx.deriveIn(v, dst)
	}
	return idx.deriveOut(v, dst)
}

// ResidentBytes is the label payload the index physically holds: 8 bytes
// per entry stored in the CSR arena or in a private list, or, for
// compressed labels, the compressed arena's bytes plus 8 per entry of the
// lists updates have thawed since the last freeze. It equals Bytes() for
// a full uncompressed labeling and about half of it for a reduced one,
// and costs O(1) unless thawed lists must be counted.
func (idx *Index) ResidentBytes() int {
	if idx.frozen == nil {
		return 8 * (idx.entries - idx.mirrored)
	}
	b := idx.frozen.Bytes()
	if idx.frozen.ThawedLists() > 0 {
		for _, side := range [][]label.List{idx.In, idx.Out} {
			for i := range side {
				if !side[i].Frozen() {
					b += side[i].Bytes()
				}
			}
		}
	}
	return b
}
