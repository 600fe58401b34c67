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
// EntryCount still counts the logical labeling. Its immutable form is the
// delta+varint arena (label.Frozen, via Freeze), about 2.2x smaller than
// the same lists as 8-byte CSR entries. A frozen reduced index is lean:
// it holds no List headers (In and Out are nil) — InLabel(v) and
// OutLabel(v) are by-value views of sections v and n+v of the store, the
// order FreezeCompressed lays In and Out out in — and, once its owner
// calls DropGraph, no graph either: Expand converts the owner's graph
// again at the first write. Reads stream the sections through cursors
// and never decode a list into memory. A reduced index nobody froze (a
// rebuild on the write path) keeps the stored lists in one slab
// (Compact). Every label mutation (INCCNT, decremental repair, vertex
// growth, a compressed freeze) first expands the index through Expand,
// so the dynamic algorithms always run on a full labeling of plain
// slices. The writers emit the derived lists, and a lean index writes
// its graph's conversion edge for edge, so every snapshot format is
// unchanged.

// NewReduced returns an index in the reduced state over a bipartite
// conversion gb under ord, whose stored lists are in (Lin(v_in), empty at
// every V_out vertex) and out (Lout(v_out), empty at every V_in vertex),
// both by Gb vertex id, and whose mirrored lists hold mirrored entries.
// The index takes the lists over. gb may be nil when the caller freezes
// the index and drops its graph (DropGraph) before anything else reads
// it.
func NewReduced(gb *graph.Digraph, ord *order.Order, in, out []label.List, mirrored int) *Index {
	idx := &Index{G: gb, Ord: ord, In: in, Out: out, reduced: true, mirrored: mirrored}
	idx.entries = mirrored
	for i := range in {
		idx.entries += in[i].Len() + out[i].Len()
	}
	return idx
}

// Reduced reports whether the index stores only Lin(v_in) and Lout(v_out).
func (idx *Index) Reduced() bool { return idx.reduced }

// Lean reports whether the index is reduced and frozen: it keeps only the
// frozen store of its stored lists, no List headers, and after DropGraph
// no graph.
func (idx *Index) Lean() bool { return idx.reduced && idx.frozen != nil }

// DropGraph lets a lean index forget G, which must be the bipartite
// conversion of src (bipartite.Convert): Expand converts src again at the
// first label write, and Encode writes src's conversion. The owner must
// not change src while the index is lean — it expands the index before
// its first write to src. src may be nil when the owner keeps its graph
// in another form: it then names src again before the first write and
// encodes through EncodeGb. Any other index keeps G.
func (idx *Index) DropGraph(src *graph.Digraph) {
	if idx.Lean() {
		idx.G, idx.src = nil, src
	}
}

// Expand turns a reduced index into a full one for its first label
// write. A lean index first gets its graph back (bipartite.Convert of
// the graph DropGraph named) and its List headers, then decodes its
// stored lists and derives the mirrored ones into one slab sized for
// exactly the full labeling, each couple's four lists side by side —
// Lin(v_in), Lin(v_out), Lout(v_out), Lout(v_in) — and drops the frozen
// store; each stored list decodes once, and its mirror derives from the
// copy already in the slab. An unfrozen one (a rebuild on the write
// path) keeps its stored slices where they are and derives only the
// mirrors into a slab, so the expansion never holds two 8-byte copies of
// a list. Every list in a slab is followed by the CSR arena's growth pad.
// The written index keeps plain slices; nothing freezes it again. A full
// index is left as is.
func (idx *Index) Expand() {
	if !idx.reduced {
		return
	}
	if idx.G == nil {
		idx.G, idx.src = bipartite.Convert(idx.src), nil
	}
	n := idx.Ord.Len()
	decode := idx.frozen != nil
	size, lists := idx.mirrored, n
	if decode {
		size, lists = idx.entries, 2*n
		idx.In, idx.Out = make([]label.List, n), make([]label.List, n)
	}
	slab := make([]bitpack.Entry, 0, size+label.ArenaPad*lists)
	wrap := func(lo int) (l label.List) {
		slab, l = padList(slab, lo)
		return l
	}
	for vin := 0; vin+1 < n; vin += 2 {
		vout := vin + 1
		lo := len(slab)
		if decode {
			sec := idx.frozen.Section(vin)
			slab = sec.AppendTo(slab)
			idx.In[vin] = wrap(lo)
			lo = len(slab)
		}
		slab = idx.deriveIn(vout, slab)
		idx.In[vout] = wrap(lo)
		lo = len(slab)
		if decode {
			sec := idx.frozen.Section(n + vout)
			slab = sec.AppendTo(slab)
			idx.Out[vout] = wrap(lo)
			lo = len(slab)
		}
		slab = idx.deriveOut(vin, slab)
		idx.Out[vin] = wrap(lo)
	}
	idx.reduced, idx.mirrored = false, 0
	idx.arena, idx.frozen = nil, nil
	// The inverted indexes are rebuilt lazily from the full labeling.
	idx.invIn, idx.invOut = nil, nil
}

// Compact moves an unfrozen reduced index's stored lists into one slab
// sized for exactly them, each list followed by the CSR arena's growth
// pad, as Expand lays out its slab: the construction's appends leave
// about 40% spare capacity behind, which the index would otherwise hold
// for life. A frozen or full index is left as is.
func (idx *Index) Compact() {
	if !idx.reduced || idx.frozen != nil {
		return
	}
	n := idx.Ord.Len()
	stored := idx.entries - idx.mirrored
	slab := make([]bitpack.Entry, 0, stored+label.ArenaPad*n)
	for vin := 0; vin+1 < n; vin += 2 {
		for _, l := range [2]*label.List{&idx.In[vin], &idx.Out[vin+1]} {
			lo := len(slab)
			slab = l.AppendTo(slab)
			slab, *l = padList(slab, lo)
		}
	}
}

// padList appends the CSR arena's growth pad behind the entries
// slab[lo:] and returns the grown slab and a list over those entries
// whose spare capacity is the pad.
func padList(slab []bitpack.Entry, lo int) ([]bitpack.Entry, label.List) {
	hi := len(slab)
	for range label.ArenaPad {
		slab = append(slab, 0)
	}
	return slab, label.Wrap(slab[lo:hi:len(slab)])
}

// Reduce drops the mirrored lists of a full index whose mirrors all equal
// their derivation, freezes the stored lists (Freeze), and reports
// whether the index is now reduced. An index with any mirror that differs
// from its derivation — or a compressed one, whose arena layout is fixed —
// stays full. The loaders call it (ReadReducedFrom) before anything is
// frozen, so a snapshot reloads as compact as the build that wrote it.
func (idx *Index) Reduce() bool {
	if idx.reduced {
		return true
	}
	if idx.compressed || len(idx.In)%2 != 0 {
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
	idx.Freeze()
	return true
}

// deriveIn appends the derivation of Lin(vout) to dst.
func (idx *Index) deriveIn(vout int, dst []bitpack.Entry) []bitpack.Entry {
	lo := len(dst)
	stored := idx.InLabel(bipartite.Couple(vout))
	dst = stored.AppendTo(dst)
	for i, e := range dst[lo:] {
		dst[lo+i] = bitpack.Pack(e.Hub(), e.Dist()+1, e.Count())
	}
	return append(dst, bitpack.Pack(idx.Ord.Rank(vout), 0, 1))
}

// deriveOut appends the derivation of Lout(vin) to dst.
func (idx *Index) deriveOut(vin int, dst []bitpack.Entry) []bitpack.Entry {
	vout := bipartite.Couple(vin)
	rin, rout := idx.Ord.Rank(vin), idx.Ord.Rank(vout)
	lo := len(dst)
	stored := idx.OutLabel(vout)
	dst = stored.AppendTo(dst)
	kept := dst[:lo]
	for _, e := range dst[lo:] {
		if h := e.Hub(); h != rin && h != rout {
			kept = append(kept, bitpack.Pack(h, e.Dist()+1, e.Count()))
		}
	}
	return append(kept, bitpack.Pack(rin, 0, 1))
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

// ResidentBytes is the label payload the index physically holds: the
// delta+varint arena's bytes while the labels are frozen (a reduced
// index's stored lists, or a compressed index's lists) plus 8 per entry
// of any list updates have thawed since, and otherwise 8 bytes per entry
// in the CSR arena or in plain slices. It equals Bytes() for a full
// uncompressed labeling and is about a quarter of it for a reduced one; it
// costs O(1) unless thawed lists must be counted.
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
