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
// order label.FreezeCompressed lays In and Out out in. Reads stream the
// sections through cursors and never decode a list into memory. A v3/v4
// file's arena (NewFileArena) is served the same way, with all four
// lists of every couple in the same layout. A reduced index nobody froze
// (a rebuild on the write path) keeps the stored lists in one slab
// (Compact). A reduced index holds no Gb: its owner names the base graph
// Gb converts (DropGraph). Under Redundancy, INCCNT and the decremental
// repair run in couple form (couple.go): the first write only decodes a
// frozen store's stored lists into one slab (Thaw), and every write walks
// the base graph and updates those two lists, so the index stays reduced
// for life. Minimality, vertex growth and a full index (a generic
// construction, a load whose mirrors are no derivations, a file arena)
// write through the generic engine over Gb, which Expand first builds:
// Gb converted from the base graph and all four lists in plain slices.
// The writers emit the derived lists, and an index without its Gb writes
// the base graph's conversion edge for edge, so every snapshot format is
// unchanged.

// NewReduced returns an index in the reduced state over a bipartite
// conversion under ord, whose stored lists are in (Lin(v_in), empty at
// every V_out vertex) and out (Lout(v_out), empty at every V_in vertex),
// both by Gb vertex id, and whose mirrored lists hold mirrored entries.
// The index takes the lists over. It holds no graph: the caller names
// the base graph (DropGraph) before anything reads one.
func NewReduced(ord *order.Order, in, out []label.List, mirrored int) *Index {
	idx := &Index{Ord: ord, In: in, Out: out, reduced: true, mirrored: mirrored}
	idx.entries = mirrored
	for i := range in {
		idx.entries += in[i].Len() + out[i].Len()
	}
	return idx
}

// NewFileArena returns a lean index over gb under ord that serves f, a
// v3/v4 file's label arena holding every list of the labeling: In[v] is
// section v and Out[v] section n+v, the layout of a reduced store. f may
// alias a read-only mapping of the file; nothing writes it. The first
// label write decodes it into plain slices (Expand), and nothing freezes
// the index again.
func NewFileArena(gb *graph.Digraph, ord *order.Order, f *label.Frozen) *Index {
	return &Index{G: gb, Ord: ord, frozen: f, entries: f.Entries()}
}

// Reduced reports whether the index stores only Lin(v_in) and Lout(v_out).
func (idx *Index) Reduced() bool { return idx.reduced }

// Lean reports whether the index serves a frozen store — a frozen
// reduced index's stored lists or a file arena — through sections: it
// keeps no List headers, and after DropGraph no graph.
func (idx *Index) Lean() bool { return idx.frozen != nil }

// DropGraph lets a reduced or lean index forget G, which must be the
// bipartite conversion of src (bipartite.Convert): a couple-form write
// walks src itself, Expand converts it again, and Encode writes its
// conversion. The owner changes src only through the couple-form writes,
// or expands the index first. src may be nil when the owner keeps its
// graph in another form: it then names src again before the first write
// and encodes through EncodeGb. A full index keeps G.
func (idx *Index) DropGraph(src *graph.Digraph) {
	if idx.Lean() || idx.reduced {
		idx.G, idx.src = nil, src
	}
}

// Expand turns a reduced or lean index into a full one of plain slices
// for the generic engine's first label write (see CoupleForm for the
// writes that need none). The index first gets its Gb back
// (bipartite.Convert of the graph DropGraph named), a lean one its List
// headers, then fills one slab sized for exactly the full labeling,
// each couple's four lists side by side — Lin(v_in), Lin(v_out),
// Lout(v_out), Lout(v_in) — and drops the frozen store: a list the store holds
// decodes once, and only a mirror it does not hold derives, from the
// copy already in the slab. A file arena holds every list, so a
// maintained mirror that drifted from its derivation survives byte for
// byte. An unfrozen reduced index (a rebuild on the write path) keeps
// its stored slices where they are and derives only the mirrors into a
// slab, so the expansion never holds two 8-byte copies of a list. Every
// list in a slab is followed by the CSR arena's growth pad. The written
// index keeps plain slices; nothing freezes it again. A full index of
// plain slices or a CSR arena is left as is.
func (idx *Index) Expand() {
	if !idx.reduced && idx.frozen == nil {
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
	for vin := 0; vin+1 < n; vin += 2 {
		vout := vin + 1
		for _, l := range [4]struct {
			v  int
			in bool
		}{{vin, true}, {vout, true}, {vout, false}, {vin, false}} {
			lo := len(slab)
			switch {
			case idx.isMirror(l.v, l.in):
				slab = idx.derive(l.v, l.in, slab)
			case decode:
				sec := l.v
				if !l.in {
					sec += n
				}
				view := idx.frozen.Section(sec)
				slab = view.AppendTo(slab)
			default:
				continue // an unfrozen stored list stays where it is
			}
			list := &idx.Out[l.v]
			if l.in {
				list = &idx.In[l.v]
			}
			slab, *list = padList(slab, lo)
		}
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
	if idx.reduced && idx.frozen == nil {
		idx.packStored()
	}
}

// packStored moves a reduced index's stored lists — plain slices, or
// the sections of its frozen store, which it then drops — into one slab
// sized for exactly them, each list followed by the CSR arena's growth
// pad.
func (idx *Index) packStored() {
	n := idx.Ord.Len()
	in, out := idx.In, idx.Out
	if in == nil {
		in, out = make([]label.List, n), make([]label.List, n)
	}
	slab := make([]bitpack.Entry, 0, idx.StoredEntries()+label.ArenaPad*n)
	for vin := 0; vin+1 < n; vin += 2 {
		for _, l := range [2]struct {
			src label.List
			dst *label.List
		}{{idx.InLabel(vin), &in[vin]}, {idx.OutLabel(vin + 1), &out[vin+1]}} {
			lo := len(slab)
			slab = l.src.AppendTo(slab)
			slab, *l.dst = padList(slab, lo)
		}
	}
	idx.In, idx.Out, idx.frozen = in, out, nil
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

// Reduce drops the mirrored lists of a full index of plain slices whose
// mirrors all equal their derivation (MirrorsDerived), freezes the
// stored lists (Freeze), and reports whether the index is now reduced.
// An index with any mirror that differs from its derivation stays full.
// The loaders call it (ReadReducedFrom) before anything is frozen, so a
// snapshot reloads as compact as the build that wrote it.
func (idx *Index) Reduce() bool {
	if idx.reduced {
		return true
	}
	if !idx.MirrorsDerived() {
		return false
	}
	mirrored := 0
	for vin := 0; vin < len(idx.In); vin += 2 {
		mirrored += idx.In[vin+1].Len() + idx.Out[vin].Len()
		idx.In[vin+1] = label.List{}
		idx.Out[vin] = label.List{}
	}
	idx.reduced, idx.mirrored = true, mirrored
	idx.invIn, idx.invOut = nil, nil
	idx.Freeze()
	return true
}

// MirrorsDerived reports whether every mirrored list of a labeling over
// a bipartite conversion — Lin(v_out) and Lout(v_in) of every couple —
// equals its derivation from the couple's stored lists. A reduced index
// derives them, so it reports true; the generic engine's deletes can
// leave a full one false (couple.go).
func (idx *Index) MirrorsDerived() bool {
	if idx.reduced {
		return true
	}
	n := idx.Ord.Len()
	if n%2 != 0 {
		return false
	}
	var want, got []bitpack.Entry
	for vin := 0; vin < n; vin += 2 {
		// The couple's mirrors: Lin(v_out), then Lout(v_in).
		for _, v := range [2]int{vin + 1, vin} {
			in := v != vin
			want = idx.derive(v, in, want[:0])
			got = idx.AppendList(v, in, got[:0])
			if !slices.Equal(got, want) {
				return false
			}
		}
	}
	return true
}

// AppendList appends v's in-list (in) or out-list to dst: the list the
// index holds, or the derivation of a mirror a reduced index does not
// store.
func (idx *Index) AppendList(v int, in bool, dst []bitpack.Entry) []bitpack.Entry {
	if idx.isMirror(v, in) {
		return idx.derive(v, in, dst)
	}
	l := idx.OutLabel(v)
	if in {
		l = idx.InLabel(v)
	}
	return l.AppendTo(dst)
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

// StoredEntries counts the entries the index physically holds: every
// entry but a reduced index's mirrored ones, which it derives.
func (idx *Index) StoredEntries() int { return idx.entries - idx.mirrored }

// ResidentBytes is the label payload the index physically holds: the
// delta+varint arena's bytes while it is lean (a reduced index's stored
// lists, or a file arena's lists), and otherwise 8 bytes per stored
// entry in the CSR arena or in plain slices. It equals Bytes() for a
// full labeling of plain slices and is about a quarter of it for a
// frozen reduced one; it costs O(1).
func (idx *Index) ResidentBytes() int {
	if idx.frozen != nil {
		return idx.frozen.Bytes()
	}
	return 8 * idx.StoredEntries()
}
