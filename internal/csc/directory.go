package csc

import (
	"fmt"
	"math/bits"
	"slices"
)

// directory routes a vertex to its shard position. Only vertices on a
// cycle have one — on the served ledger 8% of the graph — so it is sized
// by them rather than by the graph: an n-bit membership set, the count
// of members below each of its words, and each member's slot and local
// id at its rank among the members. A lookup is one bit test, one
// popcount and one read of the rank's entry; an n-sized table of slots
// and one of local ids would cost 8n bytes.
//
// retire and install keep it exact: each clears or sets its members'
// bits, recounts the words from its first member on and shifts the
// entries behind it, O(n/64 + members) per shard.
type directory struct {
	n     int
	bits  []uint64   // bit v: v is a member of a live shard
	ranks []int32    // ranks[w]: members below vertex 64w; len(bits)+1 entries
	pos   []shardPos // member of rank r's shard position
}

// shardPos is one member vertex's slot and its local id in that shard.
type shardPos struct{ slot, local int32 }

// newDirectory is the one constructor of the directory: n vertices, each
// live shard's members at its slot. It fails when two shards claim a
// vertex or a member is out of range (a loader's corrupt shard table).
func newDirectory(n int, shards []*shard) (directory, error) {
	words := (n + 63) / 64
	d := directory{n: n, bits: make([]uint64, words), ranks: make([]int32, words+1)}
	members := 0
	for _, sh := range shards {
		if sh == nil {
			continue
		}
		for _, v := range sh.verts {
			if v < 0 || int(v) >= n {
				return directory{}, fmt.Errorf("shard member %d out of range", v)
			}
			w, b := v>>6, uint64(1)<<(v&63)
			if d.bits[w]&b != 0 {
				return directory{}, fmt.Errorf("vertex %d claimed by two shards", v)
			}
			d.bits[w] |= b
		}
		members += len(sh.verts)
	}
	d.recount(0)
	d.pos = make([]shardPos, members)
	for s, sh := range shards {
		if sh == nil {
			continue
		}
		for li, v := range sh.verts {
			d.pos[d.rank(int(v))] = shardPos{int32(s), int32(li)}
		}
	}
	return d, nil
}

// rank counts the members below v.
func (d *directory) rank(v int) int {
	w := v >> 6
	return int(d.ranks[w]) + bits.OnesCount64(d.bits[w]&(uint64(1)<<(v&63)-1))
}

// locate returns v's shard slot and local id, or (-1, -1) when v lies
// in no shard. v must be in range.
func (d *directory) locate(v int) (slot, local int32) {
	w, b := v>>6, uint64(1)<<(v&63)
	word := d.bits[w]
	if word&b == 0 {
		return -1, -1
	}
	p := d.pos[int(d.ranks[w])+bits.OnesCount64(word&(b-1))]
	return p.slot, p.local
}

// slotOf is locate's slot alone.
func (d *directory) slotOf(v int) int32 {
	s, _ := d.locate(v)
	return s
}

// members counts the vertices that lie in some shard.
func (d *directory) members() int { return len(d.pos) }

// recount recomputes ranks from word w on.
func (d *directory) recount(w int) {
	for ; w < len(d.bits); w++ {
		d.ranks[w+1] = d.ranks[w] + int32(bits.OnesCount64(d.bits[w]))
	}
}

// remove drops a retired shard's members, sorted ascending.
func (d *directory) remove(verts []int32) {
	if len(verts) == 0 {
		return
	}
	// Close each member's gap while every rank is still the old one.
	r := d.rank(int(verts[0]))
	dst := r
	for i := range verts {
		end := len(d.pos)
		if i+1 < len(verts) {
			end = d.rank(int(verts[i+1]))
		}
		dst += copy(d.pos[dst:], d.pos[r+1:end])
		r = end
	}
	d.pos = d.pos[:dst]
	for _, v := range verts {
		d.bits[v>>6] &^= uint64(1) << (v & 63)
	}
	d.recount(int(verts[0] >> 6))
}

// insert adds an installed shard's members, sorted ascending and in no
// other shard, at slot.
func (d *directory) insert(verts []int32, slot int32) {
	if len(verts) == 0 {
		return
	}
	for _, v := range verts {
		d.bits[v>>6] |= uint64(1) << (v & 63)
	}
	d.recount(int(verts[0] >> 6))
	// Walk back from the last member: the old entries ranked after
	// member i move up by i+1.
	src := len(d.pos)
	d.pos = slices.Grow(d.pos, len(verts))[:src+len(verts)]
	for i := len(verts) - 1; i >= 0; i-- {
		r := d.rank(int(verts[i]))
		copy(d.pos[r+1:], d.pos[r-i:src])
		d.pos[r] = shardPos{slot, int32(i)}
		src = r - i
	}
}

// grow appends one vertex outside every shard.
func (d *directory) grow() {
	if d.n == 64*len(d.bits) {
		d.bits = append(d.bits, 0)
		d.ranks = append(d.ranks, d.ranks[len(d.ranks)-1])
	}
	d.n++
}
