package pll

import (
	"fmt"

	"repro/internal/bitpack"
	"repro/internal/label"
)

// AddVertex grows the graph by one isolated vertex, assigns it the lowest
// rank, and gives it its self labels. Adding at the bottom of the order
// cannot disturb any existing label: an isolated vertex lies on no path,
// and once edges arrive the normal InsertEdge maintenance covers it. The
// paper treats vertex updates as a sequence of edge updates (§II, §V);
// this is the missing first step of that sequence.
func (idx *Index) AddVertex() (int, error) {
	idx.Expand()
	n := idx.G.NumVertices()
	if n > bitpack.MaxHub {
		return 0, fmt.Errorf("pll: vertex limit %d reached (23-bit hub encoding)", bitpack.MaxHub+1)
	}
	v := idx.G.AddVertex()
	r := idx.Ord.Extend(v)
	idx.In = append(idx.In, label.List{})
	idx.Out = append(idx.Out, label.List{})
	if idx.invIn != nil {
		idx.invIn = append(idx.invIn, nil)
		idx.invOut = append(idx.invOut, nil)
	}
	self := bitpack.Pack(r, 0, 1)
	idx.AppendIn(v, self)
	idx.AppendOut(v, self)
	idx.canonical += 2
	// Grow the scratch before any update pass can run: the update BFSes
	// index Dist/Cnt by the new vertex id and the hub scatter by its rank.
	idx.scratch()
	return v, nil
}

// SetInEntry force-sets an in-label entry, keeping the inverted index
// consistent. Reserved for structural growth (the CSC couple rule); the
// dynamic algorithms go through updateLabel.
func (idx *Index) SetInEntry(v, hubRank, dist int, count uint64) {
	idx.Expand()
	if idx.In[v].Set(bitpack.Pack(hubRank, dist, count)) {
		idx.entries++
		idx.addInvIn(hubRank, v)
	}
}

// DetachVertex removes every incident edge of v through the maintained
// DeleteEdge path, leaving v isolated (dense ids are never compacted).
// It returns the number of edges removed.
func (idx *Index) DetachVertex(v int) (int, error) {
	idx.Expand()
	removed := 0
	// Copy the adjacency before mutating it.
	out := append([]int32(nil), idx.G.Out(v)...)
	for _, w := range out {
		if _, err := idx.DeleteEdge(v, int(w)); err != nil {
			return removed, err
		}
		removed++
	}
	in := append([]int32(nil), idx.G.In(v)...)
	for _, w := range in {
		if _, err := idx.DeleteEdge(int(w), v); err != nil {
			return removed, err
		}
		removed++
	}
	return removed, nil
}
