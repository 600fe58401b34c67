package pll

import (
	"repro/internal/label"
)

// Unreachable is the distance CountPaths returns when no path exists
// under the index.
const Unreachable = label.Unreachable

// CountPaths evaluates SPCnt(s,t) (Equations 1-2): the shortest distance
// from s to t and the number of shortest paths. Unreachable pairs return
// (Unreachable, 0). Counts saturate at bitpack.MaxCount.
func (idx *Index) CountPaths(s, t int) (dist int, count uint64) {
	return idx.join(s, t, Unreachable)
}

// CountPathsBounded is CountPaths restricted to distances ≤ maxDist: it
// returns (Unreachable, 0) when the true distance exceeds the bound,
// without paying any count arithmetic for over-bound hub pairs.
func (idx *Index) CountPathsBounded(s, t, maxDist int) (dist int, count uint64) {
	return idx.join(s, t, maxDist)
}

// join is label.Join of s's out-list and t's in-list: the lists
// themselves, or on a lean index (reduced.go) views of their sections of
// the frozen store.
func (idx *Index) join(s, t, maxDist int) (dist int, count uint64) {
	if idx.In == nil {
		out, in := idx.OutLabel(s), idx.InLabel(t)
		return label.Join(&out, &in, maxDist)
	}
	return label.Join(&idx.Out[s], &idx.In[t], maxDist)
}

// shorterThan reports whether the index holds an s→t path shorter than
// d — the prune and redundancy test of INCCNT and CLEAN LABEL, answered
// by the join bounded at d-1.
func (idx *Index) shorterThan(s, t, d int) bool {
	got, _ := idx.join(s, t, d-1)
	return got != Unreachable
}

// InLabel returns v's in-label list by value, for reading only: the
// list itself, or on a lean index (reduced.go) a view of section v of
// the frozen store.
func (idx *Index) InLabel(v int) label.List {
	if idx.In == nil {
		return idx.frozen.Section(v)
	}
	return idx.In[v]
}

// OutLabel is InLabel for v's out-label list, section n+v of a lean
// index's store.
func (idx *Index) OutLabel(v int) label.List {
	if idx.Out == nil {
		return idx.frozen.Section(idx.Ord.Len() + v)
	}
	return idx.Out[v]
}
