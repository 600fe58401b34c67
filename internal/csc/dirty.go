package csc

import (
	"slices"
	"sync"

	"repro/internal/bipartite"
	"repro/internal/pll"
)

// DirtyVertices maps an update's touched label owners (Gb vertices, the
// convention every Counter update method reports) to the sorted,
// deduplicated original-graph vertices whose SCCnt answer the update may
// have changed — the dirty set.
//
// The set is exact in the direction read-path caches need: SCCnt(v) is a
// pure function of Lout(v_out) and Lin(v_in), every label mutation is
// recorded against its owner, and rebuilt components are marked wholly
// touched — so a vertex absent from the dirty set answers exactly what
// it answered before the update. (The converse is deliberately loose: a
// label entry can be rewritten with its old value, or mutated on the
// side a query does not read, without changing any answer.) The
// dirty-set-exactness suite in dirty_test.go verifies the containment
// against a fresh-index oracle over the whole corpus.
//
// The dedupe sorts the mapped owners in a pooled buffer, so the only
// allocation is the result, sized to the distinct vertices.
func DirtyVertices(st pll.UpdateStats) []int {
	if len(st.TouchedOwners) == 0 {
		return nil
	}
	buf := dirtyBufs.Get().(*[]int32)
	vs := (*buf)[:0]
	for _, o := range st.TouchedOwners {
		vs = append(vs, int32(bipartite.Original(int(o))))
	}
	slices.Sort(vs)
	vs = slices.Compact(vs)
	out := make([]int, len(vs))
	for i, v := range vs {
		out[i] = int(v)
	}
	*buf = vs
	dirtyBufs.Put(buf)
	return out
}

// dirtyBufs recycles DirtyVertices' sort buffers.
var dirtyBufs = sync.Pool{New: func() any { return new([]int32) }}
