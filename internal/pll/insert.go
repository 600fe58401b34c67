package pll

import (
	"math"
	"time"

	"repro/internal/bitpack"
	"repro/internal/label"
)

// InsertEdge adds edge (a,b) to the graph and repairs the index with the
// INCCNT algorithm (Algorithm 5): resumed pruned BFSes from every affected
// hub — the hubs of Lin(a) in the forward direction and the hubs of
// Lout(b) in the reverse direction — processed in descending rank order,
// each seeded with the *label* count of the hub's entry (Theorem V.1).
func (idx *Index) InsertEdge(a, b int) (UpdateStats, error) {
	start := time.Now()
	var st UpdateStats
	idx.Expand()
	if err := idx.G.AddEdge(a, b); err != nil {
		return st, err
	}
	s := idx.scratch()
	s.beginOp(idx.G.NumVertices())

	// Affected hubs and their seed entries, captured up front. Inserting
	// (a,b) cannot shorten paths *into* a nor *out of* b (such a path
	// would repeat a vertex), so these seeds stay valid throughout. Both
	// lists are rank-ascending, so merging them visits the affected hubs
	// in descending rank order, each once.
	hubA := idx.In[a].AppendTo(s.seedA[:0])
	hubB := idx.Out[b].AppendTo(s.seedB[:0])
	s.seedA, s.seedB = hubA, hubB
	ra, rb := idx.Ord.Rank(a), idx.Ord.Rank(b)
	eachAffectedHub(hubA, hubB, func(rk int, fromA, fromB *bitpack.Entry) {
		st.AffectedHubs++
		if idx.HubFilter != nil && !idx.HubFilter(idx.Ord.VertexAt(rk)) {
			return // never a hub; a pass could only create unneeded entries
		}
		if fromA != nil && rk < rb { // vk ≺ b
			idx.updatePass(rk, b, fromA.Dist()+1, fromA.Count(), true, &st)
		}
		if fromB != nil && rk < ra { // vk ≺ a
			idx.updatePass(rk, a, fromB.Dist()+1, fromB.Count(), false, &st)
		}
	})
	st.Duration = time.Since(start)
	return st, nil
}

// eachAffectedHub merges an insertion's seed lists, both rank-ascending,
// and calls fn once per hub rank in descending rank order with the hub's
// entry in each list (nil where it has none).
func eachAffectedHub(hubA, hubB []bitpack.Entry, fn func(rk int, fromA, fromB *bitpack.Entry)) {
	for i, j := 0, 0; i < len(hubA) || j < len(hubB); {
		rk := math.MaxInt
		if i < len(hubA) {
			rk = hubA[i].Hub()
		}
		if j < len(hubB) {
			rk = min(rk, hubB[j].Hub())
		}
		var fromA, fromB *bitpack.Entry
		if i < len(hubA) && hubA[i].Hub() == rk {
			fromA = &hubA[i]
			i++
		}
		if j < len(hubB) && hubB[j].Hub() == rk {
			fromB = &hubB[j]
			j++
		}
		fn(rk, fromA, fromB)
	}
}

// updatePass is FORWARD PASS / BACKWARD PASS (Algorithm 6): a resumed BFS
// from one endpoint of the new edge on behalf of affected hub rank vkRank,
// seeded at distance d0 with count c0. forward walks out-edges updating
// in-labels; !forward walks in-edges updating out-labels.
//
// Under the redundancy strategy the prune test uses the hub-indexed
// scatter: the hub's anchor list cannot change mid-pass (the BFS never
// reaches vk, and no cleaning runs), so the scatter stays valid. Under
// minimality, CLEAN LABEL may remove entries from the anchor list while
// the pass runs, so the test falls back to the live merge-join.
func (idx *Index) updatePass(vkRank, start, d0 int, c0 uint64, forward bool, st *UpdateStats) {
	vk := idx.Ord.VertexAt(vkRank)
	s := idx.scratch()

	var anchor *label.List
	if idx.Strategy == Redundancy {
		if forward {
			anchor = &idx.Out[vk]
		} else {
			anchor = &idx.In[vk]
		}
		s.Scatter(anchor, 0)
		defer s.Unscatter(anchor)
	}
	defer s.Reset()

	s.Visit(start, int32(d0), c0)
	s.Queue = append(s.Queue, int32(start))

	for head := 0; head < len(s.Queue); head++ {
		w := int(s.Queue[head])
		st.Visited++
		dw := int(s.Dist[w])
		var pruned bool
		switch {
		case anchor != nil && forward:
			pruned = s.Probe(&idx.In[w], dw) < dw
		case anchor != nil:
			pruned = s.Probe(&idx.Out[w], dw) < dw
		case forward:
			pruned = idx.shorterThan(vk, w, dw)
		default:
			pruned = idx.shorterThan(w, vk, dw)
		}
		if pruned {
			continue // Case 1: the new edge does not improve vk↔w
		}
		idx.updateLabel(vkRank, w, dw, s.Cnt[w], forward, st)
		for _, u := range idx.neighbors(w, forward) {
			switch {
			case s.Dist[u] == -1:
				if idx.Ord.Rank(int(u)) > vkRank { // vk ≺ u
					s.Visit(int(u), s.Dist[w]+1, s.Cnt[w])
					s.Queue = append(s.Queue, u)
				}
			case s.Dist[u] == s.Dist[w]+1:
				s.Cnt[u] = bitpack.SatAdd(s.Cnt[u], s.Cnt[w]) // Case 2 propagation
			}
		}
	}
}

// updateLabel is UPDATE LABEL (Algorithm 7) applied to In[w] (forward) or
// Out[w] (!forward): replace on shorter distance, accumulate on equal
// distance, insert when the hub is new. Under the minimality strategy a
// replacement or insertion triggers CLEAN LABEL (Algorithm 8).
func (idx *Index) updateLabel(hubRank, w, dNew int, cNew uint64, inSide bool, st *UpdateStats) {
	lst := &idx.Out[w]
	if inSide {
		lst = &idx.In[w]
	}
	if e, ok := lst.Lookup(hubRank); ok {
		switch {
		case dNew < e.Dist():
			lst.Set(bitpack.Pack(hubRank, dNew, cNew))
			st.EntriesChanged++
			idx.touch(st, w)
			if idx.Strategy == Minimality {
				idx.cleanLabel(w, inSide, st)
			}
		case dNew == e.Dist():
			lst.Set(bitpack.Pack(hubRank, dNew, bitpack.SatAdd(e.Count(), cNew)))
			st.EntriesChanged++
			idx.touch(st, w)
		}
		// dNew > e.Dist() cannot occur: the BFS only reaches w when its
		// tentative distance is at most the index distance, which is at
		// most the entry's. Nothing to do if it somehow did.
		return
	}
	lst.Set(bitpack.Pack(hubRank, dNew, cNew))
	idx.entries++
	st.EntriesAdded++
	idx.touch(st, w)
	if inSide {
		idx.addInvIn(hubRank, w)
	} else {
		idx.addInvOut(hubRank, w)
	}
	if idx.Strategy == Minimality {
		idx.cleanLabel(w, inSide, st)
	}
}

// cleanLabel is CLEAN LABEL (Algorithm 8). For the in-side it removes
// redundant entries from Lin(w) and redundant hub-w entries from other
// vertices' out-labels (located through inv_out(w)); the out-side is
// symmetric. An entry is redundant when its recorded distance exceeds the
// true index distance (Definition V.2).
func (idx *Index) cleanLabel(w int, inSide bool, st *UpdateStats) {
	idx.ensureInverted()
	wRank := idx.Ord.Rank(w)

	if inSide {
		var drop []int
		idx.In[w].Each(func(e bitpack.Entry) bool {
			if e.Hub() == wRank {
				return true // self entry is never redundant
			}
			h := idx.Ord.VertexAt(e.Hub())
			if idx.shorterThan(h, w, e.Dist()) {
				drop = append(drop, e.Hub())
			}
			return true
		})
		for _, h := range drop {
			if idx.removeInEntry(w, h) {
				st.EntriesRemoved++
				idx.touch(st, w)
			}
		}
		if m := idx.invOut[wRank]; m != nil {
			vs := make([]int32, 0, len(m))
			for v := range m {
				vs = append(vs, v)
			}
			for _, v32 := range vs {
				v := int(v32)
				if v == w {
					continue
				}
				e, ok := idx.Out[v].Lookup(wRank)
				if !ok {
					idx.delInvOut(wRank, v)
					continue
				}
				if idx.shorterThan(v, w, e.Dist()) {
					if idx.removeOutEntry(v, wRank) {
						st.EntriesRemoved++
						idx.touch(st, v)
					}
				}
			}
		}
		return
	}

	var drop []int
	idx.Out[w].Each(func(e bitpack.Entry) bool {
		if e.Hub() == wRank {
			return true
		}
		h := idx.Ord.VertexAt(e.Hub())
		if idx.shorterThan(w, h, e.Dist()) {
			drop = append(drop, e.Hub())
		}
		return true
	})
	for _, h := range drop {
		if idx.removeOutEntry(w, h) {
			st.EntriesRemoved++
			idx.touch(st, w)
		}
	}
	if m := idx.invIn[wRank]; m != nil {
		vs := make([]int32, 0, len(m))
		for v := range m {
			vs = append(vs, v)
		}
		for _, v32 := range vs {
			v := int(v32)
			if v == w {
				continue
			}
			e, ok := idx.In[v].Lookup(wRank)
			if !ok {
				idx.delInvIn(wRank, v)
				continue
			}
			if idx.shorterThan(w, v, e.Dist()) {
				if idx.removeInEntry(v, wRank) {
					st.EntriesRemoved++
					idx.touch(st, v)
				}
			}
		}
	}
}
