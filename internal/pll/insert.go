package pll

import (
	"sort"
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
	if err := idx.G.AddEdge(a, b); err != nil {
		return st, err
	}
	idx.Expand()
	idx.scratch()

	// Affected hubs and their seed (distance, count), captured up front.
	// Inserting (a,b) cannot shorten paths *into* a nor *out of* b (such a
	// path would repeat a vertex), so these seeds stay valid throughout.
	type seed struct {
		d int
		c uint64
	}
	hubA := make(map[int]seed, idx.In[a].Len())
	idx.In[a].Each(func(e bitpack.Entry) bool {
		hubA[e.Hub()] = seed{e.Dist(), e.Count()}
		return true
	})
	hubB := make(map[int]seed, idx.Out[b].Len())
	idx.Out[b].Each(func(e bitpack.Entry) bool {
		hubB[e.Hub()] = seed{e.Dist(), e.Count()}
		return true
	})
	ranks := make([]int, 0, len(hubA)+len(hubB))
	for r := range hubA {
		ranks = append(ranks, r)
	}
	for r := range hubB {
		if _, dup := hubA[r]; !dup {
			ranks = append(ranks, r)
		}
	}
	sort.Ints(ranks) // ascending rank position = descending rank
	st.AffectedHubs = len(ranks)

	ra, rb := idx.Ord.Rank(a), idx.Ord.Rank(b)
	for _, rk := range ranks {
		if idx.HubFilter != nil && !idx.HubFilter(idx.Ord.VertexAt(rk)) {
			continue // never a hub; a pass could only create unneeded entries
		}
		if s, ok := hubA[rk]; ok && rk < rb { // vk ≺ b
			idx.updatePass(rk, b, s.d+1, s.c, true, &st)
		}
		if s, ok := hubB[rk]; ok && rk < ra { // vk ≺ a
			idx.updatePass(rk, a, s.d+1, s.c, false, &st)
		}
	}
	st.Duration = time.Since(start)
	return st, nil
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
			st.touch(w)
			if idx.Strategy == Minimality {
				idx.cleanLabel(w, inSide, st)
			}
		case dNew == e.Dist():
			lst.Set(bitpack.Pack(hubRank, dNew, bitpack.SatAdd(e.Count(), cNew)))
			st.EntriesChanged++
			st.touch(w)
		}
		// dNew > e.Dist() cannot occur: the BFS only reaches w when its
		// tentative distance is at most the index distance, which is at
		// most the entry's. Nothing to do if it somehow did.
		return
	}
	lst.Set(bitpack.Pack(hubRank, dNew, cNew))
	idx.entries++
	st.EntriesAdded++
	st.touch(w)
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
				st.touch(w)
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
						st.touch(v)
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
			st.touch(w)
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
					st.touch(v)
				}
			}
		}
	}
}
