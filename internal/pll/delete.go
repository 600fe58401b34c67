package pll

import (
	"sort"
	"time"

	"repro/internal/bitpack"
	"repro/internal/label"
)

// DeleteEdge removes edge (a,b) from the graph and repairs the index with
// the paper's three-step decremental algorithm (§V-C):
//
//  1. identify the affected vertex sets using *pre-deletion* distances —
//     SA = {v : sd(v,a)+1 = sd(v,b)} on the a side and
//     SB = {u : sd(b,u)+1 = sd(a,u)} on the b side. Every pair whose
//     distance the deletion grows — including pairs whose only record is a
//     stale dominated entry left behind by an earlier redundancy-mode
//     update — links an SA vertex to an SB vertex;
//  2. delete every label entry linking an SA hub to an SB owner and an SB
//     hub to an SA owner — a superset of the out-of-date entries;
//  3. re-run construction-style pruned counting BFSes forward from every
//     SA vertex and backward from every SB vertex on G−, in descending
//     rank order, re-inserting labels only for the affected counterpart
//     set. (See the step-3 comment for why the repair set must be wider
//     than the label hubs of a and b.)
func (idx *Index) DeleteEdge(a, b int) (UpdateStats, error) {
	start := time.Now()
	var st UpdateStats

	// Step 1 must see pre-deletion distances, so validate the edge first.
	if !idx.G.HasEdge(a, b) {
		return st, idx.G.RemoveEdge(a, b) // yields the canonical error
	}
	idx.Expand()
	idx.scratch()

	distToA := idx.bfsDistances(a, false)
	distToB := idx.bfsDistances(b, false)
	distFromA := idx.bfsDistances(a, true)
	distFromB := idx.bfsDistances(b, true)

	n := idx.G.NumVertices()
	inSA := make([]bool, n)
	inSB := make([]bool, n)
	var sa, sb []int32
	for v := 0; v < n; v++ {
		if distToA[v] >= 0 && distToA[v]+1 == distToB[v] {
			inSA[v] = true
			sa = append(sa, int32(v))
		}
		if distFromB[v] >= 0 && distFromB[v]+1 == distFromA[v] {
			inSB[v] = true
			sb = append(sb, int32(v))
		}
	}

	if err := idx.G.RemoveEdge(a, b); err != nil {
		return st, err
	}

	// Step 2: scan the labels of affected vertices and drop every entry
	// linking an SA hub to an SB owner (in-side) or an SB hub to an SA
	// owner (out-side). Self entries are never dropped — no edge deletion
	// can invalidate the empty path.
	//
	// The drop must cover the full SA × SB rectangle, not just the hubs
	// currently listed in Lin(a)/Lout(b): under the redundancy strategy a
	// dominated entry left behind by an earlier update keeps a distance
	// larger than the (then) shortest one, so its path prefix through a is
	// no longer a shortest path and its hub has no reason to still appear
	// in Lin(a) — yet this deletion can raise the pair's true distance
	// past the stale entry's, at which point it would start answering
	// queries. Any such pair's distance grows, which places (hub, owner)
	// in SA × SB, so the rectangle drop catches it; step 3 re-inserts
	// whatever was still valid.
	var drop []int
	for _, y32 := range sb {
		y := int(y32)
		yRank := idx.Ord.Rank(y)
		drop = drop[:0]
		idx.In[y].Each(func(e bitpack.Entry) bool {
			if e.Hub() != yRank && inSA[idx.Ord.VertexAt(e.Hub())] {
				drop = append(drop, e.Hub())
			}
			return true
		})
		for _, h := range drop {
			if idx.removeInEntry(y, h) {
				st.EntriesRemoved++
				st.touch(y)
			}
		}
	}
	for _, x32 := range sa {
		x := int(x32)
		xRank := idx.Ord.Rank(x)
		drop = drop[:0]
		idx.Out[x].Each(func(e bitpack.Entry) bool {
			if e.Hub() != xRank && inSB[idx.Ord.VertexAt(e.Hub())] {
				drop = append(drop, e.Hub())
			}
			return true
		})
		for _, h := range drop {
			if idx.removeOutEntry(x, h) {
				st.EntriesRemoved++
				st.touch(x)
			}
		}
	}

	// Step 3: repair in descending rank order so lower hubs' pruning
	// queries see already-repaired higher entries, as in construction.
	//
	// The repair passes must run from *every* SA vertex forward and every
	// SB vertex backward, not just from the label hubs of a and b: when a
	// pair's distance grows, the new (longer) shortest paths can have a
	// top-ranked vertex that had no pre-deletion label relationship with
	// a or b — only the distance conditions defining SA/SB are guaranteed
	// for it. Most passes die immediately under rank and distance pruning.
	// A pass can only insert entries at counterpart vertices ranked below
	// its hub, so hubs ranked below every counterpart are skipped.
	lowestSA, lowestSB := -1, -1 // numerically largest rank in each set
	repairA := make(map[int]bool, len(sa))
	for _, v := range sa {
		r := idx.Ord.Rank(int(v))
		if r > lowestSA {
			lowestSA = r
		}
		if idx.HubFilter != nil && !idx.HubFilter(int(v)) {
			continue // never a hub; nothing of its could need repair
		}
		repairA[r] = true
	}
	repairB := make(map[int]bool, len(sb))
	for _, v := range sb {
		r := idx.Ord.Rank(int(v))
		if r > lowestSB {
			lowestSB = r
		}
		if idx.HubFilter != nil && !idx.HubFilter(int(v)) {
			continue
		}
		repairB[r] = true
	}
	ranks := make([]int, 0, len(repairA)+len(repairB))
	for r := range repairA {
		ranks = append(ranks, r)
	}
	for r := range repairB {
		if !repairA[r] {
			ranks = append(ranks, r)
		}
	}
	sort.Ints(ranks)
	st.AffectedHubs = len(ranks)
	for _, rk := range ranks {
		if repairA[rk] && rk < lowestSB {
			idx.repairPass(rk, true, inSB, &st)
		}
		if repairB[rk] && rk < lowestSA {
			idx.repairPass(rk, false, inSA, &st)
		}
	}
	st.Duration = time.Since(start)
	return st, nil
}

// bfsDistances runs a plain BFS from src over out-edges (forward) or
// in-edges (!forward) and returns the distance array (-1 = unreachable).
func (idx *Index) bfsDistances(src int, forward bool) []int32 {
	n := idx.G.NumVertices()
	d := make([]int32, n)
	for i := range d {
		d[i] = -1
	}
	d[src] = 0
	queue := make([]int32, 0, 64)
	queue = append(queue, int32(src))
	for head := 0; head < len(queue); head++ {
		w := int(queue[head])
		for _, u := range idx.neighbors(w, forward) {
			if d[u] == -1 {
				d[u] = d[w] + 1
				queue = append(queue, u)
			}
		}
	}
	return d
}

// repairPass re-runs a construction-style pruned counting BFS from the hub
// with rank vkRank on the post-deletion graph, inserting labels only for
// vertices in the targets set. forward repairs in-labels over out-edges;
// !forward repairs out-labels over in-edges. The prune test probes the
// hub-indexed scatter of the anchor list, which no repair write can touch
// mid-pass (the BFS never revisits the hub and repair never cleans).
func (idx *Index) repairPass(vkRank int, forward bool, targets []bool, st *UpdateStats) {
	vk := idx.Ord.VertexAt(vkRank)
	s := idx.scratch()

	var anchor *label.List
	if forward {
		anchor = &idx.Out[vk]
	} else {
		anchor = &idx.In[vk]
	}
	s.Scatter(anchor, 0)
	defer s.Unscatter(anchor)
	defer s.Reset()

	s.Visit(vk, 0, 1)
	for _, u := range idx.neighbors(vk, forward) {
		if idx.Ord.Rank(int(u)) > vkRank {
			s.Visit(int(u), 1, 1)
			s.Queue = append(s.Queue, u)
		}
	}

	for head := 0; head < len(s.Queue); head++ {
		w := int(s.Queue[head])
		st.Visited++
		dw := int(s.Dist[w])
		var dq int
		if forward {
			dq = s.Probe(&idx.In[w], dw)
		} else {
			dq = s.Probe(&idx.Out[w], dw)
		}
		if dq < dw {
			continue // vk is not the highest rank on any shortest path
		}
		if targets[w] {
			e := bitpack.Pack(vkRank, int(s.Dist[w]), s.Cnt[w])
			st.touch(w)
			if forward {
				if idx.In[w].Set(e) {
					idx.entries++
					st.EntriesAdded++
					idx.addInvIn(vkRank, w)
				} else {
					st.EntriesChanged++
				}
			} else {
				if idx.Out[w].Set(e) {
					idx.entries++
					st.EntriesAdded++
					idx.addInvOut(vkRank, w)
				} else {
					st.EntriesChanged++
				}
			}
		}
		for _, u := range idx.neighbors(w, forward) {
			switch {
			case s.Dist[u] == -1:
				if idx.Ord.Rank(int(u)) > vkRank {
					s.Visit(int(u), s.Dist[w]+1, s.Cnt[w])
					s.Queue = append(s.Queue, u)
				}
			case s.Dist[u] == s.Dist[w]+1:
				s.Cnt[u] = bitpack.SatAdd(s.Cnt[u], s.Cnt[w])
			}
		}
	}
}
