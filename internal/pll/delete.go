package pll

import (
	"slices"
	"time"

	"repro/internal/bitpack"
	"repro/internal/graph"
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
	idx.Expand()
	if !idx.G.HasEdge(a, b) {
		return st, idx.G.RemoveEdge(a, b) // yields the canonical error
	}
	s := idx.scratch()
	s.beginOp(idx.G.NumVertices())

	d := s.deletion(idx.G.NumVertices())
	distToA, distToB := bfsDistances(idx.G, a, false, d.dist[0], s), bfsDistances(idx.G, b, false, d.dist[1], s)
	distFromA, distFromB := bfsDistances(idx.G, a, true, d.dist[2], s), bfsDistances(idx.G, b, true, d.dist[3], s)

	n := idx.G.NumVertices()
	for v := 0; v < n; v++ {
		if distToA[v] >= 0 && distToA[v]+1 == distToB[v] {
			d.side[v] |= inSA
			d.sa = append(d.sa, int32(v))
		}
		if distFromB[v] >= 0 && distFromB[v]+1 == distFromA[v] {
			d.side[v] |= inSB
			d.sb = append(d.sb, int32(v))
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
	drop := d.drop[:0]
	for _, y32 := range d.sb {
		y := int(y32)
		yRank := idx.Ord.Rank(y)
		drop = drop[:0]
		idx.In[y].Each(func(e bitpack.Entry) bool {
			if e.Hub() != yRank && d.side[idx.Ord.VertexAt(e.Hub())]&inSA != 0 {
				drop = append(drop, e.Hub())
			}
			return true
		})
		for _, h := range drop {
			if idx.removeInEntry(y, h) {
				st.EntriesRemoved++
				idx.touch(&st, y)
			}
		}
	}
	for _, x32 := range d.sa {
		x := int(x32)
		xRank := idx.Ord.Rank(x)
		drop = drop[:0]
		idx.Out[x].Each(func(e bitpack.Entry) bool {
			if e.Hub() != xRank && d.side[idx.Ord.VertexAt(e.Hub())]&inSB != 0 {
				drop = append(drop, e.Hub())
			}
			return true
		})
		for _, h := range drop {
			if idx.removeOutEntry(x, h) {
				st.EntriesRemoved++
				idx.touch(&st, x)
			}
		}
	}
	d.drop = drop // keep the grown buffer for the next deletion

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
	for _, v := range d.sa {
		lowestSA = max(lowestSA, idx.Ord.Rank(int(v)))
	}
	for _, v := range d.sb {
		lowestSB = max(lowestSB, idx.Ord.Rank(int(v)))
	}
	// The pass set is SA ∪ SB, each vertex once, minus vertices that are
	// never hubs (nothing of theirs could need repair).
	ranks := d.ranks[:0]
	for _, v := range d.sa {
		if idx.HubFilter == nil || idx.HubFilter(int(v)) {
			ranks = append(ranks, idx.Ord.Rank(int(v)))
		}
	}
	for _, v := range d.sb {
		if d.side[v]&inSA == 0 && (idx.HubFilter == nil || idx.HubFilter(int(v))) {
			ranks = append(ranks, idx.Ord.Rank(int(v)))
		}
	}
	slices.Sort(ranks)
	d.ranks = ranks
	st.AffectedHubs = len(ranks)
	for _, rk := range ranks {
		side := d.side[idx.Ord.VertexAt(rk)]
		if side&inSA != 0 && rk < lowestSB {
			idx.repairPass(rk, true, d.side, inSB, &st)
		}
		if side&inSB != 0 && rk < lowestSA {
			idx.repairPass(rk, false, d.side, inSA, &st)
		}
	}
	st.Duration = time.Since(start)
	return st, nil
}

// bfsDistances runs a plain BFS of g from src over out-edges (forward)
// or in-edges (!forward) into d, which must hold -1 everywhere (the
// deletion scratch's reset state), and returns it. The walk queues on
// s.Queue, which it leaves empty.
func bfsDistances(g *graph.Digraph, src int, forward bool, d []int32, s *Scratch) []int32 {
	d[src] = 0
	s.Queue = append(s.Queue[:0], int32(src))
	for head := 0; head < len(s.Queue); head++ {
		w := int(s.Queue[head])
		nbrs := g.In(w)
		if forward {
			nbrs = g.Out(w)
		}
		for _, u := range nbrs {
			if d[u] == -1 {
				d[u] = d[w] + 1
				s.Queue = append(s.Queue, u)
			}
		}
	}
	s.Queue = s.Queue[:0]
	return d
}

// repairPass re-runs a construction-style pruned counting BFS from the hub
// with rank vkRank on the post-deletion graph, inserting labels only for
// vertices whose side flags carry target. forward repairs in-labels over
// out-edges; !forward repairs out-labels over in-edges. The prune test
// probes the hub-indexed scatter of the anchor list, which no repair
// write can touch mid-pass (the BFS never revisits the hub and repair
// never cleans).
func (idx *Index) repairPass(vkRank int, forward bool, side []uint8, target uint8, st *UpdateStats) {
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
		if side[w]&target != 0 {
			e := bitpack.Pack(vkRank, int(s.Dist[w]), s.Cnt[w])
			idx.touch(st, w)
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
