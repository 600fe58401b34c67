package pll

import (
	"slices"
	"time"

	"repro/internal/bipartite"
	"repro/internal/bitpack"
	"repro/internal/graph"
	"repro/internal/label"
)

// The couple form writes a reduced index (reduced.go) without Gb and
// without its mirrored lists. INCCNT (Algorithms 5-7) and the three-step
// decremental repair (§V-C) walk g, the base graph Gb converts, one queue
// entry per couple, and update only the two stored lists, Lin(v_in) and
// Lout(v_out). Each pass folds the couple step the way the skipping
// construction does (internal/csc, skipBuild.inPass and outPass):
//
//   - A forward pass writes in-labels and queues base vertices standing
//     for their v_in. Labeling w_in at distance d also labels w_out at
//     d+1, which the derivation of Lin(w_out) supplies, and w_out is
//     never pruned where w_in is not, so the pass steps from w straight
//     to its out-neighbors at d+2. Its anchor is the mirror Lout(h_in):
//     the stored Lout(h_out) one step further, with the hub's own entry
//     at 0 in place of the cycle entry (+1 anchor shift).
//   - A backward pass writes out-labels and queues base vertices
//     standing for their v_out. Labeling w_out also labels w_in one step
//     further, except at the hub's own couple: that entry is the cycle
//     entry, and the pass stops there (§IV-C distinction 4).
//   - Step 1 of a delete of (a,b) splits two couples, which the generic
//     engine keeps apart as Gb vertices: b_out can lie in SA but b_in
//     never does (sd(b_in,b_in) = 0), and a_in can lie in SB but a_out
//     never does. So b's stored Lout(b_out) is an SA owner while b_in is
//     no SA hub, and a's stored Lin(a_in) is an SB owner.
//
// Every mirror is its derivation by construction, so the index stays
// reduced and EntryCount keeps counting the logical labeling; the stats
// count a mirror entry's change with its stored one. The stored lists
// come out entry for entry as the generic engine's over Gb on every
// insert, and on every delete after which the generic engine's mirrors
// are still derivations. At a split couple they can stop being that:
// the generic step 2 scans only the Gb vertex in SA (or SB), so it can
// leave Lout(b_in) holding an entry it dropped from Lout(b_out), one the
// pair's new distance dominates. Both answer every query like the
// oracle.
//
// The couple form reads the lifted hub order only as arithmetic on the
// base order: a couple's ranks (v_in at 2r, v_out at 2r+1) and a hub
// rank's vertex (coupleRank, hubVertex).

// CoupleForm reports whether the index's writes run in couple form: it
// is reduced and maintained under Redundancy. Minimality's CLEAN LABEL
// reads mirrored lists through the inverted indexes, so it writes
// through the generic engine (Expand), as does a full index.
func (idx *Index) CoupleForm() bool {
	return idx.reduced && idx.Strategy == Redundancy
}

// Thaw readies a reduced index for couple-form writes over g, the base
// graph whose conversion it labels: the index forgets any Gb it holds,
// and a frozen store decodes its stored lists into one slab sized for
// exactly them, each list followed by the CSR arena's growth pad, as
// Compact lays them out. An index already thawed only takes g.
func (idx *Index) Thaw(g *graph.Digraph) {
	idx.G, idx.src = nil, g
	if idx.frozen != nil {
		idx.packStored()
	}
}

// InsertCouple adds edge (a,b) to g and maintains the index with INCCNT
// in couple form. The affected hubs are those of the mirrors Lin(a_out)
// and Lout(b_in), derived, in the generic engine's order.
func (idx *Index) InsertCouple(g *graph.Digraph, a, b int) (UpdateStats, error) {
	start := time.Now()
	var st UpdateStats
	idx.Thaw(g)
	if err := g.AddEdge(a, b); err != nil {
		return st, err
	}
	s := idx.scratch()
	s.beginOp(idx.Ord.Len())
	hubA := idx.deriveIn(bipartite.OutVertex(a), s.seedA[:0])
	hubB := idx.deriveOut(bipartite.InVertex(b), s.seedB[:0])
	s.seedA, s.seedB = hubA, hubB
	ra, rb := idx.Ord.Rank(bipartite.OutVertex(a)), idx.Ord.Rank(bipartite.InVertex(b))
	eachAffectedHub(hubA, hubB, func(rk int, fromA, fromB *bitpack.Entry) {
		st.AffectedHubs++
		if rk%2 != 0 {
			return // a V_out rank: never a hub
		}
		if fromA != nil && rk < rb {
			s.Visit(b, int32(fromA.Dist()+1), fromA.Count())
			s.Queue = append(s.Queue, int32(b))
			idx.couplePass(g, rk, true, nil, 0, &st)
		}
		if fromB != nil && rk < ra {
			s.Visit(a, int32(fromB.Dist()+1), fromB.Count())
			s.Queue = append(s.Queue, int32(a))
			idx.couplePass(g, rk, false, nil, 0, &st)
		}
	})
	st.Duration = time.Since(start)
	return st, nil
}

// DeleteCouple removes edge (a,b) from g and repairs the index with the
// three-step decremental algorithm in couple form. Step 1 runs its four
// BFSes on g, whose distances are half Gb's: with dG(v,v) = 0 and dG+
// the shortest cycle length where the endpoints meet,
//
//	v_out ∈ SA ⇔ dG(v,a)+1 = dG+(v,b), and v_in ∈ SA ⇔ that, v ≠ b;
//	v_in ∈ SB ⇔ dG(b,v)+1 = dG+(a,v).
//
// Step 2 drops SA hubs from the stored Lin(y_in) of every y_in in SB, and
// SB hubs from the stored Lout(x_out) of every x_out in SA. Step 3 runs
// the repair passes from every SA and SB hub in descending rank order,
// forward to the SB owners and backward to the SA owners.
func (idx *Index) DeleteCouple(g *graph.Digraph, a, b int) (UpdateStats, error) {
	start := time.Now()
	var st UpdateStats
	idx.Thaw(g)
	if !g.HasEdge(a, b) {
		return st, g.RemoveEdge(a, b) // yields the canonical error
	}
	s := idx.scratch()
	s.beginOp(idx.Ord.Len())

	n := g.NumVertices()
	d := s.deletion(n)
	toA, toB := bfsDistances(g, a, false, d.dist[0], s), bfsDistances(g, b, false, d.dist[1], s)
	fromA, fromB := bfsDistances(g, a, true, d.dist[2], s), bfsDistances(g, b, true, d.dist[3], s)
	cycB, cycA := cycleLength(g.Out(b), toB), cycleLength(g.In(a), fromA)
	for v := 0; v < n; v++ {
		tb := toB[v]
		if v == b {
			tb = cycB
		}
		if toA[v] >= 0 && toA[v]+1 == tb {
			d.side[v] |= outSA
			if v != b {
				d.side[v] |= inSA
			}
			d.sa = append(d.sa, int32(v))
		}
		fa := fromA[v]
		if v == a {
			fa = cycA
		}
		if fromB[v] >= 0 && fromB[v]+1 == fa {
			d.side[v] |= inSB
			d.sb = append(d.sb, int32(v))
		}
	}
	if err := g.RemoveEdge(a, b); err != nil {
		return st, err
	}

	// Step 2. Self entries are never dropped; neither is a mirror, which
	// follows its stored list.
	drop := d.drop[:0]
	for _, y32 := range d.sb {
		yin := bipartite.InVertex(int(y32))
		yRank := idx.Ord.Rank(yin)
		drop = drop[:0]
		for _, e := range idx.In[yin].Entries() {
			if h := e.Hub(); h != yRank && d.side[idx.hubVertex(h)]&inSA != 0 {
				drop = append(drop, h)
			}
		}
		for _, h := range drop {
			idx.In[yin].Remove(h)
			idx.coupleRemoved(int(y32), true, &st)
		}
	}
	for _, x32 := range d.sa {
		xin, xout := bipartite.InVertex(int(x32)), bipartite.OutVertex(int(x32))
		rin := idx.Ord.Rank(xin)
		drop = drop[:0]
		for _, e := range idx.Out[xout].Entries() {
			if h := e.Hub(); h%2 == 0 && d.side[idx.hubVertex(h)]&inSB != 0 {
				drop = append(drop, h)
			}
		}
		for _, h := range drop {
			idx.Out[xout].Remove(h)
			idx.coupleRemoved(int(x32), h != rin, &st)
		}
	}
	d.drop = drop

	// Step 3. A forward pass can only write owners ranked below its hub,
	// and a backward pass owners at or below its hub's couple (the cycle
	// entry), so hubs past every such owner are skipped.
	lowestSB, lowestSA := -1, -1
	for _, v := range d.sb {
		lowestSB = max(lowestSB, idx.coupleRank(int(v)))
	}
	for _, v := range d.sa {
		lowestSA = max(lowestSA, idx.coupleRank(int(v)))
	}
	ranks := d.ranks[:0]
	for _, v := range d.sa {
		if d.side[v]&inSA != 0 {
			ranks = append(ranks, idx.coupleRank(int(v)))
		}
	}
	for _, v := range d.sb {
		if d.side[v]&inSA == 0 {
			ranks = append(ranks, idx.coupleRank(int(v)))
		}
	}
	slices.Sort(ranks)
	d.ranks = ranks
	st.AffectedHubs = len(ranks)
	for _, rk := range ranks {
		vk := idx.hubVertex(rk)
		side := d.side[vk]
		if side&inSA != 0 && rk < lowestSB {
			idx.seedRepair(g.Out(vk), rk, 2)
			idx.couplePass(g, rk, true, d.side, inSB, &st)
		}
		if side&inSB != 0 && rk <= lowestSA {
			idx.seedRepair(g.In(vk), rk, 1)
			idx.couplePass(g, rk, false, d.side, outSA, &st)
		}
	}
	st.Duration = time.Since(start)
	return st, nil
}

// cycleLength returns 1 + the smallest dist over nbrs, the length of the
// shortest cycle through a vertex whose out-neighbors (or in-neighbors)
// are nbrs and whose distances to (or from) it are dist; -1 when none
// is reachable.
func cycleLength(nbrs []int32, dist []int32) int32 {
	best := int32(-1)
	for _, u := range nbrs {
		if du := dist[u]; du >= 0 && (best < 0 || du+1 < best) {
			best = du + 1
		}
	}
	return best
}

// seedRepair queues the first step of a repair pass from hub rank rk:
// every neighbor ranked below the hub, at Gb distance d with one path.
func (idx *Index) seedRepair(nbrs []int32, rk int, d int32) {
	s := idx.scr
	for _, u := range nbrs {
		if idx.coupleRank(int(u)) > rk {
			s.Visit(int(u), d, 1)
			s.Queue = append(s.Queue, u)
		}
	}
}

// couplePass runs one couple-form pass from hub rank rk over g, from
// the seeds the caller queued: an INCCNT pass (Algorithm 6) when side is
// nil, which writes through UPDATE LABEL, and otherwise a repair pass,
// which sets the entry of every owner whose side flags carry target.
// forward writes in-labels over out-edges, !forward out-labels over
// in-edges. The prune test probes the scatter of the hub's anchor,
// which no write of the pass touches.
func (idx *Index) couplePass(g *graph.Digraph, rk int, forward bool, side []uint8, target uint8, st *UpdateStats) {
	s := idx.scr
	vk := idx.hubVertex(rk)
	// lowest is the smallest V_in rank a pass may queue: below the hub
	// forward, and backward the hub's own couple too.
	lowest := rk
	if forward {
		lowest++
		idx.scatterMirrorOut(s, vk, rk)
		defer idx.unscatterMirrorOut(s, vk, rk)
	} else {
		anchor := &idx.In[bipartite.InVertex(vk)]
		s.Scatter(anchor, 0)
		defer s.Unscatter(anchor)
	}
	defer s.Reset()

	for head := 0; head < len(s.Queue); head++ {
		w := int(s.Queue[head])
		st.Visited++
		dw := s.Dist[w]
		lst, nbrs := &idx.Out[bipartite.OutVertex(w)], g.In(w)
		if forward {
			lst, nbrs = &idx.In[bipartite.InVertex(w)], g.Out(w)
		}
		if s.Probe(lst, int(dw)) < int(dw) {
			continue // vk is not the highest rank on any shortest path
		}
		// Every entry but the cycle entry has a mirror.
		mirror := forward || w != vk
		switch {
		case side == nil:
			idx.coupleUpdate(lst, bitpack.Pack(rk, int(dw), s.Cnt[w]), w, mirror, st)
		case side[w]&target != 0:
			if lst.Set(bitpack.Pack(rk, int(dw), s.Cnt[w])) {
				idx.coupleAdded(w, mirror, st)
			} else {
				idx.coupleChanged(w, mirror, st)
			}
		}
		if !mirror {
			continue // the cycle entry: no shortest path continues
		}
		for _, u := range nbrs {
			switch s.Dist[u] {
			case -1:
				if idx.coupleRank(int(u)) >= lowest {
					s.Visit(int(u), dw+2, s.Cnt[w])
					s.Queue = append(s.Queue, u)
				}
			case dw + 2:
				s.Cnt[u] = bitpack.SatAdd(s.Cnt[u], s.Cnt[w])
			}
		}
	}
}

// coupleUpdate is UPDATE LABEL (Algorithm 7) under Redundancy on the
// stored list lst of w: replace on a shorter distance, accumulate on an
// equal one, insert a new hub.
func (idx *Index) coupleUpdate(lst *label.List, e bitpack.Entry, w int, mirror bool, st *UpdateStats) {
	old, ok := lst.Lookup(e.Hub())
	switch {
	case !ok:
		lst.Set(e)
		idx.coupleAdded(w, mirror, st)
	case e.Dist() < old.Dist():
		lst.Set(e)
		idx.coupleChanged(w, mirror, st)
	case e.Dist() == old.Dist():
		lst.Set(bitpack.Pack(e.Hub(), e.Dist(), bitpack.SatAdd(old.Count(), e.Count())))
		idx.coupleChanged(w, mirror, st)
	}
}

// coupleAdded counts an entry added to a stored list of w's couple and,
// with mirror, the entry its mirror gains.
func (idx *Index) coupleAdded(w int, mirror bool, st *UpdateStats) {
	k := idx.coupleTouch(w, mirror, st)
	idx.entries += k
	st.EntriesAdded += k
	if mirror {
		idx.mirrored++
	}
}

// coupleChanged counts an entry of w's couple rewritten in place.
func (idx *Index) coupleChanged(w int, mirror bool, st *UpdateStats) {
	st.EntriesChanged += idx.coupleTouch(w, mirror, st)
}

// coupleRemoved counts an entry dropped from a stored list of w's couple
// and, with mirror, the entry its mirror loses.
func (idx *Index) coupleRemoved(w int, mirror bool, st *UpdateStats) {
	k := idx.coupleTouch(w, mirror, st)
	idx.entries -= k
	st.EntriesRemoved += k
	if mirror {
		idx.mirrored--
	}
}

// coupleTouch records the owners of a write to w's couple — the cycle
// entry has only v_out, every other entry both — and returns how many
// lists it wrote.
func (idx *Index) coupleTouch(w int, mirror bool, st *UpdateStats) int {
	idx.touch(st, bipartite.OutVertex(w))
	if !mirror {
		return 1
	}
	idx.touch(st, bipartite.InVertex(w))
	return 2
}

// scatterMirrorOut loads a forward pass's anchor, the mirror Lout(vk_in)
// of hub rank rk: the stored Lout(vk_out) with every distance +1, minus
// its cycle entry (hub rk) and its self entry (hub rk+1), plus the hub's
// own entry at 0. The self entry is last in Lout(vk_out), so the
// mirror's largest hub is rk.
func (idx *Index) scatterMirrorOut(s *Scratch, vk, rk int) {
	s.Scatter(&idx.Out[bipartite.OutVertex(vk)], 1)
	s.hub[rk], s.hub[rk+1] = 0, unreachScatter
	s.maxHub = int32(rk)
}

// unscatterMirrorOut clears what scatterMirrorOut loaded.
func (idx *Index) unscatterMirrorOut(s *Scratch, vk, rk int) {
	s.Unscatter(&idx.Out[bipartite.OutVertex(vk)])
	s.hub[rk] = unreachScatter
}

// coupleRank returns the rank of base vertex v's v_in: twice its base
// rank.
func (idx *Index) coupleRank(v int) int { return idx.Ord.Rank(bipartite.InVertex(v)) }

// hubVertex returns the base vertex whose v_in holds hub rank h.
func (idx *Index) hubVertex(h int) int { return bipartite.Original(idx.Ord.VertexAt(h)) }
