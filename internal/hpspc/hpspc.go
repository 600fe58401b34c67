// Package hpspc implements the HP-SPC baseline (§III-A): the hub labeling
// for shortest path counting of Zhang & Yu (SIGMOD'20) built directly on
// the original graph, with shortest cycle counting answered through the
// neighbor reduction of Equations (3)-(4) — SCCnt(v) is evaluated as the
// sum of SPCnt over the smaller side of v's neighborhood, which makes the
// query cost grow with min(|nbr_in(v)|, |nbr_out(v)|). That degree
// dependence is exactly what the CSC index removes.
package hpspc

import (
	"repro/internal/bfscount"
	"repro/internal/bitpack"
	"repro/internal/graph"
	"repro/internal/order"
	"repro/internal/pll"
)

// Index is an HP-SPC shortest-path-counting index over a directed graph.
type Index struct {
	idx *pll.Index
}

// Build constructs the index with every vertex as a hub.
func Build(g *graph.Digraph, ord *order.Order, strategy pll.Strategy) (*Index, pll.BuildStats) {
	idx, st := pll.Build(g, ord, pll.Options{Strategy: strategy})
	return &Index{idx: idx}, st
}

// Graph returns the underlying (live) graph.
func (h *Index) Graph() *graph.Digraph { return h.idx.G }

// Engine exposes the underlying label engine (stats, serialization).
func (h *Index) Engine() *pll.Index { return h.idx }

// CountPaths answers SPCnt(s,t) with the shortest distance, or
// (pll.Unreachable, 0) when no path exists.
func (h *Index) CountPaths(s, t int) (dist int, count uint64) {
	return h.idx.CountPaths(s, t)
}

// CycleCount answers SCCnt(v) by the neighbor reduction (Equations 3-4):
// it scans the smaller of v's neighbor sides, evaluates one SPCnt per
// neighbor, keeps the minimum distance and sums the counts. The returned
// length is the cycle length in G (the neighbor distance plus one), or
// bfscount.NoCycle when v lies on no cycle.
func (h *Index) CycleCount(v int) (length int, count uint64) {
	g := h.idx.G
	bestD := -1
	var total uint64
	if g.OutDegree(v) < g.InDegree(v) || g.InDegree(v) == 0 {
		// Cycle = edge (v,w) + shortest path w→v over each out-neighbor w.
		for _, w := range g.Out(v) {
			d, c := h.idx.CountPaths(int(w), v)
			if d == pll.Unreachable {
				continue
			}
			bestD, total = fold(bestD, total, d, c)
		}
	} else {
		// Cycle = shortest path v→w + edge (w,v) over each in-neighbor w.
		for _, w := range g.In(v) {
			d, c := h.idx.CountPaths(v, int(w))
			if d == pll.Unreachable {
				continue
			}
			bestD, total = fold(bestD, total, d, c)
		}
	}
	if bestD < 0 {
		return bfscount.NoCycle, 0
	}
	return bestD + 1, total
}

func fold(bestD int, total uint64, d int, c uint64) (int, uint64) {
	switch {
	case bestD == -1 || d < bestD:
		return d, c
	case d == bestD:
		return bestD, bitpack.SatAdd(total, c)
	}
	return bestD, total
}

// InsertEdge maintains the index for an edge insertion (INCCNT).
func (h *Index) InsertEdge(a, b int) (pll.UpdateStats, error) {
	return h.idx.InsertEdge(a, b)
}

// DeleteEdge maintains the index for an edge deletion.
func (h *Index) DeleteEdge(a, b int) (pll.UpdateStats, error) {
	return h.idx.DeleteEdge(a, b)
}

// EntryCount returns the total number of label entries.
func (h *Index) EntryCount() int { return h.idx.EntryCount() }

// Bytes returns the label storage footprint.
func (h *Index) Bytes() int { return h.idx.Bytes() }
