// Package bipartite implements the paper's bipartite conversion (§IV-B,
// Algorithm 2): every vertex v of a directed graph G is split into a
// couple (v_in, v_out) joined by the edge (v_in → v_out), and every edge
// (v,w) of G becomes (v_out → w_in). The converted graph Gb has 2n
// vertices and n+m edges; a cycle of length k through v in G corresponds
// one-to-one to a path of length 2k−1 from v_out to v_in in Gb, which is
// what lets a shortest-path-counting index answer shortest-cycle counting.
//
// The package also lifts a vertex ordering of G to Gb so that each couple
// occupies consecutive ranks with v_in ranked immediately above v_out —
// the precondition for the couple-vertex-skipping construction (§IV-C)
// and the index reduction (§IV-E).
package bipartite

import (
	"repro/internal/graph"
	"repro/internal/order"
)

// InVertex returns the Gb id of v's incoming vertex v_in.
func InVertex(v int) int { return 2 * v }

// OutVertex returns the Gb id of v's outgoing vertex v_out.
func OutVertex(v int) int { return 2*v + 1 }

// IsIn reports whether a Gb vertex belongs to V_in.
func IsIn(b int) bool { return b%2 == 0 }

// Couple returns the partner of a Gb vertex (v_in ↔ v_out).
func Couple(b int) int { return b ^ 1 }

// Original returns the G vertex a Gb vertex was split from.
func Original(b int) int { return b / 2 }

// Convert builds Gb from G (Algorithm 2, BI-G) from the edges EachEdge
// lists.
func Convert(g *graph.Digraph) *graph.Digraph {
	pairs := make([]int32, 0, 2*(g.NumVertices()+g.NumEdges()))
	EachEdge(g, func(u, v int) { pairs = append(pairs, int32(u), int32(v)) })
	gb, err := graph.FromPairs(2*g.NumVertices(), pairs)
	if err != nil {
		// Unreachable for a valid self-loop-free input graph: the couple
		// edges and converted edges are distinct by construction.
		panic(err)
	}
	return gb
}

// EachEdge calls fn for every edge of Gb, tails ascending: v_in's
// couple edge (v_in → v_out), then v_out's converted edges (v_out → w_in)
// in G's out-adjacency order. Convert lays Gb out in this order, so a
// writer can emit Gb's edge list from G without building Gb.
func EachEdge(g *graph.Digraph, fn func(u, v int)) {
	for v := 0; v < g.NumVertices(); v++ {
		fn(InVertex(v), OutVertex(v))
		for _, w := range g.Out(v) {
			fn(OutVertex(v), InVertex(int(w)))
		}
	}
}

// ConvertEdge maps an edge (a,b) of G to its Gb counterpart
// (a_out → b_in); dynamic updates on G are applied to Gb through it.
func ConvertEdge(a, b int) (int, int) { return OutVertex(a), InVertex(b) }

// LiftOrder expands an ordering of G's n vertices into an ordering of
// Gb's 2n vertices, keeping each couple consecutive with v_in ranked
// immediately above v_out.
func LiftOrder(base *order.Order) *order.Order {
	n := base.Len()
	vs := make([]int, 0, 2*n)
	for r := 0; r < n; r++ {
		v := base.VertexAt(r)
		vs = append(vs, InVertex(v), OutVertex(v))
	}
	o, err := order.FromVertexList(vs)
	if err != nil {
		panic(err) // unreachable: vs is a permutation by construction
	}
	return o
}

// CycleLength converts a Gb shortest distance d from v_out to v_in into
// the original cycle length (d+1)/2 (§IV-D).
func CycleLength(d int) int { return (d + 1) / 2 }
