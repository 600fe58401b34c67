// Package partition computes the condensation of a directed graph — its
// strongly connected components — and the helpers the SCC-sharded CSC
// index routes through. Every directed cycle lies entirely inside one
// SCC, so the index never needs labels that cross component boundaries:
// trivial (single-vertex) components answer SCCnt = 0 with no labels at
// all, and non-trivial components get independent sub-indexes over their
// induced subgraphs.
//
// Component ids are stable: components are numbered by their smallest
// vertex id and each component's vertex list is sorted ascending, so the
// decomposition — and everything built on top of it, including the
// sharded serialization — is a pure function of the edge set, independent
// of adjacency order or traversal luck.
package partition

import (
	"slices"
	"sync"

	"repro/internal/graph"
)

// Partition is the SCC decomposition of a digraph under the stable
// numbering described in the package comment.
type Partition struct {
	// Comp[v] is the component id of vertex v.
	Comp []int32
	// Comps[c] lists component c's vertices, sorted ascending. Components
	// are ordered by their smallest vertex.
	Comps [][]int32
}

// SCC computes the strongly connected components of g with an iterative
// Tarjan walk (explicit stack — no recursion, so deep chains cannot
// overflow the goroutine stack).
func SCC(g *graph.Digraph) *Partition {
	comp := make([]int32, g.NumVertices())
	k := tarjan(comp, func(v int32) []int32 { return g.Out(int(v)) })
	return &Partition{Comp: comp, Comps: number(comp, k)}
}

// tarjan writes a raw component id into comp[v] for every vertex v of the
// len(comp)-vertex graph whose out-lists adj returns, and returns the
// number of components. Raw ids follow the walk's completion order; number
// turns them into the stable numbering.
func tarjan(comp []int32, adj func(v int32) []int32) int32 {
	n := len(comp)
	const unvisited = -1
	index := make([]int32, n)
	low := make([]int32, n)
	for v := range index {
		index[v] = unvisited
		comp[v] = -1 // a visited vertex is on the stack until it gets a component
	}
	stack := make([]int32, 0, n)
	var next, k int32

	// frame is one suspended DFS call: vertex v, its out-list, and how
	// many of its out-edges were already expanded.
	type frame struct {
		out  []int32
		v    int32
		edge int32
	}
	frames := make([]frame, 0, 64)
	push := func(v int32) {
		index[v] = next
		low[v] = next
		next++
		stack = append(stack, v)
		if len(frames) == cap(frames) {
			frames = slices.Grow(frames, len(frames)) // double: a deep chain stays O(log n) allocations
		}
		frames = append(frames, frame{out: adj(v), v: v})
	}

	for root := range int32(n) {
		if index[root] != unvisited {
			continue
		}
		push(root)
		for len(frames) > 0 {
			f := &frames[len(frames)-1]
			v := f.v
			if int(f.edge) < len(f.out) {
				w := f.out[f.edge]
				f.edge++
				if index[w] == unvisited {
					push(w)
				} else if comp[w] < 0 && index[w] < low[v] {
					low[v] = index[w]
				}
				continue
			}
			frames = frames[:len(frames)-1]
			if len(frames) > 0 {
				if p := frames[len(frames)-1].v; low[v] < low[p] {
					low[p] = low[v]
				}
			}
			if low[v] == index[v] { // v is a component root
				for {
					w := stack[len(stack)-1]
					stack = stack[:len(stack)-1]
					comp[w] = k
					if w == v {
						break
					}
				}
				k++
			}
		}
	}
	return k
}

// number rewrites the k raw component ids in comp into the stable
// numbering and returns every component's members. One ascending sweep
// numbers the components, because a component's first sighting is its
// smallest member; a counting sort then lays the member lists out
// ascending in one backing array. Each list is capped at its own length,
// so an append to one reallocates instead of overwriting the next.
func number(comp []int32, k int32) [][]int32 {
	stable := make([]int32, k)
	for r := range stable {
		stable[r] = -1
	}
	end := make([]int32, k) // sizes, then each component's next free slot
	var next int32
	for v, r := range comp {
		c := stable[r]
		if c < 0 {
			c = next
			stable[r] = c
			next++
		}
		comp[v] = c
		end[c]++
	}
	var lo int32
	for c, size := range end {
		end[c] = lo
		lo += size
	}
	back := make([]int32, len(comp))
	for v, c := range comp {
		back[end[c]] = int32(v)
		end[c]++
	}
	comps := make([][]int32, k)
	lo = 0
	for c, hi := range end {
		comps[c] = back[lo:hi:hi]
		lo = hi
	}
	return comps
}

// NonTrivial returns the components with at least two vertices — the only
// ones that can host a directed cycle (the graph substrate rejects
// self-loops, so a single vertex is never cyclic).
func (p *Partition) NonTrivial() [][]int32 {
	var out [][]int32
	for _, c := range p.Comps {
		if len(c) >= 2 {
			out = append(out, c)
		}
	}
	return out
}

// SCCWithin computes the strongly connected components of the subgraph of
// g induced by verts, which must be ascending like every shard's member
// list. Components come back in global vertex ids under the same stable
// numbering as SCC: members sorted ascending, components ordered by
// smallest member. The batch update planner uses it to re-check one dirty
// shard's partition after a batch of deletions instead of re-running
// Tarjan over the whole graph.
func SCCWithin(g *graph.Digraph, verts []int32) [][]int32 {
	// Local ids are positions in verts; the induced out-lists are carved
	// from one array, dropping edges that leave the vertex set.
	n := len(verts)
	local := make(map[int32]int32, n)
	for li, v := range verts {
		local[v] = int32(li)
	}
	off := make([]int32, n+1)
	var adj []int32
	for li, v := range verts {
		for _, w := range g.Out(int(v)) {
			if lw, ok := local[w]; ok {
				adj = append(adj, lw)
			}
		}
		off[li+1] = int32(len(adj))
	}
	comp := make([]int32, n)
	comps := number(comp, tarjan(comp, func(v int32) []int32 { return adj[off[v]:off[v+1]] }))
	// verts is ascending, so local and global ids sort alike.
	for _, members := range comps {
		for i, lv := range members {
			members[i] = verts[lv]
		}
	}
	return comps
}

// Induced builds the subgraph of g induced by verts, with local ids
// assigned by position in verts. Edges leaving the vertex set are
// dropped — exactly the cross-component edges the sharded index keeps
// label-free.
func Induced(g *graph.Digraph, verts []int32) *graph.Digraph {
	local := make(map[int32]int32, len(verts))
	for li, v := range verts {
		local[v] = int32(li)
	}
	var pairs []int32
	for li, v := range verts {
		for _, w := range g.Out(int(v)) {
			if lw, ok := local[w]; ok {
				pairs = append(pairs, int32(li), lw)
			}
		}
	}
	sub, err := graph.FromPairs(len(verts), pairs)
	if err != nil {
		panic(err) // unreachable: g has no duplicates or self-loops
	}
	return sub
}

// Reachable reports whether to is reachable from from (BFS over
// out-edges). Reachable(g, v, v) is true via the empty path.
func Reachable(g *graph.Digraph, from, to int) bool {
	return reachable(g, from, to, -1, -1)
}

// ReachableSkip is Reachable with one edge (skipU → skipV) excluded from
// the walk — the split test for a deletion asks whether the removed
// edge's tail still reaches its head some other way.
func ReachableSkip(g *graph.Digraph, from, to, skipU, skipV int) bool {
	return reachable(g, from, to, skipU, skipV)
}

func reachable(g *graph.Digraph, from, to, skipU, skipV int) bool {
	if from == to {
		return true
	}
	seen := make([]bool, g.NumVertices())
	seen[from] = true
	queue := []int32{int32(from)}
	for head := 0; head < len(queue); head++ {
		v := int(queue[head])
		for _, w := range g.Out(v) {
			if v == skipU && int(w) == skipV {
				continue
			}
			if int(w) == to {
				return true
			}
			if !seen[w] {
				seen[w] = true
				queue = append(queue, w)
			}
		}
	}
	return false
}

// ComponentOf returns the strongly connected component containing v as a
// sorted vertex list. The sharded index calls it after an insertion
// merged components, when only v's component — not the whole
// decomposition — is stale. A forward walk marks v's reach in an n-bit
// set; a backward walk from v inside that set then reaches exactly the
// component (every vertex on a path back to v is reachable from v), and
// clears each member's bit as it takes it. Both walks share one pooled
// queue, so a call allocates the bit set and the component.
func ComponentOf(g *graph.Digraph, v int) []int32 {
	seen := make([]uint64, (g.NumVertices()+63)/64)
	has := func(w int32) bool { return seen[w>>6]&(1<<(w&63)) != 0 }
	flip := func(w int32) { seen[w>>6] ^= 1 << (w & 63) }
	q := walkQueues.Get().(*[]int32)
	queue := append((*q)[:0], int32(v))
	flip(int32(v))
	for head := 0; head < len(queue); head++ {
		for _, w := range g.Out(int(queue[head])) {
			if !has(w) {
				flip(w)
				queue = append(queue, w)
			}
		}
	}
	queue = append(queue[:0], int32(v))
	flip(int32(v))
	for head := 0; head < len(queue); head++ {
		for _, w := range g.In(int(queue[head])) {
			if has(w) {
				flip(w)
				queue = append(queue, w)
			}
		}
	}
	members := slices.Clone(queue)
	slices.Sort(members)
	*q = queue[:0]
	walkQueues.Put(q)
	return members
}

// walkQueues holds ComponentOf's BFS queues between calls.
var walkQueues = sync.Pool{New: func() any { return new([]int32) }}
