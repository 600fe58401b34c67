// Package bfscount implements the paper's index-free baselines: the
// BFS-CYCLE algorithm (Algorithm 1) answering SCCnt(v) in O(n+m), and a
// shortest-path-counting BFS used both by the HP-SPC baseline's ground
// truth and as the reference oracle the index implementations are tested
// against.
//
// Counts saturate at bitpack.MaxCount so oracle answers are comparable to
// index answers bit-for-bit even on pathological graphs.
package bfscount

import (
	"repro/internal/bitpack"
	"repro/internal/graph"
)

// NoCycle is the distance reported when no cycle (or path) exists.
const NoCycle = -1

// CycleCount answers SCCnt(vq) by the paper's Algorithm 1: a BFS over
// out-edges seeded with vq's out-neighbors at distance 1, accumulating
// shortest-path counts, terminating as soon as vq itself is dequeued.
// It returns the shortest cycle length through vq and the number of such
// cycles, or (NoCycle, 0) when vq lies on no cycle. It allocates two
// n-sized arrays per call; a Counter answers many queries without them.
func CycleCount(g *graph.Digraph, vq int) (length int, count uint64) {
	var c Counter
	return c.CycleCount(g, vq)
}

// Counter answers CycleCount repeatedly, reusing its BFS arrays: after
// each query it resets only the cells that query touched, so a query
// costs the vertices its BFS reached, not the graph's size. The zero
// value is ready to use; a Counter is not safe for concurrent use.
type Counter struct {
	dist  []int32 // -1 for every vertex between queries
	cnt   []uint64
	queue []int32
}

// CycleCount is the package-level CycleCount on the counter's arrays,
// which grow to the graph's vertex count on first use.
func (c *Counter) CycleCount(g *graph.Digraph, vq int) (length int, count uint64) {
	if n := g.NumVertices(); len(c.dist) < n {
		c.dist = make([]int32, n)
		c.cnt = make([]uint64, n)
		for i := range c.dist {
			c.dist[i] = -1
		}
	}
	dist, cnt := c.dist, c.cnt
	queue := c.queue[:0]
	defer func() {
		// Every visited vertex was queued, so the queue names every
		// touched cell.
		for _, w := range queue {
			dist[w] = -1
		}
		c.queue = queue[:0]
	}()
	for _, u := range g.Out(vq) {
		dist[u] = 1
		cnt[u] = 1
		queue = append(queue, u)
	}
	// vq itself is "unvisited" so the BFS can close the cycle back into it.
	for head := 0; head < len(queue); head++ {
		w := queue[head]
		if int(w) == vq {
			return int(dist[w]), cnt[w]
		}
		for _, wn := range g.Out(int(w)) {
			switch {
			case dist[wn] == -1:
				dist[wn] = dist[w] + 1
				cnt[wn] = cnt[w]
				queue = append(queue, wn)
			case dist[wn] == dist[w]+1:
				cnt[wn] = bitpack.SatAdd(cnt[wn], cnt[w])
			}
		}
	}
	return NoCycle, 0
}

// SPCount returns the shortest distance from s to t and the number of
// shortest paths, or (NoCycle, 0) if t is unreachable from s. SPCount(s,s)
// is (0,1) by the convention of the labeling schemes (the empty path).
func SPCount(g *graph.Digraph, s, t int) (dist int, count uint64) {
	if s == t {
		return 0, 1
	}
	n := g.NumVertices()
	d := make([]int32, n)
	c := make([]uint64, n)
	for i := range d {
		d[i] = -1
	}
	d[s] = 0
	c[s] = 1
	queue := []int32{int32(s)}
	for head := 0; head < len(queue); head++ {
		w := queue[head]
		if int(w) == t {
			// FIFO order means every vertex of the previous level already
			// relaxed its edges, so c[t] is final when t is dequeued.
			return int(d[w]), c[w]
		}
		for _, u := range g.Out(int(w)) {
			switch {
			case d[u] == -1:
				d[u] = d[w] + 1
				c[u] = c[w]
				queue = append(queue, u)
			case d[u] == d[w]+1:
				c[u] = bitpack.SatAdd(c[u], c[w])
			}
		}
	}
	if d[t] == -1 {
		return NoCycle, 0
	}
	return int(d[t]), c[t]
}

// AllCycleCounts runs CycleCount for every vertex; used to build oracle
// tables in tests and the case study.
func AllCycleCounts(g *graph.Digraph) (lengths []int, counts []uint64) {
	n := g.NumVertices()
	lengths = make([]int, n)
	counts = make([]uint64, n)
	var c Counter
	for v := 0; v < n; v++ {
		lengths[v], counts[v] = c.CycleCount(g, v)
	}
	return lengths, counts
}
