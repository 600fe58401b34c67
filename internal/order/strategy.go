// Ordering strategies. The hub order is the single biggest lever on
// label size ("Algorithmic and Hardness Results for the Hub Labeling
// Problem", Angelidakis et al.): a good order puts the vertices that
// intersect the most shortest cycles first, so every BFS prunes earlier
// and every label stays shorter. Degree is the paper's heuristic;
// Coverage picks hubs greedily to cover a sample of shortest cycles and
// produces smaller labels where degree is uninformative: near-regular
// topologies, and the near-uniform background of the payment ledger
// cscd serves, where degree order falls back to id order.
//
// Every strategy breaks ties on ascending vertex id as the final key, so
// repeated builds over the same graph are byte-identical.
package order

import (
	"fmt"
	"math/rand"
	"sort"

	"repro/internal/graph"
)

// Strategy names a total-order heuristic. The numeric values are a wire
// format (the v4 index serialization tags each shard with the strategy
// that produced its order) — never renumber, only append.
type Strategy uint8

const (
	// Degree ranks by descending total degree — the paper's Example 4
	// ordering and the zero value, so existing call sites keep their
	// behavior.
	Degree Strategy = iota
	// ID ranks by ascending vertex id (deterministic tests).
	ID
	// Random is a seeded uniform permutation (ablation baseline).
	Random
	// Wire value 3 was sampled shortest-cycle betweenness, deleted after
	// it lost to degree or to coverage on every family measured. The
	// value stays reserved: a file whose shard is tagged 3 still loads,
	// and Compute ranks it by degree. It has no name to parse.
	retired
	// Coverage ranks by greedy set cover over materialized sampled
	// shortest cycles: each pick covers the most yet-uncovered cycles.
	Coverage
	// Hits marks an order produced online from live per-hub hit
	// counters (ByWeights). It is a provenance tag, not recomputable
	// offline: Compute falls back to degree.
	Hits

	numStrategies // sentinel for validation
)

// String returns the strategy's canonical flag/wire name.
func (s Strategy) String() string {
	switch s {
	case Degree:
		return "degree"
	case ID:
		return "id"
	case Random:
		return "random"
	case Coverage:
		return "coverage"
	case Hits:
		return "hits"
	}
	return fmt.Sprintf("strategy(%d)", uint8(s))
}

// Valid reports whether s is a known strategy value (wire validation).
func (s Strategy) Valid() bool { return s < numStrategies }

// ParseStrategy resolves a canonical name back to its Strategy.
func ParseStrategy(name string) (Strategy, error) {
	for s := Degree; s < numStrategies; s++ {
		if s != retired && s.String() == name {
			return s, nil
		}
	}
	return 0, fmt.Errorf("order: unknown strategy %q", name)
}

// DefaultSamples is the shortest-cycle sample size Compute uses for
// Coverage: enough for stable ranks at shard scale, cheap enough to run
// inside a build.
func DefaultSamples(n int) int {
	const limit = 64
	if n < limit {
		return n
	}
	return limit
}

// Compute builds an order for g under the named strategy. The seed feeds
// Coverage's sampling (and Random); fixed seed means deterministic
// output. Hits is online-only and falls back to degree — an offline
// rebuild has no live hit counters to consult — and so does the retired
// wire value 3.
func Compute(g *graph.Digraph, s Strategy, seed int64) (*Order, error) {
	switch s {
	case Degree, Hits, retired:
		return ByDegree(g), nil
	case ID:
		return ByID(g.NumVertices()), nil
	case Random:
		return ByRandom(g.NumVertices(), seed), nil
	case Coverage:
		return ByCoverage(g, DefaultSamples(g.NumVertices()), seed), nil
	}
	return nil, fmt.Errorf("order: cannot compute %v", s)
}

// sampleVertices picks up to k distinct vertices of g, seeded and
// deterministic.
func sampleVertices(n, k int, seed int64) []int {
	if k >= n {
		vs := make([]int, n)
		for i := range vs {
			vs[i] = i
		}
		return vs
	}
	return rand.New(rand.NewSource(seed)).Perm(n)[:k]
}

// ByCoverage ranks vertices by greedy cover over sampled shortest
// cycles: for each seeded sample vertex one concrete shortest cycle is
// materialized (deterministic parent pointers), then vertices are picked
// greedily to cover the most yet-uncovered cycles. Vertices on no sampled
// cycle follow, by degree. Ties break on descending degree then ascending
// id everywhere.
func ByCoverage(g *graph.Digraph, samples int, seed int64) *Order {
	n := g.NumVertices()
	dist := make([]int32, n)
	parent := make([]int32, n)
	var queue []int32
	for i := range dist {
		dist[i] = -1
	}
	// cyclesOf[v] = indices of sampled cycles containing v.
	var cycles [][]int32
	cyclesOf := make([][]int32, n)
	for _, vq := range sampleVertices(n, samples, seed) {
		queue = queue[:0]
		for _, u := range g.Out(vq) {
			if dist[u] == -1 {
				dist[u] = 1
				parent[u] = int32(vq)
				queue = append(queue, u)
			}
		}
		closed := false
		for head := 0; head < len(queue) && !closed; head++ {
			w := queue[head]
			if int(w) == vq {
				closed = true
				break
			}
			for _, wn := range g.Out(int(w)) {
				if dist[wn] == -1 {
					dist[wn] = dist[w] + 1
					parent[wn] = w
					queue = append(queue, wn)
				}
			}
		}
		if closed {
			// Backtrack one deterministic shortest cycle: vq was enqueued
			// with a parent at distance l-1, whose parent chain runs back
			// to a distance-1 seed (first-parent pointers are BFS-order
			// deterministic). A self-loop is the one cycle with no chain.
			members := []int32{int32(vq)}
			if dist[vq] > 1 {
				for v := parent[vq]; ; v = parent[v] {
					members = append(members, v)
					if dist[v] == 1 {
						break
					}
				}
			}
			ci := int32(len(cycles))
			for _, m := range members {
				cyclesOf[m] = append(cyclesOf[m], ci)
			}
			cycles = append(cycles, members)
		}
		for _, w := range queue {
			dist[w] = -1
		}
		dist[vq] = -1
	}
	// Greedy cover: repeatedly take the vertex on the most uncovered
	// cycles (ties: degree desc, id asc).
	covered := make([]bool, len(cycles))
	gain := make([]int, n)
	for v := 0; v < n; v++ {
		gain[v] = len(cyclesOf[v])
	}
	picked := make([]bool, n)
	var head []int
	remaining := len(cycles)
	for remaining > 0 {
		best := -1
		for v := 0; v < n; v++ {
			if picked[v] || gain[v] == 0 {
				continue
			}
			if best == -1 || gain[v] > gain[best] ||
				(gain[v] == gain[best] && g.Degree(v) > g.Degree(best)) {
				best = v
			}
		}
		if best == -1 {
			break
		}
		picked[best] = true
		head = append(head, best)
		for _, ci := range cyclesOf[best] {
			if covered[ci] {
				continue
			}
			covered[ci] = true
			remaining--
			for _, m := range cycles[ci] {
				if !picked[m] {
					gain[m]--
				}
			}
		}
	}
	// Tail: everything unpicked, by degree desc then id asc.
	tail := make([]int, 0, n-len(head))
	for v := 0; v < n; v++ {
		if !picked[v] {
			tail = append(tail, v)
		}
	}
	sort.Slice(tail, func(a, b int) bool {
		da, db := g.Degree(tail[a]), g.Degree(tail[b])
		if da != db {
			return da > db
		}
		return tail[a] < tail[b]
	})
	o, err := FromVertexList(append(head, tail...))
	if err != nil {
		panic(err) // unreachable: head+tail is a permutation by construction
	}
	return o
}

// ByWeights ranks vertices by descending weight — the online re-ranker
// feeds per-hub hit counters through this. Ties break on descending
// degree, then ascending id, so a uniformly-hit shard degenerates to the
// degree order rather than an arbitrary one.
func ByWeights(g *graph.Digraph, weights []float64) *Order {
	if len(weights) != g.NumVertices() {
		panic(fmt.Sprintf("order: ByWeights got %d weights for %d vertices",
			len(weights), g.NumVertices()))
	}
	n := g.NumVertices()
	vs := make([]int, n)
	for i := range vs {
		vs[i] = i
	}
	sort.Slice(vs, func(a, b int) bool {
		sa, sb := weights[vs[a]], weights[vs[b]]
		if sa != sb {
			return sa > sb
		}
		da, db := g.Degree(vs[a]), g.Degree(vs[b])
		if da != db {
			return da > db
		}
		return vs[a] < vs[b]
	})
	o, err := FromVertexList(vs)
	if err != nil {
		panic(err) // unreachable: vs is a permutation by construction
	}
	return o
}

// VertexList returns the order as an explicit highest-to-lowest vertex
// list — the inverse of FromVertexList, used by serialization and tests.
func (o *Order) VertexList() []int {
	vs := make([]int, len(o.vertexAt))
	for r, v := range o.vertexAt {
		vs[r] = int(v)
	}
	return vs
}
