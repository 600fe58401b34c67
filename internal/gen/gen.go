// Package gen generates the synthetic directed graphs that stand in for
// the paper's nine SNAP/Konect datasets (Table IV) and the MAHINDAS case
// study. The environment is offline, so the real downloads are replaced
// with deterministic generators that reproduce the structural features the
// experiments are sensitive to: degree skew (query-time clustering),
// reciprocity (shortest cycle lengths), and small-world diameters (update
// locality). Every generator is a pure function of its parameters and
// seed.
package gen

import (
	"math"
	"math/rand"

	"repro/internal/graph"
)

// Config is shared by the random generators.
type Config struct {
	N    int   // number of vertices
	M    int   // target number of edges (best effort; duplicates skipped)
	Seed int64 // PRNG seed; same seed ⇒ same graph

	// NoReciprocal suppresses 2-cycles (v⇄w), keeping shortest cycle
	// lengths ≥ 3 as in the paper's cycle definition.
	NoReciprocal bool
}

// grower is what a generator grows its graph through: an edgeSet, which
// collects the edges and builds the graph once, or a *graph.Digraph
// itself, one AddEdge at a time — the reference the tests hold the bulk
// build to, adjacency order included.
type grower interface {
	HasEdge(u, v int) bool
	AddEdge(u, v int) error
	Out(v int) []int32
	OutDegree(v int) int
	NumEdges() int
}

// edgeSet collects a generator's edges in insertion order and answers the
// queries generation makes, so the graph is built in one
// graph.FromPairs call. Its out-lists are only materialized once a
// generator reads one.
type edgeSet struct {
	n     int
	pairs []int32
	has   map[uint64]struct{}
	out   [][]int32
}

// newEdgeSet sizes the set for about m edges.
func newEdgeSet(n, m int) *edgeSet {
	m = max(m, 0)
	return &edgeSet{n: n, pairs: make([]int32, 0, 2*m), has: make(map[uint64]struct{}, m)}
}

func edgeKey(u, v int) uint64 { return uint64(u)<<32 | uint64(uint32(v)) }

func (s *edgeSet) HasEdge(u, v int) bool {
	_, ok := s.has[edgeKey(u, v)]
	return ok
}

// AddEdge records u→v, failing like graph.Digraph.AddEdge on an
// out-of-range endpoint, a self-loop or a duplicate.
func (s *edgeSet) AddEdge(u, v int) error {
	switch {
	case u < 0 || u >= s.n || v < 0 || v >= s.n:
		return graph.ErrVertexRange
	case u == v:
		return graph.ErrSelfLoop
	case s.HasEdge(u, v):
		return graph.ErrDuplicateEdge
	}
	s.has[edgeKey(u, v)] = struct{}{}
	s.pairs = append(s.pairs, int32(u), int32(v))
	if s.out != nil {
		s.out[u] = append(s.out[u], int32(v))
	}
	return nil
}

func (s *edgeSet) Out(v int) []int32 {
	if s.out == nil {
		s.out = make([][]int32, s.n)
		for i := 0; i < len(s.pairs); i += 2 {
			s.out[s.pairs[i]] = append(s.out[s.pairs[i]], s.pairs[i+1])
		}
	}
	return s.out[v]
}

func (s *edgeSet) OutDegree(v int) int { return len(s.Out(v)) }

func (s *edgeSet) NumEdges() int { return len(s.pairs) / 2 }

// graph builds the collected edges, with every adjacency list in the
// order AddEdge calls on a *graph.Digraph would have left it.
func (s *edgeSet) graph() *graph.Digraph {
	g, err := graph.FromPairs(s.n, s.pairs)
	if err != nil {
		panic(err) // unreachable: AddEdge admitted only valid, distinct edges
	}
	return g
}

// ErdosRenyi draws M uniform random directed edges over N vertices.
func ErdosRenyi(cfg Config) *graph.Digraph {
	s := newEdgeSet(cfg.N, cfg.M)
	erdosRenyi(s, cfg)
	return s.graph()
}

func erdosRenyi(g grower, cfg Config) {
	r := rand.New(rand.NewSource(cfg.Seed))
	addRandomEdges(g, r, cfg.M, uniformPicker(cfg.N, r), cfg.NoReciprocal)
}

// PowerLaw draws edges from a directed Chung-Lu model: endpoint
// probabilities follow power laws with the given exponents (typical
// social/web graphs sit between 2 and 3; smaller means heavier skew).
// OutExp shapes source selection, InExp target selection.
func PowerLaw(cfg Config, outExp, inExp float64) *graph.Digraph {
	s := newEdgeSet(cfg.N, cfg.M)
	powerLaw(s, cfg, outExp, inExp)
	return s.graph()
}

func powerLaw(g grower, cfg Config, outExp, inExp float64) {
	r := rand.New(rand.NewSource(cfg.Seed))
	src := zipfPicker(cfg.N, outExp, r)
	dst := zipfPicker(cfg.N, inExp, r)
	addRandomEdgesBi(g, r, cfg.M, src, dst, cfg.NoReciprocal)
}

// SmallWorld builds a directed ring lattice with k out-neighbors per
// vertex and rewires each edge's target with probability p (a directed
// Watts-Strogatz model): high clustering, short diameter.
func SmallWorld(cfg Config, k int, p float64) *graph.Digraph {
	s := newEdgeSet(cfg.N, cfg.N*k)
	smallWorld(s, cfg, k, p)
	return s.graph()
}

func smallWorld(g grower, cfg Config, k int, p float64) {
	r := rand.New(rand.NewSource(cfg.Seed))
	for v := 0; v < cfg.N; v++ {
		for j := 1; j <= k; j++ {
			w := (v + j) % cfg.N
			if r.Float64() < p {
				w = r.Intn(cfg.N)
			}
			tryAdd(g, v, w, cfg.NoReciprocal)
		}
	}
}

// Copy builds a web-like graph with the copy model: each new vertex
// copies a random prototype's out-links with probability copyProb and
// otherwise links to random earlier vertices, then adds a back-link with
// probability backProb — producing the dense bow-tie communities and
// reciprocity typical of web crawls.
func Copy(cfg Config, outDeg int, copyProb, backProb float64) *graph.Digraph {
	s := newEdgeSet(cfg.N, cfg.N*outDeg)
	copyModel(s, cfg, outDeg, copyProb, backProb)
	return s.graph()
}

func copyModel(g grower, cfg Config, outDeg int, copyProb, backProb float64) {
	r := rand.New(rand.NewSource(cfg.Seed))
	// Seed clique-ish core.
	core := outDeg + 1
	if core > cfg.N {
		core = cfg.N
	}
	for v := 0; v < core; v++ {
		for w := 0; w < core; w++ {
			if v != w {
				tryAdd(g, v, w, cfg.NoReciprocal)
			}
		}
	}
	for v := core; v < cfg.N; v++ {
		proto := r.Intn(v)
		links := 0
		for _, u := range g.Out(proto) {
			if links >= outDeg {
				break
			}
			if r.Float64() < copyProb && int(u) != v {
				if tryAdd(g, v, int(u), cfg.NoReciprocal) {
					links++
				}
			}
		}
		for links < outDeg {
			w := r.Intn(v)
			if tryAdd(g, v, w, cfg.NoReciprocal) {
				links++
			} else if g.OutDegree(v) >= v {
				break
			}
		}
		if r.Float64() < backProb {
			tryAdd(g, proto, v, cfg.NoReciprocal)
		}
	}
}

// Star builds an email-like graph: a small set of hub vertices exchanges
// mail with everyone, the long tail barely participates. hubFrac controls
// the hub population share.
func Star(cfg Config, hubFrac float64) *graph.Digraph {
	s := newEdgeSet(cfg.N, cfg.M)
	star(s, cfg, hubFrac)
	return s.graph()
}

func star(g grower, cfg Config, hubFrac float64) {
	r := rand.New(rand.NewSource(cfg.Seed))
	hubs := int(math.Max(1, hubFrac*float64(cfg.N)))
	pick := func() int {
		// 70% of endpoints land on a hub.
		if r.Float64() < 0.7 {
			return r.Intn(hubs)
		}
		return r.Intn(cfg.N)
	}
	addRandomEdgesBi(g, r, cfg.M, pick, pick, cfg.NoReciprocal)
}

func uniformPicker(n int, r *rand.Rand) func() int {
	return func() int { return r.Intn(n) }
}

// zipfPicker returns vertices with probability ∝ (v+1)^-1/(exp-1) weights,
// approximated by inverse-CDF sampling over precomputed cumulative
// weights. Exponent exp > 1.
func zipfPicker(n int, exp float64, r *rand.Rand) func() int {
	w := make([]float64, n)
	total := 0.0
	alpha := 1.0 / (exp - 1.0)
	for i := range w {
		total += math.Pow(float64(i+1), -alpha)
		w[i] = total
	}
	// The weight ordering correlates rank with popularity; relabel through
	// a random permutation so vertex ids look arbitrary.
	perm := r.Perm(n)
	return func() int {
		x := r.Float64() * total
		lo, hi := 0, n-1
		for lo < hi {
			mid := (lo + hi) / 2
			if w[mid] < x {
				lo = mid + 1
			} else {
				hi = mid
			}
		}
		return perm[lo]
	}
}

func addRandomEdges(g grower, r *rand.Rand, m int, pick func() int, noRecip bool) {
	addRandomEdgesBi(g, r, m, pick, pick, noRecip)
}

func addRandomEdgesBi(g grower, r *rand.Rand, m int, src, dst func() int, noRecip bool) {
	attempts := 0
	maxAttempts := 20 * m
	for g.NumEdges() < m && attempts < maxAttempts {
		attempts++
		tryAdd(g, src(), dst(), noRecip)
	}
}

func tryAdd(g grower, u, v int, noRecip bool) bool {
	if u == v {
		return false
	}
	if noRecip && g.HasEdge(v, u) {
		return false
	}
	return g.AddEdge(u, v) == nil
}

// Transaction is the case-study network: a background payment graph with
// planted money-laundering rings (Figure 1 / Figure 13). Criminal accounts
// sit on many short cycles routed through middleman and agent accounts.
type Transaction struct {
	G *graph.Digraph
	// Criminals lists the planted accounts whose SCCnt should stand out.
	Criminals []int
	// RingLen is the planted cycle length.
	RingLen int
}

// TransactionNetwork plants `criminals` accounts, each on `rings` distinct
// cycles of length ringLen, over an Erdős–Rényi background of n vertices
// and m edges. Background edges never create cycles shorter than ringLen
// through the planted accounts (best effort: the planted accounts take no
// background edges at all).
func TransactionNetwork(n, m, criminals, rings, ringLen int, seed int64) Transaction {
	s := newEdgeSet(n, m)
	crim := transactionNetwork(s, n, m, criminals, rings, ringLen, seed)
	return Transaction{G: s.graph(), Criminals: crim, RingLen: ringLen}
}

func transactionNetwork(g grower, n, m, criminals, rings, ringLen int, seed int64) (crim []int) {
	r := rand.New(rand.NewSource(seed))
	if ringLen < 2 {
		ringLen = 3
	}
	// Reserve the first vertices: criminals, then ring intermediaries.
	next := criminals
	for c := 0; c < criminals; c++ {
		crim = append(crim, c)
		for k := 0; k < rings; k++ {
			prev := c
			for step := 0; step < ringLen-1; step++ {
				mid := next
				next++
				if next > n {
					panic("gen: transaction network too small for planted rings")
				}
				mustAddTx(g, prev, mid)
				prev = mid
			}
			mustAddTx(g, prev, c)
		}
	}
	// Background traffic among the remaining accounts only; reciprocal
	// pairs are suppressed so no background account sits on a 2-cycle.
	if next < n-1 {
		for g.NumEdges() < m {
			u := next + r.Intn(n-next)
			v := next + r.Intn(n-next)
			if u == v || g.HasEdge(v, u) {
				continue
			}
			_ = g.AddEdge(u, v)
		}
	}
	return crim
}

func mustAddTx(g grower, u, v int) {
	if err := g.AddEdge(u, v); err != nil {
		panic(err) // planted vertices are fresh, duplicates impossible
	}
}
