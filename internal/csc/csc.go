// Package csc implements the paper's contribution: the Counting Shortest
// Cycle index (§IV). A directed graph G is reshaped by the bipartite
// conversion into Gb, a counting hub labeling is built over Gb with the
// couple-vertex-skipping construction (Algorithms 3-4), and SCCnt(v) is
// answered as SPCnt(v_out, v_in) in Gb — a single merge-join of two label
// lists, independent of v's degree. Edge insertions and deletions on G
// are maintained by the INCCNT and decremental algorithms of §V running
// on the Gb labeling, in couple form over G itself (below).
//
// Construction runs in rank space: the skipping BFSes walk the shard's
// subgraph relabeled by hub rank, one CSR per direction whose neighbor
// lists descend by rank, so each scan stops at the first neighbor that
// ranks too high to queue. They prune through a rank-indexed scatter of
// the hub's own label instead of per-dequeue merge-joins and append to
// plain per-rank slices; hubs run in one rank-ordered loop. The finished
// labels are the paper's reduced form (§IV-E): only Lin(v_in) and
// Lout(v_out), the two lists a query joins, are stored. A build at boot
// (Build, BuildSharded) or a load freezes them into the delta+varint
// arena (label.Frozen) that reads stream through cursors, and the shard
// turns lean: it holds that store and nothing else — no list headers, no
// Gb and no induced subgraph, which the sharded index re-induces from its
// served graph when a write needs it. A skipping build never converts
// Gb. A rebuild on the write path (a merge or a split) leaves the stored
// lists in one slab of plain slices. A shard's first label
// write under Redundancy gives it its couple form: its induced subgraph,
// and its two stored lists decoded into one exactly sized slab of plain
// slices (pll.Index.Thaw). INCCNT and the decremental repair then walk
// the subgraph and update those two lists alone (pll.Index.InsertCouple,
// DeleteCouple), so a written shard stays reduced, with no Gb and no
// mirrored list. Minimality and a labeling that is not reduced (a
// generic construction, a load whose mirrors are no derivations of its
// stored lists, a v3/v4 file arena) write through the generic engine
// instead, which converts Gb and holds all four lists of every couple
// (pll.Index.Expand). A shard nothing writes keeps its lean form for its
// lifetime.
//
// The serving form is the SCC-sharded Sharded index (sharded.go), which
// partitions by condensation, keeps the acyclic share label-free, and
// scopes dynamic rebuilds to merged/split components. The monolithic
// Index below (one labeling over the whole graph) is the per-shard
// labeling, the paper-experiment type, and the conformance oracle; a v1
// file loads into it, and AsSharded re-shards it for serving.
package csc

import (
	"slices"
	"time"

	"repro/internal/bfscount"
	"repro/internal/bipartite"
	"repro/internal/bitpack"
	"repro/internal/graph"
	"repro/internal/label"
	"repro/internal/order"
	"repro/internal/pll"
)

// Index is a CSC shortest-cycle-counting index.
type Index struct {
	g   *graph.Digraph // the original graph (kept live for updates)
	eng *pll.Index     // counting labels over the bipartite conversion
}

// Options configures Build.
type Options struct {
	// Strategy selects the dynamic maintenance strategy (§V-B).
	Strategy pll.Strategy
	// GenericConstruction builds the Gb labeling with the generic engine
	// (hub-filtered to V_in) instead of the couple-vertex-skipping
	// construction. Both produce identical labels — this knob exists for
	// the ablation benchmark and as a cross-check in tests.
	GenericConstruction bool
	// Workers bounds how many components BuildSharded builds at once: 0
	// uses every core. Each component's labeling is one sequential
	// construction, so Build (one component) ignores it, and labels are
	// identical at any value.
	Workers int
	// Order selects the hub-ordering strategy every shard build and
	// scoped rebuild uses (order.Compute over the component's induced
	// subgraph). The zero value is order.Degree — the paper's ordering —
	// so existing builds are unchanged. A sharded index carrying a
	// non-degree order records it as order tags in the v2 format.
	Order order.Strategy
	// OrderSeed seeds the sampled orders (coverage, random). Builds are
	// deterministic for a fixed seed. No format records it: a loaded
	// index rebuilds with seed 0, which is the only seed the cyclehub
	// facade and cscd build with.
	OrderSeed int64
}

// Build converts g, lifts the ordering, and constructs the CSC labeling.
// The original graph g is retained (not copied) and subsequently owned by
// the index: callers must mutate it only through InsertEdge/DeleteEdge.
func Build(g *graph.Digraph, ord *order.Order, opts Options) (*Index, pll.BuildStats) {
	return build(g, ord, opts, true)
}

// build is Build with the freeze of a reduced labeling optional. A
// reduced labeling holds no Gb: a frozen one is lean, holds no list
// headers either, and its first write decodes its stored lists
// (pll.Index.Thaw). The rebuilds on the write path pass freeze=false:
// the shard's next label write would only decode the store again, so
// its stored lists serve from one exactly sized slab
// (pll.Index.Compact) instead.
func build(g *graph.Digraph, ord *order.Order, opts Options, freeze bool) (*Index, pll.BuildStats) {
	start := time.Now()
	lifted := bipartite.LiftOrder(ord)
	var eng *pll.Index
	if opts.GenericConstruction {
		eng, _ = pll.Build(bipartite.Convert(g), lifted, pll.Options{
			Strategy:  opts.Strategy,
			HubFilter: bipartite.IsIn,
		})
	} else {
		eng = buildSkipping(g, ord, lifted)
		eng.Strategy = opts.Strategy
		eng.HubFilter = bipartite.IsIn
	}
	switch {
	case freeze && eng.Reduced():
		eng.Freeze()
	default:
		eng.Compact()
	}
	eng.DropGraph(g)
	idx := &Index{g: g, eng: eng}
	st := eng.Stats()
	st.Duration = time.Since(start)
	return idx, st
}

// buildSkipping is the couple-vertex-skipping construction (Algorithm 3)
// over g with base order ord; the index it returns labels g's
// conversion Gb under lifted, ord lifted to Gb, and holds no Gb. Only V_in vertices run hub BFSes; each labeled vertex also
// labels its couple one step further, so the queue only ever holds one
// vertex per couple and half the join queries are skipped. The couple's
// labels are the mirrored lists of the paper's index reduction (§IV-E),
// so the construction counts them without storing them and leaves the
// index in pll's reduced state: only Lin(v_in) and Lout(v_out) are
// stored, and the couple-form writes (pll.Index.InsertCouple,
// DeleteCouple) keep it so. The caller decides whether to freeze them.
//
// The passes run in rank space: base rank b stands for its couple, whose
// Gb ranks are 2b (v_in) and 2b+1 (v_out), and every array is indexed by
// base rank. An in-pass queues V_in vertices only and an out-pass V_out
// vertices only, so one distance array serves both, and the couple one
// step further is never stamped: nothing a pass reads would see it.
// Neighbor lists hold ranks in descending order, so a scan stops at the
// first neighbor the pass may not queue: one ranked at or above the hub
// in an in-pass, above it in an out-pass.
func buildSkipping(g *graph.Digraph, ord, lifted *order.Order) *pll.Index {
	n := ord.Len()
	sk := &skipBuild{
		fwd:  rankAdjacency(g, ord, (*graph.Digraph).In),
		bwd:  rankAdjacency(g, ord, (*graph.Digraph).Out),
		in:   make([][]bitpack.Entry, n),
		out:  make([][]bitpack.Entry, n),
		dist: make([]int32, n),
		cnt:  make([]uint64, n),
		hub:  make([]int32, 2*n),
	}
	for i := range sk.dist {
		sk.dist[i] = -1
	}
	for i := range sk.hub {
		sk.hub[i] = unscattered
	}
	for b := range n {
		sk.inPass(b)
		sk.outPass(b)
		// v_out only gets its self labels (Alg 3 l.6-8); the in-side one
		// belongs to the mirrored Lin(v_out).
		sk.out[b] = append(sk.out[b], bitpack.Pack(2*b+1, 0, 1))
		sk.mirrored++
	}
	in, out := make([]label.List, 2*n), make([]label.List, 2*n)
	for b := range n {
		v := ord.VertexAt(b)
		in[bipartite.InVertex(v)] = label.Wrap(sk.in[b])
		out[bipartite.OutVertex(v)] = label.Wrap(sk.out[b])
	}
	return pll.NewReduced(lifted, in, out, sk.mirrored)
}

// unscattered marks a hub rank the anchor list lacks; any sum with it is
// at least bitpack.MaxDist, which no BFS distance reaches.
const unscattered = int32(bitpack.MaxDist)

// skipBuild is the state of one rank-space construction. fwd lists each
// base rank's out-neighbors and bwd its in-neighbors, as base ranks in
// descending order; in[b] and out[b] are Lin(v_in) and Lout(v_out) of
// base rank b's couple. dist and cnt are the current pass's tentative
// distances and counts by base rank (-1: unvisited), queue its FIFO, and
// hub the scatter of the pass's anchor list by Gb hub rank, maxHub that
// list's largest hub.
type skipBuild struct {
	fwd, bwd rankCSR
	in, out  [][]bitpack.Entry
	mirrored int

	dist   []int32
	cnt    []uint64
	queue  []int32
	hub    []int32
	maxHub int
}

// rankCSR is an adjacency relabeled by base rank: nbrs(r) is r's list.
type rankCSR struct {
	off, adj []int32
}

func (c *rankCSR) nbrs(r int32) []int32 { return c.adj[c.off[r]:c.off[r+1]] }

// rankAdjacency relabels one direction of g by ord: the list at rank r
// holds, in descending order, the ranks t whose vertex has r's vertex
// among its rev neighbors — with rev In, the out-neighbors of r's
// vertex; with rev Out, its in-neighbors. It walks t from the last rank
// down, appending t to the lists of its rev neighbors' ranks, so the
// lists come out sorted in O(n+m) with no sort.
func rankAdjacency(g *graph.Digraph, ord *order.Order, rev func(*graph.Digraph, int) []int32) rankCSR {
	n := ord.Len()
	c := rankCSR{off: make([]int32, n+1)}
	for t := range n {
		for _, u := range rev(g, ord.VertexAt(t)) {
			c.off[ord.Rank(int(u))+1]++
		}
	}
	for r := range n {
		c.off[r+1] += c.off[r]
	}
	c.adj = make([]int32, c.off[n])
	next := slices.Clone(c.off[:n])
	for t := n - 1; t >= 0; t-- {
		for _, u := range rev(g, ord.VertexAt(t)) {
			r := ord.Rank(int(u))
			c.adj[next[r]] = int32(t)
			next[r]++
		}
	}
	return c
}

// inPass generates in-labels with hub v_in of base rank b (Gb rank 2b).
// The queue holds V_in vertices; each labeled w also labels its couple
// w_out at D[w]+1 (couple-vertex skipping), whose Lin(w_out) entry is
// mirrored: counted, not stored. Alg 3 l.14's Query joins Lout(v) with
// Lin(w); Lout(v) is mirrored, and before v's own out-pass it is exactly
// Lout(v_out) one step further, so the prune test probes Lin(w) against
// the scatter of Lout(v_out) with shift 1. Only neighbors ranked below b
// may be queued, so each scan stops at the first rank ≤ b.
func (sk *skipBuild) inPass(b int) {
	anchor := sk.out[b]
	sk.scatter(anchor, 1)
	h := int32(b)
	sk.dist[h], sk.cnt[h] = 0, 1
	q := append(sk.queue[:0], h)
	for head := 0; head < len(q); head++ {
		w := q[head]
		dw, cw := sk.dist[w], sk.cnt[w]
		if head > 0 && sk.pruned(sk.in[w], dw) {
			continue // Alg 3 l.14-15: v not top-ranked on any path
		}
		// INSERT LABEL (Algorithm 4): label w, and its couple at +1.
		sk.in[w] = append(sk.in[w], bitpack.Pack(2*b, int(dw), cw))
		sk.mirrored++ // Lin(w_out) gains (2b, dw+1, cw)
		for _, x := range sk.fwd.nbrs(w) {
			if x <= h {
				break
			}
			switch sk.dist[x] {
			case -1:
				sk.dist[x], sk.cnt[x] = dw+2, cw
				q = append(q, x)
			case dw + 2:
				sk.cnt[x] = bitpack.SatAdd(sk.cnt[x], cw)
			}
		}
	}
	sk.finish(q, anchor)
}

// outPass generates out-labels with hub v_in of base rank b, walking the
// reverse direction. The queue holds V_out vertices; reaching the hub's
// own couple v_out yields the cycle entry in Lout(v_out) and prunes
// (§IV-C distinction 4). The prune test probes the scatter of Lin(v_in)
// against Lout(w). Lout entries of V_in vertices are mirrored: counted,
// not stored. v_out ranks right below the hub, so each scan stops at the
// first rank < b.
func (sk *skipBuild) outPass(b int) {
	anchor := sk.in[b]
	sk.scatter(anchor, 0)
	h := int32(b)
	// First dequeue (distinction 3): v_in's self label only, then its
	// in-neighbors, which are V_out vertices.
	sk.mirrored++ // Lout(v_in) gains (2b, 0, 1)
	q := sk.queue[:0]
	for _, u := range sk.bwd.nbrs(h) {
		if u < h {
			break
		}
		sk.dist[u], sk.cnt[u] = 1, 1
		q = append(q, u)
	}
	for head := 0; head < len(q); head++ {
		w := q[head]
		dw, cw := sk.dist[w], sk.cnt[w]
		if sk.pruned(sk.out[w], dw) {
			continue
		}
		sk.out[w] = append(sk.out[w], bitpack.Pack(2*b, int(dw), cw))
		if w == h {
			// Distinction 4: the cycle entry. Label only Lout(v_out); the
			// couple is the hub itself, and no shortest path to the hub
			// can continue through it.
			continue
		}
		sk.mirrored++ // Lout(w_in) gains (2b, dw+1, cw)
		for _, x := range sk.bwd.nbrs(w) {
			if x < h {
				break
			}
			switch sk.dist[x] {
			case -1:
				sk.dist[x], sk.cnt[x] = dw+2, cw
				q = append(q, x)
			case dw + 2:
				sk.cnt[x] = bitpack.SatAdd(sk.cnt[x], cw)
			}
		}
	}
	sk.finish(q, anchor)
}

// scatter loads the anchor list into hub by hub rank, every distance
// raised by shift.
func (sk *skipBuild) scatter(anchor []bitpack.Entry, shift int32) {
	sk.maxHub = -1
	for _, e := range anchor {
		sk.hub[e.Hub()] = int32(e.Dist()) + shift
		sk.maxHub = e.Hub()
	}
}

// pruned is the prune test: whether some hub of the anchor reaches w in
// fewer than dw steps through l, w's list from higher-ranked hubs. Lists
// ascend by hub, so the scan stops at the first entry past the anchor's
// largest hub, which compares as a packed entry.
func (sk *skipBuild) pruned(l []bitpack.Entry, dw int32) bool {
	hub, past := sk.hub, bitpack.Pack(sk.maxHub+1, 0, 0)
	for _, e := range l {
		if e >= past {
			return false
		}
		if hub[e.Hub()]+int32(e.Dist()) < dw {
			return true
		}
	}
	return false
}

// finish resets what a pass visited, the queue q, and unscatters its
// anchor, keeping q's capacity for the next pass.
func (sk *skipBuild) finish(q []int32, anchor []bitpack.Entry) {
	for _, w := range q {
		sk.dist[w] = -1
	}
	for _, e := range anchor {
		sk.hub[e.Hub()] = unscattered
	}
	sk.queue = q[:0]
}

// CycleCount answers SCCnt(v): the length of the shortest cycles through v
// in the original graph and their number, or (bfscount.NoCycle, 0) when v
// lies on no cycle or is out of range. The evaluation is a single
// merge-join of Lout(v_out) and Lin(v_in) (§IV-D); the Gb distance d maps
// to cycle length (d+1)/2.
func (x *Index) CycleCount(v int) (length int, count uint64) {
	return x.read(v, 0, false)
}

// read is the one SCCnt evaluation behind CycleCount here and the
// sharded index's per-shard reads (bounded reads only come through
// Sharded.CycleCountBounded). Unbounded reads go through CountPaths,
// bounded ones through CountPathsBounded.
func (x *Index) read(v, maxLen int, bounded bool) (length int, count uint64) {
	// Out-of-range ids lie on no cycle.
	if v < 0 || v >= x.g.NumVertices() {
		return bfscount.NoCycle, 0
	}
	return x.join(v, maxLen, bounded)
}

// join is read for an in-range v: the sharded index routes only member
// vertices here, to shards that may hold no graph.
func (x *Index) join(v, maxLen int, bounded bool) (length int, count uint64) {
	// No cycle is shorter than 2.
	if bounded && maxLen < 2 {
		return bfscount.NoCycle, 0
	}
	s, t := bipartite.OutVertex(v), bipartite.InVertex(v)
	var d int
	var c uint64
	if bounded {
		// A cycle of length L is a Gb path of length 2L-1. Any
		// representable Gb distance is < bitpack.MaxDist (the unreachable
		// sentinel), so bounds at or past it are effectively unbounded —
		// and clamping keeps a huge client-supplied maxLen from
		// overflowing the mapping into a negative bound.
		maxLen = min(maxLen, (bitpack.MaxDist+1)/2)
		d, c = x.eng.CountPathsBounded(s, t, 2*maxLen-1)
	} else {
		d, c = x.eng.CountPaths(s, t)
	}
	if d == pll.Unreachable {
		return bfscount.NoCycle, 0
	}
	return bipartite.CycleLength(d), c
}

// InsertEdge applies an edge insertion on the original graph and maintains
// the labeling with INCCNT: in couple form over the original graph when
// the labeling is reduced under Redundancy, and otherwise through the
// generic engine over Gb.
func (x *Index) InsertEdge(a, b int) (pll.UpdateStats, error) {
	couple, prep := x.writeForm()
	if couple {
		st, err := x.eng.InsertCouple(x.g, a, b)
		st.Duration += prep
		return st, err
	}
	if err := x.g.AddEdge(a, b); err != nil {
		return pll.UpdateStats{}, err
	}
	ga, gbv := bipartite.ConvertEdge(a, b)
	st, err := x.eng.InsertEdge(ga, gbv)
	st.Duration += prep
	return st, err
}

// DeleteEdge applies an edge deletion on the original graph and repairs
// the labeling, in couple form or through the generic engine as
// InsertEdge chooses.
func (x *Index) DeleteEdge(a, b int) (pll.UpdateStats, error) {
	couple, prep := x.writeForm()
	if couple {
		st, err := x.eng.DeleteCouple(x.g, a, b)
		st.Duration += prep
		return st, err
	}
	if err := x.g.RemoveEdge(a, b); err != nil {
		return pll.UpdateStats{}, err
	}
	ga, gbv := bipartite.ConvertEdge(a, b)
	st, err := x.eng.DeleteEdge(ga, gbv)
	st.Duration += prep
	return st, err
}

// writeForm readies the labeling for a write before it changes x.g and
// reports which form the write takes and how long readying it took: the
// update's stats count that time. A reduced labeling under Redundancy is
// written in couple form (pll.Index.CoupleForm): a frozen store decodes
// its two stored lists (pll.Index.Thaw). Anything else — Minimality, a
// generic construction, a loaded labeling whose mirrors are not
// derivations of its stored lists, a v3/v4 file arena — expands to the
// generic engine's four lists over Gb (pll.Index.Expand), which converts
// x.g as it stands.
func (x *Index) writeForm() (couple bool, prep time.Duration) {
	start := time.Now()
	if couple = x.eng.CoupleForm(); couple {
		x.eng.Thaw(x.g)
	} else {
		x.eng.Expand()
	}
	return couple, time.Since(start)
}

// Graph returns the original graph. Callers must not mutate it directly.
func (x *Index) Graph() *graph.Digraph { return x.g }

// shedGraph lets a lean shard's index forget its induced subgraph: its
// labels encode the members' induced subgraph in the sharded index's
// served graph, which Sharded.subgraph induces again before anything
// writes it. Any other index keeps its graph.
func (x *Index) shedGraph() {
	if x.eng.Lean() {
		x.g = nil
		x.eng.DropGraph(nil)
	}
}

// Engine exposes the underlying Gb labeling (tests, serialization, stats).
func (x *Index) Engine() *pll.Index { return x.eng }

// EntryCount returns the total number of label entries over Gb (O(1)).
func (x *Index) EntryCount() int { return x.eng.EntryCount() }

// Bytes returns the logical label footprint: 8 bytes per entry of the
// full labeling, whether or not the mirrored lists are stored.
func (x *Index) Bytes() int { return x.eng.Bytes() }

// ResidentBytes returns the label bytes the index physically holds
// (pll.Index.ResidentBytes): about a quarter of Bytes while the index is
// reduced and frozen.
func (x *Index) ResidentBytes() int { return x.eng.ResidentBytes() }

// StoredEntries counts the label entries the index physically holds
// (pll.Index.StoredEntries): those ResidentBytes spends its bytes on.
func (x *Index) StoredEntries() int { return x.eng.StoredEntries() }

// CompressedBytes is the footprint of the v3/v4 file arena the index
// serves (pll.Index.Compressed), or 0 when it serves none.
func (x *Index) CompressedBytes() int { return x.eng.CompressedBytes() }
