// Package csc implements the paper's contribution: the Counting Shortest
// Cycle index (§IV). A directed graph G is reshaped by the bipartite
// conversion into Gb, a counting hub labeling is built over Gb with the
// couple-vertex-skipping construction (Algorithms 3-4), and SCCnt(v) is
// answered as SPCnt(v_out, v_in) in Gb — a single merge-join of two label
// lists, independent of v's degree. Edge insertions and deletions on G
// are maintained by the INCCNT and decremental algorithms of §V running
// on the Gb labeling.
//
// Construction runs on the engine's fast-path pipeline: the skipping
// BFSes prune through the hub-indexed scatter instead of per-dequeue
// merge-joins, hubs are processed in rank-batched parallel speculation
// with a deterministic rank-order merge (labels stay byte-identical to a
// sequential build), and the finished labels freeze into the CSR arena.
//
// The serving form is the SCC-sharded Sharded index (sharded.go), which
// partitions by condensation, keeps the acyclic share label-free, and
// scopes dynamic rebuilds to merged/split components. The monolithic
// Index below (one labeling over the whole graph) is the per-shard
// labeling, the paper-experiment type, and the conformance oracle; a v1
// file loads into it, and AsSharded re-shards it for serving.
package csc

import (
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
	// Workers sets construction parallelism: 0 uses every core, 1 forces
	// the sequential path. Labels are identical either way.
	Workers int
	// CompressLabels freezes finished labels into the delta+varint
	// compressed arena (label.Frozen): queries stream compressed sections
	// behind bloom pre-screens, updates thaw only the lists they touch,
	// and the engine re-freezes on quiesce. Sharded indexes built with it
	// serialize as the mmap-able v3 format.
	CompressLabels bool
	// Order selects the hub-ordering strategy every shard build and
	// scoped rebuild uses (order.Compute over the component's induced
	// subgraph). The zero value is order.Degree — the paper's ordering —
	// so existing builds are unchanged. Indexes carrying a non-degree
	// order serialize as the v4 format.
	Order order.Strategy
	// OrderSeed seeds the sampling strategies (betweenness, coverage,
	// random). Builds are deterministic for a fixed seed.
	OrderSeed int64
}

// Build converts g, lifts the ordering, and constructs the CSC labeling.
// The original graph g is retained (not copied) and subsequently owned by
// the index: callers must mutate it only through InsertEdge/DeleteEdge.
func Build(g *graph.Digraph, ord *order.Order, opts Options) (*Index, pll.BuildStats) {
	start := time.Now()
	gb := bipartite.Convert(g)
	lifted := bipartite.LiftOrder(ord)
	var eng *pll.Index
	if opts.GenericConstruction {
		eng, _ = pll.Build(gb, lifted, pll.Options{
			Strategy:  opts.Strategy,
			HubFilter: bipartite.IsIn,
			Workers:   opts.Workers,
		})
	} else {
		eng = buildSkipping(gb, lifted, opts.Workers)
		eng.Strategy = opts.Strategy
		eng.HubFilter = bipartite.IsIn
	}
	if opts.CompressLabels {
		// Every build path — monolithic, per-shard, scoped rebuilds — funnels
		// through here, so compression survives any dynamic reconstruction.
		eng.FreezeCompressed()
	}
	idx := &Index{g: g, eng: eng}
	st := eng.Stats()
	st.Duration = time.Since(start)
	return idx, st
}

// buildSkipping is the couple-vertex-skipping construction (Algorithm 3):
// only V_in vertices run hub BFSes; each labeled vertex also labels its
// couple one step further, so the queue only ever holds one vertex per
// couple and half the join queries are skipped. The passes run on the
// engine's rank-batched driver, so they parallelize like the generic
// construction while producing the same bytes.
func buildSkipping(gb *graph.Digraph, ord *order.Order, workers int) *pll.Index {
	eng := pll.NewEmpty(gb, ord)
	eng.RunConstruction(&skipScheme{eng: eng, gb: gb, ord: ord}, workers)
	eng.FreezeArena()
	return eng
}

// skipScheme adapts the couple-vertex-skipping construction to the
// engine's rank-batched driver.
type skipScheme struct {
	eng *pll.Index
	gb  *graph.Digraph
	ord *order.Order
}

func (sc *skipScheme) IsHub(r int) bool { return bipartite.IsIn(sc.ord.VertexAt(r)) }

// SelfLabels gives a V_out vertex its self labels (Alg 3 l.6-8).
func (sc *skipScheme) SelfLabels(r int) {
	v := sc.ord.VertexAt(r)
	self := bitpack.Pack(r, 0, 1)
	sc.eng.AppendIn(v, self)
	sc.eng.AppendOut(v, self)
}

func (sc *skipScheme) RunPass(r, pass int, s *pll.Scratch, st *pll.Stage) {
	v := sc.ord.VertexAt(r)
	if pass == 0 {
		sc.inSpecPass(v, r, s, st)
	} else {
		sc.outSpecPass(v, r, s, st)
	}
}

func (sc *skipScheme) Anchor(r, pass int) *label.List {
	v := sc.ord.VertexAt(r)
	if pass == 0 {
		return &sc.eng.Out[v] // Alg 3 l.14: Query joins Lout(v) with Lin(w)
	}
	return &sc.eng.In[v]
}

// inSpecPass generates in-labels with hub v_in = v (rank r). The queue
// holds V_in vertices only; each popped w also stamps its couple w_out at
// distance D[w]+1 (couple-vertex skipping). The prune test probes the
// rank-indexed scatter of Lout(v) against Lin(w); appends are staged, and
// mid-pass appends can never feed a probe (V_in lists are probed only at
// their single dequeue, couple appends target V_out lists).
func (sc *skipScheme) inSpecPass(v, r int, s *pll.Scratch, st *pll.Stage) {
	eng, gb, ord := sc.eng, sc.gb, sc.ord
	st.Reset(true, false)
	s.Scatter(&eng.Out[v])
	defer s.Unscatter(&eng.Out[v])
	defer s.Reset()

	s.Visit(v, 0, 1)
	s.Queue = append(s.Queue, int32(v))
	for head := 0; head < len(s.Queue); head++ {
		w := int(s.Queue[head])
		dw := int(s.Dist[w])
		if w != v {
			if dq := s.Probe(&eng.In[w], dw); dq < dw {
				continue // Alg 3 l.14-15: v not top-ranked on any path
			}
		}
		// INSERT LABEL (Algorithm 4): label w and its couple at +1.
		wo := bipartite.Couple(w)
		cw := s.Cnt[w]
		st.Add(w, w != v, bitpack.Pack(r, dw, cw))
		st.Add(wo, false, bitpack.Pack(r, dw+1, cw))
		s.Visit(wo, int32(dw+1), cw)
		for _, wn := range gb.Out(wo) {
			switch {
			case s.Dist[wn] == -1:
				if ord.Rank(int(wn)) > r { // v ≺ wn
					s.Visit(int(wn), int32(dw+2), cw)
					s.Queue = append(s.Queue, wn)
				}
			case int(s.Dist[wn]) == dw+2:
				s.Cnt[wn] = bitpack.SatAdd(s.Cnt[wn], cw)
			}
		}
	}
}

// outSpecPass generates out-labels with hub v_in = v (rank r), walking the
// reverse direction. After the first dequeue the queue holds V_out
// vertices only; reaching the hub's own couple v_out yields the cycle
// entry in Lout(v_out) and prunes (§IV-C distinction 4). The prune test
// probes the scatter of Lin(v) against Lout(w).
func (sc *skipScheme) outSpecPass(v, r int, s *pll.Scratch, st *pll.Stage) {
	eng, gb, ord := sc.eng, sc.gb, sc.ord
	st.Reset(false, false)
	s.Scatter(&eng.In[v])
	defer s.Unscatter(&eng.In[v])
	defer s.Reset()

	// First dequeue (distinction 3): self label only, then expand v's
	// in-neighbors, which are V_out vertices.
	st.Add(v, false, bitpack.Pack(r, 0, 1))
	s.Visit(v, 0, 1)
	for _, u := range gb.In(v) {
		if ord.Rank(int(u)) > r {
			s.Visit(int(u), 1, 1)
			s.Queue = append(s.Queue, u)
		}
	}
	for head := 0; head < len(s.Queue); head++ {
		w := int(s.Queue[head])
		dw := int(s.Dist[w])
		if dq := s.Probe(&eng.Out[w], dw); dq < dw {
			continue
		}
		cw := s.Cnt[w]
		st.Add(w, true, bitpack.Pack(r, dw, cw))
		if w == bipartite.Couple(v) {
			// Distinction 4: the cycle entry. Label only Lout(v_out); the
			// couple is the hub itself, and no shortest path to the hub
			// can continue through it.
			continue
		}
		wi := bipartite.Couple(w)
		st.Add(wi, false, bitpack.Pack(r, dw+1, cw))
		s.Visit(wi, int32(dw+1), cw)
		for _, wn := range gb.In(wi) {
			switch {
			case s.Dist[wn] == -1:
				if ord.Rank(int(wn)) > r {
					s.Visit(int(wn), int32(dw+2), cw)
					s.Queue = append(s.Queue, wn)
				}
			case int(s.Dist[wn]) == dw+2:
				s.Cnt[wn] = bitpack.SatAdd(s.Cnt[wn], cw)
			}
		}
	}
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
// which feeds the re-ranker's hub hit counters; bounded ones through
// CountPathsBounded, which does not.
func (x *Index) read(v, maxLen int, bounded bool) (length int, count uint64) {
	// Out-of-range ids lie on no cycle, and no cycle is shorter than 2.
	if v < 0 || v >= x.g.NumVertices() || bounded && maxLen < 2 {
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
// the Gb labeling with INCCNT.
func (x *Index) InsertEdge(a, b int) (pll.UpdateStats, error) {
	if err := x.g.AddEdge(a, b); err != nil {
		return pll.UpdateStats{}, err
	}
	ga, gbv := bipartite.ConvertEdge(a, b)
	return x.eng.InsertEdge(ga, gbv)
}

// DeleteEdge applies an edge deletion on the original graph and repairs
// the Gb labeling.
func (x *Index) DeleteEdge(a, b int) (pll.UpdateStats, error) {
	if err := x.g.RemoveEdge(a, b); err != nil {
		return pll.UpdateStats{}, err
	}
	ga, gbv := bipartite.ConvertEdge(a, b)
	return x.eng.DeleteEdge(ga, gbv)
}

// Graph returns the original graph. Callers must not mutate it directly.
func (x *Index) Graph() *graph.Digraph { return x.g }

// Engine exposes the underlying Gb labeling (tests, serialization, stats).
func (x *Index) Engine() *pll.Index { return x.eng }

// EntryCount returns the total number of label entries over Gb (O(1)).
func (x *Index) EntryCount() int { return x.eng.EntryCount() }

// Bytes returns the unreduced label footprint (8 bytes per entry).
func (x *Index) Bytes() int { return x.eng.Bytes() }

// RefreezeLabels re-packs label lists thawed by updates back into the
// compressed arena, returning how many lists re-encoded (0 when labels
// are uncompressed or nothing thawed). The engine calls it on quiesce.
func (x *Index) RefreezeLabels() int { return x.eng.Refreeze() }

// CompressedBytes is the physical compressed label footprint, or 0 when
// labels live uncompressed.
func (x *Index) CompressedBytes() int { return x.eng.CompressedBytes() }
