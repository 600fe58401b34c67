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
// merge-joins, hubs run in one rank-ordered loop, and the finished labels
// are the paper's reduced form (§IV-E): only Lin(v_in) and Lout(v_out),
// the two lists a query joins, are stored. A build at boot (Build,
// BuildSharded), an online re-rank or a load freezes them into the
// delta+varint arena (label.Frozen) that reads stream through cursors,
// and the shard turns lean: it holds that store and nothing else — no
// list headers, no Gb and no induced subgraph, which the sharded index
// re-induces from its served graph when a write, a freeze or a re-rank
// needs it. A rebuild on the write path (merge, split, deferred rebuild)
// leaves them in one slab of plain slices. A shard's first label write
// gives it its write form: its induced subgraph, Gb converted from it,
// then one slab of plain slices holding all four lists of every couple
// (pll.Index.Expand); a shard nothing writes keeps its lean form for its
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
	"time"

	"repro/internal/bfscount"
	"repro/internal/bipartite"
	"repro/internal/bitpack"
	"repro/internal/graph"
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
	// order record it: as the v4 format when compressed, as order tags
	// in the v2 format otherwise.
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
// frozen labeling is lean: it drops its Gb and list headers, and its
// first write converts g again (pll.Index.DropGraph). The rebuilds on
// the write path pass freeze=false: the shard's next label write expands
// it into plain slices anyway (pll.Index.Expand), so freezing it would
// only buy a decode on that write; until then its stored lists serve
// from one exactly sized slab (pll.Index.Compact).
func build(g *graph.Digraph, ord *order.Order, opts Options, freeze bool) (*Index, pll.BuildStats) {
	start := time.Now()
	gb := bipartite.Convert(g)
	lifted := bipartite.LiftOrder(ord)
	var eng *pll.Index
	if opts.GenericConstruction {
		eng, _ = pll.Build(gb, lifted, pll.Options{
			Strategy:  opts.Strategy,
			HubFilter: bipartite.IsIn,
		})
	} else {
		eng = buildSkipping(gb, lifted)
		eng.Strategy = opts.Strategy
		eng.HubFilter = bipartite.IsIn
	}
	switch {
	case opts.CompressLabels:
		// Every build path — monolithic, per-shard, scoped rebuilds — funnels
		// through here, so compression survives any dynamic reconstruction.
		eng.FreezeCompressed()
	case freeze && eng.Reduced():
		eng.Freeze()
		eng.DropGraph(g)
	default:
		eng.Compact()
	}
	idx := &Index{g: g, eng: eng}
	st := eng.Stats()
	st.Duration = time.Since(start)
	return idx, st
}

// buildSkipping is the couple-vertex-skipping construction (Algorithm 3):
// only V_in vertices run hub BFSes; each labeled vertex also labels its
// couple one step further, so the queue only ever holds one vertex per
// couple and half the join queries are skipped. The couple's labels are
// the mirrored lists of the paper's index reduction (§IV-E), so the
// construction counts them without storing them and leaves the index in
// pll's reduced state: only Lin(v_in) and Lout(v_out) are stored, and
// the first label mutation derives the rest. The lists are left in the
// slices the passes appended to; the caller decides whether to freeze
// them. The scratch the passes share goes back to the pool at the end.
func buildSkipping(gb *graph.Digraph, ord *order.Order) *pll.Index {
	eng := pll.NewReduced(gb, ord)
	s := pll.GetScratch(gb.NumVertices())
	for r := 0; r < ord.Len(); r++ {
		v := ord.VertexAt(r)
		if !bipartite.IsIn(v) {
			// A V_out vertex only gets its self labels (Alg 3 l.6-8); the
			// in-side one belongs to the mirrored Lin(v_out).
			eng.AppendOut(v, bitpack.Pack(r, 0, 1))
			eng.CountMirrored()
			continue
		}
		inPass(eng, v, r, s)
		outPass(eng, v, r, s)
	}
	pll.PutScratch(s)
	return eng
}

// inPass generates in-labels with hub v_in = v (rank r). The queue holds
// V_in vertices only; each popped w also stamps its couple w_out at
// distance D[w]+1 (couple-vertex skipping), whose Lin(w_out) entry is
// mirrored: counted, not stored. Alg 3 l.14's Query joins Lout(v) with
// Lin(w); Lout(v) is mirrored, and before v's own out-pass it is exactly
// Lout(v_out) one step further, so the prune test probes Lin(w) against
// the scatter of Lout(v_out) with shift 1. Appends write through: a V_in
// list is probed only at its single dequeue, before it is appended to.
func inPass(eng *pll.Index, v, r int, s *pll.Scratch) {
	gb, ord := eng.G, eng.Ord
	anchor := &eng.Out[bipartite.Couple(v)]
	s.Scatter(anchor, 1)
	defer s.Unscatter(anchor)
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
		eng.AppendIn(w, bitpack.Pack(r, dw, cw))
		eng.CountMirrored() // Lin(wo) gains (r, dw+1, cw)
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

// outPass generates out-labels with hub v_in = v (rank r), walking the
// reverse direction. After the first dequeue the queue holds V_out
// vertices only; reaching the hub's own couple v_out yields the cycle
// entry in Lout(v_out) and prunes (§IV-C distinction 4). The prune test
// probes the scatter of Lin(v) against Lout(w). Lout entries of V_in
// vertices are mirrored: counted, not stored.
func outPass(eng *pll.Index, v, r int, s *pll.Scratch) {
	gb, ord := eng.G, eng.Ord
	s.Scatter(&eng.In[v], 0)
	defer s.Unscatter(&eng.In[v])
	defer s.Reset()

	// First dequeue (distinction 3): self label only, then expand v's
	// in-neighbors, which are V_out vertices.
	eng.CountMirrored() // Lout(v) gains (r, 0, 1)
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
		eng.AppendOut(w, bitpack.Pack(r, dw, cw))
		if w == bipartite.Couple(v) {
			// Distinction 4: the cycle entry. Label only Lout(v_out); the
			// couple is the hub itself, and no shortest path to the hub
			// can continue through it.
			continue
		}
		wi := bipartite.Couple(w)
		eng.CountMirrored() // Lout(wi) gains (r, dw+1, cw)
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
// the Gb labeling with INCCNT.
func (x *Index) InsertEdge(a, b int) (pll.UpdateStats, error) {
	expand := x.writeForm()
	if err := x.g.AddEdge(a, b); err != nil {
		return pll.UpdateStats{}, err
	}
	ga, gbv := bipartite.ConvertEdge(a, b)
	st, err := x.eng.InsertEdge(ga, gbv)
	st.Duration += expand
	return st, err
}

// DeleteEdge applies an edge deletion on the original graph and repairs
// the Gb labeling.
func (x *Index) DeleteEdge(a, b int) (pll.UpdateStats, error) {
	expand := x.writeForm()
	if err := x.g.RemoveEdge(a, b); err != nil {
		return pll.UpdateStats{}, err
	}
	ga, gbv := bipartite.ConvertEdge(a, b)
	st, err := x.eng.DeleteEdge(ga, gbv)
	st.Duration += expand
	return st, err
}

// writeForm expands the labeling before a write changes x.g, which a
// lean labeling converts back into its Gb (pll.Index.DropGraph), and
// reports how long that took: the update's stats count it, as they did
// when the expansion ran inside the update.
func (x *Index) writeForm() time.Duration {
	start := time.Now()
	x.eng.Expand()
	return time.Since(start)
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

// RefreezeLabels re-packs label lists thawed by updates back into the
// compressed arena, returning how many lists re-encoded (0 when labels
// are uncompressed or nothing thawed). The engine calls it on quiesce.
func (x *Index) RefreezeLabels() int { return x.eng.Refreeze() }

// CompressedBytes is the physical compressed label footprint, or 0 when
// labels live uncompressed.
func (x *Index) CompressedBytes() int { return x.eng.CompressedBytes() }
