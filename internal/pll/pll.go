// Package pll implements the generic pruned-landmark counting-label engine
// that both indexes in the paper are instances of:
//
//   - the HP-SPC baseline (Zhang & Yu, SIGMOD'20; paper §II-B) is the
//     engine applied to the original graph G with every vertex as a hub;
//   - the CSC index (§IV) is the engine applied to the bipartite
//     conversion Gb with only incoming vertices serving as hubs (the
//     couple-vertex-skipping construction in internal/csc produces labels
//     identical to this engine's once its reduced form is expanded — a
//     property the tests assert).
//
// The engine covers construction under the Exact Shortest Path Covering
// constraint with canonical and non-canonical labels, SPCnt queries
// (Equations 1-2), the INCCNT incremental update (Algorithms 5-8) and the
// three-step decremental repair (§V-C), under either the redundancy or the
// minimality maintenance strategy (§V-B).
//
// Construction runs on the fast-path label pipeline: hub-indexed pruning
// (the prune test probes a rank-indexed scatter of the hub's own label
// instead of merge-joining two lists), one rank-ordered loop of hub BFSes
// on a pooled scratch, and a post-construction freeze (Freeze): a full
// labeling packs into one contiguous CSR arena (label.Arena), a reduced
// one (reduced.go) into the delta+varint arena (label.Frozen).
//
// An Index is not safe for concurrent mutation. Queries do not mutate and
// may run concurrently with each other, but not with updates.
package pll

import (
	"time"

	"repro/internal/bitpack"
	"repro/internal/graph"
	"repro/internal/label"
	"repro/internal/order"
)

// Strategy selects how aggressively updates keep the label minimal (§V-B).
type Strategy uint8

const (
	// Redundancy leaves dominated (out-of-date) label entries in place
	// after updates. Queries stay correct because dominated entries never
	// realize the minimum distance; updates are much faster. This is the
	// strategy the paper recommends and uses for its largest graphs.
	Redundancy Strategy = iota
	// Minimality runs CLEAN LABEL (Algorithm 8) after label improvements,
	// removing every redundant entry so Theorem V.3's minimality holds.
	Minimality
)

func (s Strategy) String() string {
	if s == Minimality {
		return "minimality"
	}
	return "redundancy"
}

// Options configures Build.
type Options struct {
	// Strategy chooses the dynamic maintenance strategy.
	Strategy Strategy
	// HubFilter, when non-nil, restricts which vertices run hub BFSes.
	// Filtered-out vertices still receive their own self labels. The CSC
	// scheme uses this to make only V_in vertices hubs.
	HubFilter func(v int) bool
}

// BuildStats summarizes a construction run.
type BuildStats struct {
	Entries      int           // total label entries across all lists
	Canonical    int           // entries whose count is |SP(v,w)|
	NonCanonical int           // entries counting a proper subset
	Bytes        int           // 8 bytes per entry (64-bit packed encoding)
	Duration     time.Duration // wall-clock construction time
}

// UpdateStats summarizes one InsertEdge/DeleteEdge maintenance run.
type UpdateStats struct {
	AffectedHubs   int // |hubA ∪ hubB|
	Visited        int // vertices dequeued across all resumed BFSes
	EntriesAdded   int // label entries newly inserted
	EntriesChanged int // label entries replaced or count-accumulated
	EntriesRemoved int // label entries deleted (step 2 + cleaning)
	Duration       time.Duration

	// PlanDuration and BuildDuration split Duration for batch entry
	// points: planning/reconciling the batch vs running the per-shard
	// maintenance and component rebuilds. Zero for single-edge updates.
	PlanDuration  time.Duration
	BuildDuration time.Duration

	// TouchedOwners lists the vertices whose label lists were mutated,
	// each owner once per op (a batch aggregate concatenates its ops'
	// lists, so an owner two ops touched appears twice). Everything a
	// query could answer differently after the update involves at least
	// one touched owner, so consumers like the top-K monitor re-score
	// only these.
	TouchedOwners []int32
}

// touch records v as a touched owner of the running update op, once per
// op (the dedupe mark lives in the op's scratch; see Scratch.beginOp).
func (idx *Index) touch(st *UpdateStats, v int) {
	if idx.scr.firstTouch(v) {
		st.TouchedOwners = append(st.TouchedOwners, int32(v))
	}
}

// Index is a 2-hop counting label over a directed graph.
type Index struct {
	// G is the labeled graph; nil while a lean index (reduced.go) keeps
	// only src, the graph G is the bipartite conversion of.
	G   *graph.Digraph
	Ord *order.Order

	// In[v] holds entries (h, sd(h,v), θ) — paths from hub h to v.
	// Out[v] holds entries (h, sd(v,h), θ) — paths from v to hub h.
	// Hub fields store rank positions under Ord. Both are nil while the
	// index is lean: reads go through InLabel and OutLabel, which address
	// the frozen store by vertex id.
	In  []label.List
	Out []label.List

	Strategy Strategy

	// HubFilter, when non-nil, marks which vertices may serve as hubs.
	// Construction honors it via Options; the dynamic algorithms skip
	// maintenance passes from filtered-out vertices, which keeps the label
	// set aligned with what a fresh construction would produce. The CSC
	// scheme filters to V_in: every covered pair's top-ranked vertex is a
	// V_in vertex, so passes from V_out vertices could only ever create
	// entries no query and no cover needs. Not serialized — the owner
	// re-installs it after ReadIndex (see internal/csc.Read).
	HubFilter func(v int) bool

	// Inverted indexes for minimality cleaning (§V-A): invIn[h] lists the
	// vertices whose in-label contains hub rank h; invOut[h] likewise for
	// out-labels. Built lazily; nil until first needed.
	invIn  []map[int32]struct{}
	invOut []map[int32]struct{}

	canonical    int
	nonCanonical int

	// entries caches the total label entry count; every mutation path
	// maintains it so EntryCount/Stats are O(1) instead of walking 2n
	// lists (the top-k monitor and cscbench call them in loops).
	entries int

	// reduced marks a CSC labeling that stores only Lin(v_in) and
	// Lout(v_out) and derives the two mirrored lists on demand
	// (reduced.go); mirrored counts the entries of those lists, which
	// entries includes. A reduced index is never mutated, so mirrored
	// holds until Expand zeroes it.
	reduced  bool
	mirrored int

	// arena is the CSR label store of a full labeling, set once
	// construction (or deserialization) freezes the lists; nil while
	// labels are per-vertex allocations or live in frozen.
	arena *label.Arena

	// frozen is the delta+varint arena: a reduced index's stored lists
	// (Freeze), or every list of a compressed one. Updates thaw only the
	// lists they touch.
	frozen *label.Frozen

	// src is the graph a lean index's G converts (DropGraph); Expand
	// converts it again and clears it.
	src *graph.Digraph

	// compressed marks the compression opt-in (FreezeCompressed, or a v3
	// deserialization): frozen holds all four lists of every couple, the
	// index stays frozen across writes, and Refreeze re-packs the lists
	// they thawed. A reduced index's frozen store is not compressed in
	// this sense: its first write expands it to plain slices for good.
	compressed bool

	// scr is the engine-owned scratch for the dynamic update passes. It is
	// pooled and lazily materialized (see scratch); construction borrows
	// its own from the pool and returns it, so idle indexes — freshly
	// built or deserialized shards, shards between update batches — pin
	// no scratch memory.
	scr *Scratch
}

// NewEmpty allocates an index shell with self-label-free empty lists,
// which Build and the loaders fill.
func NewEmpty(g *graph.Digraph, ord *order.Order) *Index {
	n := g.NumVertices()
	return &Index{
		G:   g,
		Ord: ord,
		In:  make([]label.List, n),
		Out: make([]label.List, n),
	}
}

// Build constructs the full index with pruned counting BFSes in descending
// rank order (the HP-SPC construction of §II-B generalized with a hub
// filter) and freezes the labels into the CSR arena. The scratch the
// passes share goes back to the pool at the end.
func Build(g *graph.Digraph, ord *order.Order, opts Options) (*Index, BuildStats) {
	start := time.Now()
	idx := NewEmpty(g, ord)
	idx.Strategy = opts.Strategy
	idx.HubFilter = opts.HubFilter
	s := GetScratch(g.NumVertices())
	for r := 0; r < ord.Len(); r++ {
		v := ord.VertexAt(r)
		if idx.HubFilter != nil && !idx.HubFilter(v) {
			self := bitpack.Pack(r, 0, 1)
			idx.AppendIn(v, self)
			idx.AppendOut(v, self)
			idx.canonical += 2
			continue
		}
		idx.hubPass(v, r, true, s)
		idx.hubPass(v, r, false, s)
	}
	PutScratch(s)
	idx.Freeze()
	st := idx.Stats()
	st.Duration = time.Since(start)
	return idx, st
}

// Stats reports size statistics from the maintained counters.
func (idx *Index) Stats() BuildStats {
	return BuildStats{
		Entries:      idx.entries,
		Bytes:        8 * idx.entries,
		Canonical:    idx.canonical,
		NonCanonical: idx.nonCanonical,
	}
}

// hubPass runs one pruned counting BFS from hub v (rank r) against the
// current labels, appending every label it emits. forward writes
// in-labels over out-edges; !forward writes out-labels over in-edges (the
// reverse graph). The prune test probes the rank-indexed scatter of the
// hub's own anchor list — Out[v] forward, In[v] backward — against the
// candidate's list, replacing the per-dequeue merge-join.
//
// Mid-pass appends can never influence the pass's own prune tests (each
// vertex is dequeued exactly once, and its probe happens before its
// append; the anchor is on the side the pass does not write), so writing
// through is observationally identical to staging the appends and
// committing them after the pass.
func (idx *Index) hubPass(v, r int, forward bool, s *Scratch) {
	anchor := &idx.Out[v]
	if !forward {
		anchor = &idx.In[v]
	}
	s.Scatter(anchor, 0)
	defer s.Unscatter(anchor)
	defer s.Reset()

	// Self label first (Alg 3's first dequeue): never pruned, since any
	// alternative distance through a higher hub is a cycle of length ≥ 1.
	idx.appendSide(v, forward, bitpack.Pack(r, 0, 1))
	idx.canonical++
	s.Visit(v, 0, 1)
	for _, u := range idx.neighbors(v, forward) {
		if idx.Ord.Rank(int(u)) > r { // v ≺ u: only lower-ranked vertices join
			s.Visit(int(u), 1, 1)
			s.Queue = append(s.Queue, u)
		}
	}

	for head := 0; head < len(s.Queue); head++ {
		w := int(s.Queue[head])
		dw := int(s.Dist[w])
		// Distance from v to w (or w to v in reverse) via higher hubs.
		var dq int
		if forward {
			dq = s.Probe(&idx.In[w], dw)
		} else {
			dq = s.Probe(&idx.Out[w], dw)
		}
		if dq < dw {
			continue // v is not the highest rank on any shortest path
		}
		idx.appendSide(w, forward, bitpack.Pack(r, dw, s.Cnt[w]))
		// dq == dw: some shortest paths run via higher hubs (non-canonical).
		if dq != dw {
			idx.canonical++
		} else {
			idx.nonCanonical++
		}
		for _, u := range idx.neighbors(w, forward) {
			switch {
			case s.Dist[u] == -1:
				if idx.Ord.Rank(int(u)) > r {
					s.Visit(int(u), s.Dist[w]+1, s.Cnt[w])
					s.Queue = append(s.Queue, u)
				}
			case s.Dist[u] == s.Dist[w]+1:
				s.Cnt[u] = bitpack.SatAdd(s.Cnt[u], s.Cnt[w])
			}
		}
	}
}

// AppendIn appends an entry to In[v], maintaining the entry counter and
// the lazy inverted index. Construction-side use only: the entry's hub
// must be new to the list.
func (idx *Index) AppendIn(v int, e bitpack.Entry) {
	idx.In[v].Append(e)
	idx.entries++
	idx.addInvIn(e.Hub(), v)
}

// AppendOut is the out-side counterpart of AppendIn.
func (idx *Index) AppendOut(v int, e bitpack.Entry) {
	idx.Out[v].Append(e)
	idx.entries++
	idx.addInvOut(e.Hub(), v)
}

// appendSide appends e to In[v] when in, else to Out[v].
func (idx *Index) appendSide(v int, in bool, e bitpack.Entry) {
	if in {
		idx.AppendIn(v, e)
	} else {
		idx.AppendOut(v, e)
	}
}

func (idx *Index) neighbors(w int, forward bool) []int32 {
	if forward {
		return idx.G.Out(w)
	}
	return idx.G.In(w)
}

// scratch returns the index's working scratch, materializing it from the
// pool on first use and re-sizing it after the graph grew. Every
// vertex-growth and update entry point must go through it before running
// a pass: the BFSes index Dist/Cnt by vertex id and the
// hub scatter by rank, so a stale size turns the first post-growth pass
// into an out-of-bounds access.
func (idx *Index) scratch() *Scratch {
	if idx.scr == nil {
		idx.scr = GetScratch(idx.G.NumVertices())
	} else {
		idx.scr.Grow(idx.G.NumVertices())
	}
	return idx.scr
}

// ReleaseScratch returns the index's scratch to the shared pool. Call it
// when no update is imminent — at the end of a batch's per-shard update
// stream — so concurrent streams over many shards recycle a few scratches
// instead of pinning one per shard.
// The next update materializes a fresh one transparently.
func (idx *Index) ReleaseScratch() {
	PutScratch(idx.scr)
	idx.scr = nil
}

// Freeze packs the finished labels into the index's immutable store. A
// reduced index's stored lists go into the delta+varint arena
// (label.Frozen), which reads stream without decoding and Expand decodes
// once at the first label write; the index turns lean (reduced.go): its
// list headers are dropped, and In[v] is read as section v of the store,
// Out[v] as section n+v. A full index's lists go into one contiguous CSR
// arena (label.Arena): each list becomes a view of its padded span,
// growing in place until the pad is exhausted and migrating out
// transparently afterwards.
func (idx *Index) Freeze() {
	if idx.reduced {
		idx.arena, idx.frozen = nil, label.FreezeCompressed(idx.In, idx.Out)
		idx.frozen.SkipBloomStats()
		idx.In, idx.Out = nil, nil
		return
	}
	idx.arena = label.Freeze(idx.In, idx.Out)
}

// Arena exposes the CSR store of a full index, or nil when there is none
// (before Freeze, for a reduced or compressed index, or once a reduced
// index expanded into plain slices).
func (idx *Index) Arena() *label.Arena { return idx.arena }

// FreezeCompressed re-packs every label list from its current form (CSR
// arena spans or private slices) into one delta+varint compressed arena
// (label.Frozen) and marks the index compressed. Queries stream the
// compressed sections — bloom pre-screens, sync-block seeks — and dynamic
// maintenance thaws only the lists it touches. The CSR arena, now
// shadowed, is released. A reduced index is expanded first: the
// compressed arena holds every list.
func (idx *Index) FreezeCompressed() {
	idx.Expand()
	idx.arena = nil
	idx.frozen, idx.compressed = label.FreezeCompressed(idx.In, idx.Out), true
}

// Refreeze re-packs the compressed arena when updates have thawed lists
// since the last freeze, returning how many lists re-encoded (0 when not
// compressed or nothing thawed). Untouched sections copy verbatim, so
// the cost scales with the update footprint, not the index size.
func (idx *Index) Refreeze() int {
	if !idx.compressed || idx.frozen.ThawedLists() == 0 {
		return 0
	}
	n := idx.frozen.ThawedLists()
	idx.frozen = label.FreezeCompressed(idx.In, idx.Out)
	return n
}

// Compressed reports whether the index was compressed (FreezeCompressed
// or a v3 load): every list lives in the compressed arena until a write
// thaws it. A reduced index's frozen store does not count.
func (idx *Index) Compressed() bool { return idx.compressed }

// CompressedBytes returns the physical footprint of the compressed arena
// (0 when not compressed). Thawed lists' private slices are not counted.
func (idx *Index) CompressedBytes() int {
	if !idx.compressed {
		return 0
	}
	return idx.frozen.Bytes()
}

// FrozenArena exposes the delta+varint arena — every list of a compressed
// index, for serialization — or nil when the index has none.
func (idx *Index) FrozenArena() *label.Frozen { return idx.frozen }

// AttachFrozen points the index's label lists at a deserialized
// compressed arena (the v3 load path): no entries decode, the lists
// stream their sections on demand.
func (idx *Index) AttachFrozen(f *label.Frozen) error {
	if err := label.AttachFrozen(f, idx.In, idx.Out); err != nil {
		return err
	}
	idx.frozen, idx.compressed = f, true
	idx.arena = nil
	idx.entries = f.Entries()
	return nil
}

// EntryCount returns the total number of label entries (O(1); the counter
// is maintained by every mutation path).
func (idx *Index) EntryCount() int { return idx.entries }

// Bytes returns the label storage footprint in bytes (8 per entry).
func (idx *Index) Bytes() int { return 8 * idx.entries }
