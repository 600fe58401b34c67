package csc

import (
	"fmt"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/bfscount"
	"repro/internal/bipartite"
	"repro/internal/graph"
	"repro/internal/order"
	"repro/internal/partition"
	"repro/internal/pll"
)

// Sharded is the SCC-partitioned form of the CSC index. Every directed
// cycle lies inside one strongly connected component, so the condensation
// is a free decomposition: trivial (single-vertex) components answer
// CycleCount = 0 with no labels at all, each non-trivial component gets
// an independent monolithic Index over its induced subgraph, and queries
// route through a directory of the cyclic vertices (directory.go).
// Cross-component edges are kept in the graph but carry no labels.
//
// Dynamic updates keep the partition correct. An intra-shard edge goes
// through the shard's own INCCNT/decremental maintenance. An insertion
// that merges components (the new edge closes a path back to its tail)
// triggers a scoped rebuild of exactly the merged component; a deletion
// that splits a component rebuilds only that component's surviving
// sub-components. Everything else — cross-component inserts that close no
// cycle, deletes of label-free edges — is O(reachability check) or free.
type Sharded struct {
	g    *graph.Digraph
	opts Options

	// shards holds the live sub-indexes; slots become nil when a merge or
	// split retires a shard and are reused for new ones.
	shards []*shard
	free   []int32 // retired slot ids available for reuse

	dir directory // member vertex → shard slot and local id

	merges, splits int // scoped-rebuild counters (diagnostics)
	batchRebuilds  int // fresh component builds performed by ApplyBatch

	// slotRebuilds counts fresh installs per shard slot (grown lazily —
	// slots past its length have seen none). Slot reuse is deliberate:
	// the per-shard gauge tracks churn at the serving slot, which is the
	// granularity /metrics exposes.
	slotRebuilds []uint64
}

// shard is one non-trivial SCC: its member vertices (sorted ascending —
// position is the local id), the monolithic index over the induced
// subgraph, and the ordering strategy that produced the index's hub
// order (provenance — the order itself lives in the index).
//
// A lean shard holds no induced subgraph (its index's graph is nil): its
// labels encode its members' induced subgraph in the served graph, and
// everything that would change that subgraph or read it takes it first
// (subgraph). A written, rebuilt or compressed shard keeps its own.
type shard struct {
	verts []int32
	idx   *Index
	strat order.Strategy
}

// BuildSharded partitions g by condensation and builds one monolithic CSC
// index per non-trivial component, opts.Workers components at a time.
// The index takes ownership of g.
func BuildSharded(g *graph.Digraph, opts Options) (*Sharded, pll.BuildStats) {
	start := time.Now()
	n := g.NumVertices()
	x := &Sharded{g: g, opts: opts}
	comps := partition.SCC(g).NonTrivial()
	x.shards = make([]*shard, len(comps))
	for sid, verts := range comps {
		// The partition's member lists share one n-sized backing array,
		// which a shard would otherwise keep alive: copy each exactly.
		comps[sid] = append(make([]int32, 0, len(verts)), verts...)
	}

	workers := opts.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	// Schedule largest components first so the tail of the pool is short.
	sched := make([]int, len(comps))
	for i := range sched {
		sched[i] = i
	}
	sort.Slice(sched, func(a, b int) bool { return len(comps[sched[a]]) > len(comps[sched[b]]) })

	var wg sync.WaitGroup
	var next atomic.Int64
	for w := 0; w < min(workers, len(comps)); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= len(sched) {
					return
				}
				sid := sched[i]
				x.shards[sid] = buildShard(g, comps[sid], opts, true)
			}
		}()
	}
	wg.Wait()
	var err error
	if x.dir, err = newDirectory(n, x.shards); err != nil {
		panic(err) // unreachable: components are disjoint and in range
	}

	st := x.stats()
	st.Duration = time.Since(start)
	return x, st
}

// buildShard constructs one component's sub-index over its induced
// subgraph with the component's own order under the configured strategy.
// freeze is false on the write path (see build); a frozen build is lean
// and sheds its subgraph.
func buildShard(g *graph.Digraph, verts []int32, opts Options, freeze bool) *shard {
	sub := partition.Induced(g, verts)
	idx, _ := build(sub, orderFor(sub, opts), opts, freeze)
	idx.shedGraph()
	return &shard{verts: verts, idx: idx, strat: opts.Order}
}

// subgraph returns shard sh's induced subgraph, inducing it again from
// the served graph when sh is lean and holds none. Callers take it
// before the served graph changes an edge among sh's members; sh keeps
// it from then on.
func (x *Sharded) subgraph(sh *shard) *graph.Digraph {
	if sh.idx.g == nil {
		sh.idx.g = partition.Induced(x.g, sh.verts)
		sh.idx.eng.DropGraph(sh.idx.g)
	}
	return sh.idx.g
}

// locate is Locate with out-of-range ids reported as trivial.
func (x *Sharded) locate(v int) (slot, local int32) {
	if v < 0 || v >= x.dir.n {
		return -1, -1
	}
	return x.dir.locate(v)
}

// orderFor computes the hub order for one component's induced subgraph
// under the configured strategy, falling back to degree on an
// uncomputable strategy value (an unknown byte from a hostile file — the
// order vector itself always round-trips explicitly).
func orderFor(sub *graph.Digraph, opts Options) *order.Order {
	ord, err := order.Compute(sub, opts.Order, opts.OrderSeed)
	if err != nil {
		return order.ByDegree(sub)
	}
	return ord
}

func (x *Sharded) stats() pll.BuildStats {
	var st pll.BuildStats
	for _, sh := range x.shards {
		if sh == nil {
			continue
		}
		s := sh.idx.eng.Stats()
		st.Entries += s.Entries
		st.Canonical += s.Canonical
		st.NonCanonical += s.NonCanonical
	}
	st.Bytes = 8 * st.Entries
	return st
}

// CycleCount answers SCCnt(v). Vertices in trivial components — and
// out-of-range ids — report no cycle without touching any labels.
func (x *Sharded) CycleCount(v int) (length int, count uint64) {
	return x.read(v, 0, false)
}

// CycleCountBounded is CycleCount restricted to cycle lengths ≤ maxLen:
// it answers exactly like CycleCount when the shortest cycles through v
// are that short, and (bfscount.NoCycle, 0) otherwise, via the bounded
// join (over-bound hub pairs never enter the count arithmetic).
func (x *Sharded) CycleCountBounded(v, maxLen int) (length int, count uint64) {
	return x.read(v, maxLen, true)
}

// read routes one read to v's shard (Index.read has the contract).
func (x *Sharded) read(v, maxLen int, bounded bool) (length int, count uint64) {
	s, local := x.locate(v)
	if s < 0 {
		return bfscount.NoCycle, 0
	}
	return x.shards[s].idx.join(int(local), maxLen, bounded)
}

// CycleCountAll evaluates SCCnt for every vertex and returns the
// per-vertex lengths (bfscount.NoCycle for cycle-free vertices) and
// counts. workers sets the parallelism: 0 uses every core, and any value
// is clamped to the vertex count so tiny graphs never spawn idle
// goroutines. Queries are read-only, so this is safe as long as no update
// runs concurrently.
func (x *Sharded) CycleCountAll(workers int) (lengths []int, counts []uint64) {
	n := x.dir.n
	lengths = make([]int, n)
	counts = make([]uint64, n)
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	workers = min(workers, n)
	var wg sync.WaitGroup
	var next atomic.Int64
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for v := int(next.Add(1)) - 1; v < n; v = int(next.Add(1)) - 1 {
				lengths[v], counts[v] = x.CycleCount(v)
			}
		}()
	}
	wg.Wait()
	return lengths, counts
}

// InsertEdge applies an edge insertion. Intra-shard edges run the shard's
// INCCNT maintenance; a cross-component edge that closes a path back to
// its tail merges components and rebuilds exactly the merged one; any
// other cross-component edge is recorded label-free.
func (x *Sharded) InsertEdge(a, b int) (pll.UpdateStats, error) {
	sa, la := x.locate(a)
	sb, lb := x.locate(b)
	if sa >= 0 && sa == sb {
		x.subgraph(x.shards[sa]) // before the served graph moves
	}
	if err := x.g.AddEdge(a, b); err != nil {
		return pll.UpdateStats{}, err
	}
	start := time.Now()
	if sa >= 0 && sa == sb {
		sh := x.shards[sa]
		st, err := sh.idx.InsertEdge(int(la), int(lb))
		x.translateOwners(sh, &st)
		return st, err
	}
	// The new edge a→b lies on a cycle — and therefore merges components —
	// exactly when b already reaches a.
	if !partition.Reachable(x.g, b, a) {
		return pll.UpdateStats{Duration: time.Since(start)}, nil
	}
	return x.mergeRebuild(a, start), nil
}

// DeleteEdge applies an edge deletion. Cross-component and trivial edges
// are label-free; an intra-shard deletion either repairs the shard's
// labels decrementally (component intact) or rebuilds the component's
// surviving sub-components (component split).
func (x *Sharded) DeleteEdge(a, b int) (pll.UpdateStats, error) {
	s, la := x.locate(a)
	sb, lb := x.locate(b)
	if s >= 0 && s == sb {
		x.subgraph(x.shards[s]) // before the served graph moves
	}
	if err := x.g.RemoveEdge(a, b); err != nil {
		return pll.UpdateStats{}, err
	}
	start := time.Now()
	if s < 0 || s != sb {
		return pll.UpdateStats{Duration: time.Since(start)}, nil
	}
	sh := x.shards[s]
	// The component survives iff a still reaches b without the removed
	// edge: every path that used a→b reroutes through the a⇝b detour, so
	// all mutual reachability is preserved.
	if x.survivesDeletions(s, []EdgeOp{Del(a, b)}) {
		st, err := sh.idx.DeleteEdge(int(la), int(lb))
		x.translateOwners(sh, &st)
		return st, err
	}
	return x.splitRebuild(s, start), nil
}

// mergeRebuild replaces every component absorbed by a's new strongly
// connected component with one freshly built shard. Old shards are
// strictly nested inside the merged component (SCCs only grow under
// insertions), so the affected set is exactly the shards intersecting it.
func (x *Sharded) mergeRebuild(a int, start time.Time) pll.UpdateStats {
	merged := partition.ComponentOf(x.g, a)
	var st pll.UpdateStats
	retired := make(map[int32]struct{})
	for _, v := range merged {
		if s := x.dir.slotOf(int(v)); s >= 0 {
			retired[s] = struct{}{}
		}
	}
	for s := range retired {
		st.EntriesRemoved += x.shards[s].idx.EntryCount()
		x.retire(s)
	}
	sh := buildShard(x.g, merged, x.opts, false)
	x.install(sh)
	x.merges++
	st.EntriesAdded = sh.idx.EntryCount()
	st.Visited = len(merged)
	st.TouchedOwners = touchAll(merged)
	st.Duration = time.Since(start)
	return st
}

// splitRebuild re-partitions one shard after a deletion disconnected it:
// every surviving non-trivial sub-component gets a fresh sub-index, and
// vertices falling out into trivial components drop their labels
// entirely.
func (x *Sharded) splitRebuild(s int32, start time.Time) pll.UpdateStats {
	old := x.shards[s]
	var st pll.UpdateStats
	st.EntriesRemoved = old.idx.EntryCount()
	x.retire(s)
	// The global graph already dropped the edge, so the partition of the
	// old member set within it is the post-delete decomposition.
	for _, comp := range partition.SCCWithin(x.g, old.verts) {
		if len(comp) < 2 {
			continue
		}
		sh := buildShard(x.g, comp, x.opts, false)
		x.install(sh)
		st.EntriesAdded += sh.idx.EntryCount()
	}
	x.splits++
	st.Visited = len(old.verts)
	st.TouchedOwners = touchAll(old.verts)
	st.Duration = time.Since(start)
	return st
}

// retire clears a shard slot and unmaps its vertices (they are either
// re-installed into a new shard or left trivial by the caller).
func (x *Sharded) retire(s int32) {
	x.dir.remove(x.shards[s].verts)
	x.shards[s] = nil
	x.free = append(x.free, s)
}

// install places a freshly built shard into a free slot (or a new one)
// and points its vertices at it.
func (x *Sharded) install(sh *shard) {
	var s int32
	if len(x.free) > 0 {
		s = x.free[len(x.free)-1]
		x.free = x.free[:len(x.free)-1]
		x.shards[s] = sh
	} else {
		s = int32(len(x.shards))
		x.shards = append(x.shards, sh)
	}
	x.dir.insert(sh.verts, s)
	for int(s) >= len(x.slotRebuilds) {
		x.slotRebuilds = append(x.slotRebuilds, 0)
	}
	x.slotRebuilds[s]++
}

// translateOwners rewrites a shard-local update's touched owners (Gb
// vertices of the shard's conversion) into Gb vertices of the global
// graph's conversion, preserving the in/out side, so consumers like the
// top-k monitor keep applying bipartite.Original unchanged.
func (x *Sharded) translateOwners(sh *shard, st *pll.UpdateStats) {
	for i, o := range st.TouchedOwners {
		gv := int(sh.verts[bipartite.Original(int(o))])
		if bipartite.IsIn(int(o)) {
			st.TouchedOwners[i] = int32(bipartite.InVertex(gv))
		} else {
			st.TouchedOwners[i] = int32(bipartite.OutVertex(gv))
		}
	}
}

// touchAll marks every vertex of a rebuilt component as touched (its
// v_in Gb id stands for the couple).
func touchAll(verts []int32) []int32 {
	out := make([]int32, len(verts))
	for i, v := range verts {
		out[i] = int32(bipartite.InVertex(int(v)))
	}
	return out
}

// AddVertex grows the graph by one isolated vertex — a fresh trivial
// component, so no shard changes.
func (x *Sharded) AddVertex() (int, error) {
	v := x.g.AddVertex()
	x.dir.grow()
	return v, nil
}

// DetachVertex removes every incident edge of v (both directions)
// through maintained deletions, leaving v isolated (and trivial). Vertex
// ids stay dense and are never recycled — the paper models vertex
// removal exactly this way, as a series of edge deletions.
func (x *Sharded) DetachVertex(v int) (int, error) {
	// Copy the adjacency before mutating it.
	out := append([]int32(nil), x.g.Out(v)...)
	in := append([]int32(nil), x.g.In(v)...)
	removed := 0
	for _, w := range out {
		if _, err := x.DeleteEdge(v, int(w)); err != nil {
			return removed, err
		}
		removed++
	}
	for _, w := range in {
		if _, err := x.DeleteEdge(int(w), v); err != nil {
			return removed, err
		}
		removed++
	}
	return removed, nil
}

// Graph returns the original graph. Callers must not mutate it directly.
func (x *Sharded) Graph() *graph.Digraph { return x.g }

// EntryCount sums label entries across live shards.
func (x *Sharded) EntryCount() int {
	total := 0
	for _, sh := range x.shards {
		if sh != nil {
			total += sh.idx.EntryCount()
		}
	}
	return total
}

// Bytes is the logical label footprint (8 bytes per entry of the full
// labeling).
func (x *Sharded) Bytes() int { return 8 * x.EntryCount() }

// ResidentBytes sums the label bytes the shards physically hold: the
// stored lists of reduced shards (frozen, or 8 B per entry once written
// in couple form), every list of shards the generic engine wrote, and
// v3/v4 file arenas at their compressed size.
func (x *Sharded) ResidentBytes() int {
	total := 0
	for _, sh := range x.shards {
		if sh != nil {
			total += sh.idx.ResidentBytes()
		}
	}
	return total
}

// StoredEntries sums the label entries the shards physically hold
// (Index.StoredEntries), the entries ResidentBytes holds.
func (x *Sharded) StoredEntries() int {
	total := 0
	for _, sh := range x.shards {
		if sh != nil {
			total += sh.idx.StoredEntries()
		}
	}
	return total
}

// GraphBytes sums the adjacency footprint (graph.Digraph.Bytes) of every
// graph the index holds: the global graph plus, for each shard that is
// not lean, its subgraph and, once the generic engine wrote the shard,
// its bipartite conversion Gb (a couple-form write holds none).
func (x *Sharded) GraphBytes() int {
	total := x.g.Bytes()
	for _, sh := range x.shards {
		if sh == nil {
			continue
		}
		if sub := sh.idx.g; sub != nil {
			total += sub.Bytes()
		}
		if gb := sh.idx.eng.G; gb != nil {
			total += gb.Bytes()
		}
	}
	return total
}

// CompressedBytes sums the footprint of the v3/v4 file arenas that
// shards not yet written serve (0 for an index built or loaded from
// v1/v2).
func (x *Sharded) CompressedBytes() int {
	total := 0
	for _, sh := range x.shards {
		if sh != nil {
			total += sh.idx.CompressedBytes()
		}
	}
	return total
}

// ReducedBytes sums the couple-merged footprint across shards.
func (x *Sharded) ReducedBytes() int {
	total := 0
	for _, sh := range x.shards {
		if sh != nil {
			total += sh.idx.ReducedBytes()
		}
	}
	return total
}

// NumShards counts the live non-trivial components.
func (x *Sharded) NumShards() int {
	n := 0
	for _, sh := range x.shards {
		if sh != nil {
			n++
		}
	}
	return n
}

// TrivialVertices counts vertices outside every shard — the label-free
// share of the graph.
func (x *Sharded) TrivialVertices() int { return x.dir.n - x.dir.members() }

// Rebuilds reports how many scoped rebuilds dynamic updates triggered:
// component merges (insertions) and splits (deletions).
func (x *Sharded) Rebuilds() (merges, splits int) { return x.merges, x.splits }

// ShardStat is one live shard's footprint for per-shard gauges.
type ShardStat struct {
	Slot       int            // serving slot id
	Vertices   int            // member vertices
	Entries    int            // label entries
	LabelBytes int            // label footprint (8 bytes per entry)
	Rebuilds   uint64         // fresh installs this slot has served
	Order      order.Strategy // strategy that produced the shard's hub order
}

// ShardStats reports every live shard's footprint, ordered by slot —
// the scrape-time source for per-shard metrics.
func (x *Sharded) ShardStats() []ShardStat {
	out := make([]ShardStat, 0, len(x.shards))
	for si, sh := range x.shards {
		if sh == nil {
			continue
		}
		entries := sh.idx.EntryCount()
		st := ShardStat{
			Slot:       si,
			Vertices:   len(sh.verts),
			Entries:    entries,
			LabelBytes: 8 * entries,
			Order:      sh.strat,
		}
		if si < len(x.slotRebuilds) {
			st.Rebuilds = x.slotRebuilds[si]
		}
		out = append(out, st)
	}
	return out
}

// ShardOf returns the shard slot serving v, or -1 for trivial vertices
// (tests and diagnostics).
func (x *Sharded) ShardOf(v int) int { return int(x.dir.slotOf(v)) }

// Locate returns the shard slot serving v and v's local id inside that
// shard, or (-1, -1) for a trivial vertex. v must be in range. The pair
// is fixed until the slot is reinstalled (see SlotGen).
func (x *Sharded) Locate(v int) (slot, local int32) { return x.dir.locate(v) }

// NumSlots is the length of the shard slot table, live and retired
// slots alike.
func (x *Sharded) NumSlots() int { return len(x.shards) }

// SlotGen reports slot s's install generation and its member count (0
// for a retired slot). The generation counts fresh installs into the
// slot, so an unchanged generation means the same shard still serves
// the same members at the same local ids.
func (x *Sharded) SlotGen(s int) (gen uint64, size int) {
	if s < len(x.slotRebuilds) {
		gen = x.slotRebuilds[s]
	}
	if sh := x.shards[s]; sh != nil {
		size = len(sh.verts)
	}
	return gen, size
}

// ShardMap returns a copy of the full vertex→shard-slot table (-1 for
// trivial vertices) — the routing-table source for a cluster deployment.
func (x *Sharded) ShardMap() []int32 {
	out := make([]int32, x.dir.n)
	for v := range out {
		out[v] = x.dir.slotOf(v)
	}
	return out
}

// liveShards returns the live shards sorted by smallest member vertex —
// the stable order serialization and validation walk them in.
func (x *Sharded) liveShards() []*shard {
	var out []*shard
	for _, sh := range x.shards {
		if sh != nil {
			out = append(out, sh)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].verts[0] < out[j].verts[0] })
	return out
}

// checkConsistent validates the directory against the shards in both
// directions (tests only): every member resolves to its shard position,
// every vertex the directory maps is a member there, and the trivial
// count is n minus the members.
func (x *Sharded) checkConsistent() error {
	if x.dir.n != x.g.NumVertices() {
		return fmt.Errorf("csc: directory covers %d vertices, graph has %d", x.dir.n, x.g.NumVertices())
	}
	members := 0
	for _, sh := range x.shards {
		if sh == nil {
			continue
		}
		members += len(sh.verts)
		for li, v := range sh.verts {
			s, l := x.dir.locate(int(v))
			if s < 0 || x.shards[s] != sh || int(l) != li {
				return fmt.Errorf("csc: vertex %d maps to shard %d/local %d, expected %d", v, s, l, li)
			}
		}
	}
	for v := range x.dir.n {
		s, l := x.dir.locate(v)
		if s < 0 {
			continue
		}
		if int(s) >= len(x.shards) || x.shards[s] == nil {
			return fmt.Errorf("csc: vertex %d maps to dead slot %d", v, s)
		}
		if verts := x.shards[s].verts; int(l) >= len(verts) || verts[l] != int32(v) {
			return fmt.Errorf("csc: vertex %d maps to slot %d/local %d, which holds another vertex", v, s, l)
		}
	}
	if got, want := x.TrivialVertices(), x.dir.n-members; got != want {
		return fmt.Errorf("csc: %d trivial vertices, %d vertices minus %d members is %d", got, x.dir.n, members, want)
	}
	return nil
}
