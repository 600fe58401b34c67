package csc

import (
	"runtime"
	"slices"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/graph"
	"repro/internal/order"
	"repro/internal/partition"
	"repro/internal/pll"
)

// Out-of-band rebuilds: the sharded index's answer to the structural
// cliff. A structural batch on a giant SCC normally rebuilds the whole
// merged or split component inline — the caller (and, in the engine,
// every reader behind the grace period) stalls for the full build. The
// deferred path instead freezes the affected shards: they keep serving
// their pre-batch answers (each shard owns an induced-subgraph copy, so
// the frozen sub-index is self-contained), the batch commits its cheap
// intra-shard work immediately, and the expensive component builds run
// later — typically on a background goroutine — from induced-subgraph
// snapshots captured at plan time. CompleteRebuild swaps the finished
// shards in atomically under the caller's grace period.
//
// Consistency contract: a frozen shard's sub-index receives no ops
// after its freeze point, so its answers are exactly the answers as of
// the last batch before it froze — well-defined staleness, never a
// half-applied state. Ops landing on a frozen shard are dropped from
// streaming (the rebuild, built from the current graph, owns them), and
// any later batch that could move the pending region recomputes the
// whole deferral from the final partition — including un-freezing a
// shard whose subgraph churned back to its frozen state, which makes a
// transient structural flap (bridge down, bridge back up) cost zero
// rebuilds instead of two.

// Rebuild is one pending out-of-band rebuild: the frozen shard slots,
// the final components to build, and induced-subgraph snapshots to
// build them from. Run may execute on any goroutine — it touches only
// the snapshots. CompleteRebuild must run wherever index mutations are
// serialized (the engine's writer goroutine, under its grace period).
type Rebuild struct {
	gen    uint64
	stale  []int32            // frozen shard slots, ascending
	comps  [][]int32          // final components to build (sorted members)
	subs   []*graph.Digraph   // induced snapshots, aligned with comps
	region map[int32]struct{} // every vertex the deferral covers
	opts   Options
	built  []*shard // filled by Run

	// ords carries explicit per-component hub orders (aligned with comps;
	// nil or a nil entry means Run computes the order from strats). The
	// online re-ranker uses it to rebuild a shard under a hit-derived
	// order no strategy could recompute offline.
	ords   []*order.Order
	strats []order.Strategy // per-component strategy tags, aligned with comps

	// freeze builds the components frozen, and so lean (see build): set
	// for a re-rank, whose shard is read-hot rather than written; a
	// structural rebuild's shard is about to be written and stays
	// unfrozen.
	freeze bool

	// frozenAt is when the deferral's shards froze — inherited across
	// supersessions, so it anchors the full stale window a reader could
	// have observed, not just the latest recomputation's.
	frozenAt time.Time
}

// FrozenAt is when the deferral's shards began serving stale answers
// (the start of the freeze→swap window observability reports).
func (r *Rebuild) FrozenAt() time.Time { return r.frozenAt }

// Gen is the deferral generation this rebuild belongs to (diagnostics;
// superseding is decided by identity, not generation).
func (r *Rebuild) Gen() uint64 { return r.gen }

// Components is the number of deferred component builds.
func (r *Rebuild) Components() int { return len(r.comps) }

// Vertices is the total vertex count across deferred components.
func (r *Rebuild) Vertices() int {
	n := 0
	for _, c := range r.comps {
		n += len(c)
	}
	return n
}

// StaleSlots returns the frozen shard slots (ascending).
func (r *Rebuild) StaleSlots() []int {
	out := make([]int, len(r.stale))
	for i, s := range r.stale {
		out[i] = int(s)
	}
	return out
}

// Run builds every deferred component from its snapshot. It is safe on
// any goroutine — it reads only the rebuild's own snapshots — and
// idempotent. workers bounds how many components build at once (0 = all
// cores), mirroring BuildSharded.
func (r *Rebuild) Run(workers int) {
	if r.built != nil {
		return
	}
	built := make([]*shard, len(r.comps))
	if len(r.comps) > 0 {
		if workers <= 0 {
			workers = runtime.GOMAXPROCS(0)
		}
		build := func(i int) {
			strat := r.opts.Order
			if i < len(r.strats) {
				strat = r.strats[i]
			}
			var ord *order.Order
			if i < len(r.ords) {
				ord = r.ords[i]
			}
			if ord == nil {
				opts := r.opts
				opts.Order = strat
				ord = orderFor(r.subs[i], opts)
			}
			idx, _ := build(r.subs[i], ord, r.opts, r.freeze)
			idx.shedGraph()
			built[i] = &shard{verts: r.comps[i], idx: idx, strat: strat}
		}
		if len(r.comps) == 1 || workers == 1 {
			for i := range r.comps {
				build(i)
			}
		} else {
			// comps are emitted largest-first, so a simple counter pool keeps
			// the tail short.
			if workers > len(r.comps) {
				workers = len(r.comps)
			}
			var next atomic.Int64
			var wg sync.WaitGroup
			for w := 0; w < workers; w++ {
				wg.Add(1)
				go func() {
					defer wg.Done()
					for {
						i := int(next.Add(1)) - 1
						if i >= len(r.comps) {
							return
						}
						build(i)
					}
				}()
			}
			wg.Wait()
		}
	}
	r.built = built
}

// ApplyBatchDeferred is ApplyBatch with a deferral threshold: any final
// component of at least threshold vertices that would need a fresh build
// is deferred instead — its contributing shards freeze at their
// pre-batch answers — and returned as part of the pending Rebuild. The
// returned *Rebuild is the pending deferral AFTER this batch: nil when
// nothing is deferred, a new object whenever the pending set changed
// (superseding any previously returned one — decided by pointer
// identity in CompleteRebuild), or the unchanged previous object when
// the batch did not touch it. threshold <= 0 never defers new work but
// still maintains (and may dissolve or inline-complete) an existing
// deferral. The index must not be serialized while a deferral is
// pending — complete or supersede it first.
func (x *Sharded) ApplyBatchDeferred(batch []EdgeOp, workers, threshold int) (pll.UpdateStats, *Rebuild, error) {
	x.deferThreshold = threshold
	if threshold <= 0 && x.pendingReb == nil {
		st, err := x.ApplyBatch(batch, workers)
		return st, nil, err
	}
	return x.applyBatchDeferred(batch, workers, threshold)
}

func (x *Sharded) applyBatchDeferred(batch []EdgeOp, workers, threshold int) (pll.UpdateStats, *Rebuild, error) {
	var agg pll.UpdateStats
	if len(batch) == 0 {
		return agg, x.pendingReb, nil
	}
	if err := ValidateBatch(x.g, batch); err != nil {
		return agg, x.pendingReb, err
	}
	start := time.Now()
	if batch = coalesceBatch(x.g, batch); len(batch) == 0 {
		agg.Duration = time.Since(start)
		return agg, x.pendingReb, nil
	}

	planStart := time.Now()
	plan := x.planBatchDeferred(batch)
	x.moveGraph(plan, batch)

	tasks, pending := x.reconcileDeferred(plan, &agg, threshold)
	agg.PlanDuration = time.Since(planStart)
	buildStart := time.Now()
	x.runBatchTasks(tasks, workers)
	x.installTasks(tasks, &agg)
	agg.BuildDuration = time.Since(buildStart)
	agg.Duration = time.Since(start)
	return agg, pending, nil
}

// planBatchDeferred is planBatch aware of frozen shards: an op confined
// to a frozen shard is dropped from streaming — the pending rebuild,
// built from the final graph, owns its effect — and any op touching the
// pending region forces the partition branch so the deferral is
// recomputed against the new final edge set.
func (x *Sharded) planBatchDeferred(batch []EdgeOp) batchPlan {
	p := batchPlan{streams: make(map[int32][]EdgeOp), dirty: make(map[int32]bool)}
	var region map[int32]struct{}
	if x.pendingReb != nil {
		region = x.pendingReb.region
	}
	for _, op := range batch {
		if region != nil {
			_, inA := region[op.A]
			_, inB := region[op.B]
			if inA || inB {
				p.touchedPending = true
			}
		}
		s := x.dir.slotOf(int(op.A))
		if s >= 0 && s == x.dir.slotOf(int(op.B)) {
			if x.stale[s] {
				continue // frozen: the rebuild owns this op's effect
			}
			if _, ok := p.streams[s]; !ok {
				p.order = append(p.order, s)
			}
			p.streams[s] = append(p.streams[s], op)
			if op.Kind == OpDelete {
				p.dirty[s] = true
			}
		} else {
			p.structural = append(p.structural, op)
		}
	}
	sort.Slice(p.order, func(i, j int) bool { return p.order[i] < p.order[j] })
	return p
}

// reconcileDeferred turns the plan into runnable tasks plus the new
// pending deferral. Structural ops, dirty streams, and anything touching
// the pending region route through one global partition pass (an
// insertion anywhere can merge an outside component into the region, so
// scoped per-edge checks cannot preserve a deferral soundly); pure
// intra-shard insertions stream and leave the deferral untouched.
func (x *Sharded) reconcileDeferred(plan batchPlan, agg *pll.UpdateStats, threshold int) ([]*batchTask, *Rebuild) {
	var tasks []*batchTask
	if len(plan.structural) == 0 && len(plan.dirty) == 0 && !plan.touchedPending {
		for _, s := range plan.order {
			tasks = append(tasks, &batchTask{sh: x.shards[s], ops: plan.streams[s]})
		}
		return tasks, x.pendingReb
	}

	final := partition.SCC(x.g)

	// Pass 1: shards that survive as-is. A live shard whose member set is
	// exactly its final component is intact. A frozen shard additionally
	// needs its current induced subgraph to equal the frozen one — then
	// the structural churn since its freeze cancelled out and it unfreezes
	// with zero work (its dropped ops are exactly that cancelled diff).
	intact := make(map[int32]bool)
	unfreeze := make(map[int32]bool)
	covered := make(map[int32]bool) // final comp id → served without a build
	for si, sh := range x.shards {
		if sh == nil {
			continue
		}
		s := int32(si)
		c := final.Comp[sh.verts[0]]
		if !sameVerts(final.Comps[c], sh.verts) {
			continue
		}
		if !x.stale[s] {
			intact[s] = true
			covered[c] = true
		} else if frozenMatches(sh, x.g) {
			unfreeze[s] = true
			covered[c] = true
		}
	}

	// Pass 2: components needing a build, and which of them defer. A
	// deferral is contagious within a shard — a shard either serves all
	// its members (frozen) or none (retired) — so freezing closes over
	// the shard↔component incidence until it reaches a fixed point.
	deferred := make(map[int32]bool)  // final comp id
	staleKept := make(map[int32]bool) // shard slot stays (or becomes) frozen
	var work []int32
	for ci, comp := range final.Comps {
		c := int32(ci)
		if len(comp) < 2 || covered[c] {
			continue
		}
		if threshold > 0 && len(comp) >= threshold {
			deferred[c] = true
			work = append(work, c)
		}
	}
	for len(work) > 0 {
		c := work[len(work)-1]
		work = work[:len(work)-1]
		for _, v := range final.Comps[c] {
			s := x.dir.slotOf(int(v))
			if s < 0 || staleKept[s] {
				continue
			}
			staleKept[s] = true
			for _, w := range x.shards[s].verts {
				c2 := final.Comp[w]
				if len(final.Comps[c2]) < 2 || covered[c2] || deferred[c2] {
					continue
				}
				deferred[c2] = true
				work = append(work, c2)
			}
		}
	}

	// Pass 3: dispositions. Frozen-kept shards keep their mapping (their
	// answers do not change at this commit, so they contribute nothing to
	// the dirty set); intact shards stream; everything else — including a
	// previously frozen shard all of whose components build inline, which
	// is the cheap catch-up path — retires now.
	if len(staleKept) > 0 && x.stale == nil {
		x.stale = make(map[int32]bool)
	}
	for si, sh := range x.shards {
		if sh == nil {
			continue
		}
		s := int32(si)
		switch {
		case staleKept[s]:
			// A shard freezes with its subgraph, which frozenMatches
			// compares later. A lean one the batch streamed into took it
			// before the graph moved; any other has no edge of the batch
			// among its members, so inducing it now gives the same one.
			x.subgraph(sh)
			x.stale[s] = true
		case intact[s]:
			if ops, ok := plan.streams[s]; ok {
				tasks = append(tasks, &batchTask{sh: sh, ops: ops})
			}
		case unfreeze[s]:
			sh.idx.shedGraph()
			delete(x.stale, s)
		default:
			c := final.Comp[sh.verts[0]]
			agg.EntriesRemoved += sh.idx.EntryCount()
			agg.TouchedOwners = append(agg.TouchedOwners, touchAll(sh.verts)...)
			delete(x.stale, s)
			x.retire(s)
			if len(final.Comps[c]) > len(sh.verts) {
				x.merges++
			} else {
				x.splits++
			}
		}
	}
	for ci, comp := range final.Comps {
		c := int32(ci)
		if len(comp) < 2 || covered[c] || deferred[c] {
			continue
		}
		// A shard outlives final, whose member lists share one array
		// over every vertex: give it its own copy.
		tasks = append(tasks, &batchTask{build: slices.Clone(comp)})
	}

	// Pass 4: the new pending deferral (or none). Any previous one is
	// superseded wholesale — its snapshots describe an edge set this
	// batch may have changed.
	if x.pendingReb != nil {
		x.oobSuperseded++
	}
	if len(deferred) == 0 {
		x.pendingReb = nil
		return tasks, nil
	}
	x.gen++
	frozenAt := time.Now()
	if x.pendingReb != nil && !x.pendingReb.frozenAt.IsZero() {
		frozenAt = x.pendingReb.frozenAt
	}
	reb := &Rebuild{gen: x.gen, opts: x.opts, region: make(map[int32]struct{}), frozenAt: frozenAt}
	var ids []int32
	for c := range deferred {
		ids = append(ids, c)
	}
	// Largest component first: Run's worker pool drains heaviest-first.
	sort.Slice(ids, func(i, j int) bool {
		a, b := final.Comps[ids[i]], final.Comps[ids[j]]
		if len(a) != len(b) {
			return len(a) > len(b)
		}
		return a[0] < b[0]
	})
	for _, c := range ids {
		comp := slices.Clone(final.Comps[c]) // outlives final, like a task's build list
		reb.comps = append(reb.comps, comp)
		reb.subs = append(reb.subs, partition.Induced(x.g, comp))
		for _, v := range comp {
			reb.region[v] = struct{}{}
		}
	}
	for s := range staleKept {
		reb.stale = append(reb.stale, s)
	}
	sort.Slice(reb.stale, func(i, j int) bool { return reb.stale[i] < reb.stale[j] })
	for _, s := range reb.stale {
		for _, v := range x.shards[s].verts {
			reb.region[v] = struct{}{}
		}
	}
	x.pendingReb = reb
	return tasks, reb
}

// CompleteRebuild swaps a finished rebuild in: frozen shards retire and
// the freshly built components install, atomically from the caller's
// point of view (the engine runs it under the grace period). A rebuild
// superseded by a later batch reports ok=false and swaps nothing — run
// the current PendingRebuild instead. The returned stats carry the swap's
// dirty set: every vertex of every frozen shard (its answer moves from
// frozen to current) and of every installed component.
func (x *Sharded) CompleteRebuild(r *Rebuild) (pll.UpdateStats, bool) {
	var st pll.UpdateStats
	if r == nil || r != x.pendingReb {
		x.oobSuperseded++
		return st, false
	}
	if r.built == nil {
		panic("csc: CompleteRebuild before Run")
	}
	start := time.Now()
	for _, s := range r.stale {
		sh := x.shards[s]
		st.EntriesRemoved += sh.idx.EntryCount()
		st.TouchedOwners = append(st.TouchedOwners, touchAll(sh.verts)...)
		delete(x.stale, s)
		x.retire(s)
	}
	for _, sh := range r.built {
		x.install(sh)
		st.EntriesAdded += sh.idx.EntryCount()
		st.Visited += len(sh.verts)
		st.TouchedOwners = append(st.TouchedOwners, touchAll(sh.verts)...)
		x.batchRebuilds++
	}
	x.oobCompleted += len(r.built)
	x.pendingReb = nil
	st.Duration = time.Since(start)
	return st, true
}

// frozenMatches reports whether a frozen shard's sub-index still encodes
// the current induced subgraph of its member set — true exactly when the
// structural churn since its freeze cancelled out.
func frozenMatches(sh *shard, g *graph.Digraph) bool {
	sub := sh.idx.Graph()
	m := 0
	for lv, v := range sh.verts {
		for _, w := range g.Out(int(v)) {
			lw := localIndex(sh.verts, w)
			if lw < 0 {
				continue // cross edge: not part of the induced subgraph
			}
			if !sub.HasEdge(lv, lw) {
				return false
			}
			m++
		}
	}
	return m == sub.NumEdges()
}

// localIndex finds v's position in a sorted member list, -1 when absent.
func localIndex(verts []int32, v int32) int {
	i := sort.Search(len(verts), func(i int) bool { return verts[i] >= v })
	if i < len(verts) && verts[i] == v {
		return i
	}
	return -1
}

// PendingRebuild returns the current deferral, nil when none. The caller
// owns scheduling: Run it (any goroutine), then CompleteRebuild it where
// mutations are serialized.
func (x *Sharded) PendingRebuild() *Rebuild { return x.pendingReb }

// StaleShards lists the frozen shard slots (ascending) — the shards
// serving stale answers until the pending rebuild completes. Empty means
// every answer is current.
func (x *Sharded) StaleShards() []int {
	if len(x.stale) == 0 {
		return nil
	}
	out := make([]int, 0, len(x.stale))
	for s := range x.stale {
		out = append(out, int(s))
	}
	sort.Ints(out)
	return out
}

// OOBRebuilds reports the deferred-rebuild counters: components completed
// out-of-band, and deferrals superseded before completing (including
// those dissolved by cancelling churn).
func (x *Sharded) OOBRebuilds() (completed, superseded int) {
	return x.oobCompleted, x.oobSuperseded
}
