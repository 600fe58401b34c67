package csc

import (
	"errors"
	"fmt"
	"runtime"
	"slices"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/graph"
	"repro/internal/partition"
	"repro/internal/pll"
)

// OpKind discriminates batch edge operations.
type OpKind uint8

const (
	// OpInsert inserts a directed edge.
	OpInsert OpKind = 1
	// OpDelete deletes a directed edge.
	OpDelete OpKind = 2
)

// EdgeOp is one edge operation of an update batch.
type EdgeOp struct {
	Kind OpKind
	A, B int32
}

// Ins and Del are EdgeOp constructors (tests and batch builders).
func Ins(a, b int) EdgeOp { return EdgeOp{Kind: OpInsert, A: int32(a), B: int32(b)} }
func Del(a, b int) EdgeOp { return EdgeOp{Kind: OpDelete, A: int32(a), B: int32(b)} }

var errUnknownOp = errors.New("csc: unknown batch op kind")

// ValidateBatch checks that batch is a valid op sequence against g by
// simulating edge presence: every insert must add an absent edge and
// every delete must remove a present one, net of earlier ops in the same
// batch. ApplyBatch calls it before touching anything, so a rejected
// batch leaves the index untouched.
func ValidateBatch(g *graph.Digraph, batch []EdgeOp) error {
	n := g.NumVertices()
	present := make(map[[2]int32]bool, len(batch))
	for i, op := range batch {
		a, b := int(op.A), int(op.B)
		if op.Kind != OpInsert && op.Kind != OpDelete {
			return fmt.Errorf("%w (op %d)", errUnknownOp, i)
		}
		if a < 0 || a >= n || b < 0 || b >= n {
			return fmt.Errorf("op %d (%d,%d): %w", i, a, b, graph.ErrVertexRange)
		}
		if a == b {
			return fmt.Errorf("op %d (%d,%d): %w", i, a, b, graph.ErrSelfLoop)
		}
		k := [2]int32{op.A, op.B}
		cur, seen := present[k]
		if !seen {
			cur = g.HasEdge(a, b)
		}
		if op.Kind == OpInsert {
			if cur {
				return fmt.Errorf("op %d (%d,%d): %w", i, a, b, graph.ErrDuplicateEdge)
			}
			present[k] = true
		} else {
			if !cur {
				return fmt.Errorf("op %d (%d,%d): %w", i, a, b, graph.ErrMissingEdge)
			}
			present[k] = false
		}
	}
	return nil
}

// coalesceBatch reduces a validated batch to its net effect against the
// live graph: an insert+delete pair of the same edge cancels (whichever
// order it arrived in), leaving one op per edge whose final state differs
// from the live graph, in first-touch order. This mirrors the engine's
// mailbox coalescing, so direct ApplyBatch callers get the same
// semantics; query answers depend only on the final edge set, so the net
// batch is observationally equivalent to the full sequence.
func coalesceBatch(g *graph.Digraph, batch []EdgeOp) []EdgeOp {
	base := make(map[[2]int32]bool, len(batch))
	eff := make(map[[2]int32]bool, len(batch))
	var touch [][2]int32
	for _, op := range batch {
		k := [2]int32{op.A, op.B}
		if _, seen := eff[k]; !seen {
			base[k] = g.HasEdge(int(op.A), int(op.B))
			touch = append(touch, k)
		}
		// The batch is validated, so every op strictly toggles its edge.
		eff[k] = op.Kind == OpInsert
	}
	out := make([]EdgeOp, 0, len(touch))
	for _, k := range touch {
		if eff[k] == base[k] {
			continue
		}
		kind := OpDelete
		if eff[k] {
			kind = OpInsert
		}
		out = append(out, EdgeOp{Kind: kind, A: k[0], B: k[1]})
	}
	return out
}

// accumulate folds one op's stats into a batch aggregate.
func accumulate(agg *pll.UpdateStats, st pll.UpdateStats) {
	agg.AffectedHubs += st.AffectedHubs
	agg.Visited += st.Visited
	agg.EntriesAdded += st.EntriesAdded
	agg.EntriesChanged += st.EntriesChanged
	agg.EntriesRemoved += st.EntriesRemoved
	if agg.TouchedOwners == nil {
		agg.TouchedOwners = st.TouchedOwners // st is spent: adopt, don't copy
	} else {
		agg.TouchedOwners = append(agg.TouchedOwners, st.TouchedOwners...)
	}
}

// batchPlan classifies a batch against the pre-batch shard table.
type batchPlan struct {
	order      []int32            // stream shard slots, ascending
	streams    map[int32][]EdgeOp // shard slot → its intra-shard ops, in batch order
	dirty      map[int32]bool     // stream shards holding at least one delete
	structural []EdgeOp           // ops crossing shards or touching trivial vertices
	// touchedPending marks an op landing inside the pending deferral's
	// region (set by planBatchDeferred only): the deferral must be
	// recomputed against the batch's final edge set.
	touchedPending bool
}

// planBatch groups the batch's ops by shard. An op whose endpoints sit in
// the same live shard joins that shard's ordered stream; everything else
// — cross-shard edges, edges touching trivial vertices — is structural
// and can only matter through the partition reconciliation.
func (x *Sharded) planBatch(batch []EdgeOp) batchPlan {
	p := batchPlan{streams: make(map[int32][]EdgeOp), dirty: make(map[int32]bool)}
	for _, op := range batch {
		s := x.dir.slotOf(int(op.A))
		if s >= 0 && s == x.dir.slotOf(int(op.B)) {
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

// batchTask is one unit of per-shard batch work: either an ordered update
// stream against an intact shard, or a fresh build of one final
// component. Tasks touch disjoint shards, so a worker pool runs them
// concurrently.
type batchTask struct {
	sh    *shard   // stream target; also receives the built shard
	ops   []EdgeOp // stream ops in batch order (global vertex ids)
	build []int32  // when non-nil, build a fresh shard over these vertices
	st    pll.UpdateStats
	err   error
}

// ApplyBatch applies the batch through the sharded index's batch planner:
// ops are grouped by shard, merge/split effects are computed once for the
// whole batch (the final partition is a pure function of the final edge
// set), and the resulting per-shard work — ordered intra-shard update
// streams on intact shards, at-most-one fresh build per merged or split
// component — runs concurrently on workers goroutines (0 = all cores).
// Ops confined to trivial components that close no cycle touch no labels
// at all.
func (x *Sharded) ApplyBatch(batch []EdgeOp, workers int) (pll.UpdateStats, error) {
	if x.pendingReb != nil {
		// A deferral is pending: the plain planner would stream into frozen
		// shards. Route through the deferral-aware path, which keeps (or
		// recomputes) the pending rebuild.
		st, _, err := x.applyBatchDeferred(batch, workers, x.deferThreshold)
		return st, err
	}
	var agg pll.UpdateStats
	if len(batch) == 0 {
		return agg, nil
	}
	if err := ValidateBatch(x.g, batch); err != nil {
		return agg, err
	}
	start := time.Now()
	// Net-coalesce first: churn that cancels inside the batch window — an
	// edge flapping down and back up — costs nothing at all, where
	// per-edge application would pay a split rebuild and a merge rebuild.
	if batch = coalesceBatch(x.g, batch); len(batch) == 0 {
		agg.Duration = time.Since(start)
		return agg, nil
	}

	// Classify against the pre-batch table, then move the global graph to
	// its final state up front: every partition question below is asked of
	// the final edge set, once, instead of once per edge.
	planStart := time.Now()
	plan := x.planBatch(batch)
	x.moveGraph(plan, batch)

	tasks := x.reconcile(plan, &agg)
	agg.PlanDuration = time.Since(planStart)
	buildStart := time.Now()
	x.runBatchTasks(tasks, workers)
	x.installTasks(tasks, &agg)
	agg.BuildDuration = time.Since(buildStart)
	agg.Duration = time.Since(start)
	return agg, nil
}

// moveGraph applies a validated, coalesced batch to the served graph.
// Every shard the plan streams ops into takes its induced subgraph
// first: a lean one holds none, and once the graph has moved it could
// only be induced with the batch's edges in it.
func (x *Sharded) moveGraph(plan batchPlan, batch []EdgeOp) {
	for _, s := range plan.order {
		x.subgraph(x.shards[s])
	}
	for _, op := range batch {
		var err error
		if op.Kind == OpInsert {
			err = x.g.AddEdge(int(op.A), int(op.B))
		} else {
			err = x.g.RemoveEdge(int(op.A), int(op.B))
		}
		if err != nil {
			panic(err) // unreachable: ValidateBatch simulated this sequence
		}
	}
}

// installTasks installs fresh shards and folds per-task stats; a stream
// that failed (unreachable short of index corruption) self-heals by
// rebuilding its shard's final components from the global graph.
func (x *Sharded) installTasks(tasks []*batchTask, agg *pll.UpdateStats) {
	for _, t := range tasks {
		if t.err != nil {
			agg.EntriesRemoved += t.sh.idx.EntryCount()
			verts := t.sh.verts
			x.retire(x.dir.slotOf(int(verts[0])))
			for _, comp := range partition.SCCWithin(x.g, verts) {
				if len(comp) < 2 {
					continue
				}
				sh := buildShard(x.g, comp, x.opts, false)
				x.install(sh)
				x.batchRebuilds++
				agg.EntriesAdded += sh.idx.EntryCount()
			}
			agg.TouchedOwners = append(agg.TouchedOwners, touchAll(verts)...)
			continue
		}
		if t.build != nil {
			x.install(t.sh)
			x.batchRebuilds++
		}
		accumulate(agg, t.st)
	}
}

// batchGlobalSCCInserts bounds the per-edge scoped merge detection: up to
// this many surviving structural inserts are checked individually (an
// early-exit reachability probe each, plus one ComponentOf per actual
// merge); past it, one global Tarjan pass answers every merge and split
// question of the batch at once — cheaper than per-edge reach sets as
// soon as a handful of edges would each walk the graph.
const batchGlobalSCCInserts = 4

// reconcile turns the plan into runnable tasks, retiring every shard the
// batch's final partition invalidates. Only two kinds of ops can move the
// partition: intra-shard deletions can split their own shard (components
// shrink only by losing an internal edge — mutual-reachability paths
// never leave an SCC), and structural inserts still present in the final
// graph can merge components (a grown component must run a new cycle
// through a surviving new edge; intra-shard inserts change no
// reachability at all). Everything else streams through incremental
// maintenance or short-circuits label-free.
func (x *Sharded) reconcile(plan batchPlan, agg *pll.UpdateStats) []*batchTask {
	var tasks []*batchTask
	stream := func(s int32) {
		tasks = append(tasks, &batchTask{sh: x.shards[s], ops: plan.streams[s]})
	}
	retire := func(s int32, grew bool) {
		agg.EntriesRemoved += x.shards[s].idx.EntryCount()
		agg.TouchedOwners = append(agg.TouchedOwners, touchAll(x.shards[s].verts)...)
		x.retire(s)
		if grew {
			x.merges++
		} else {
			x.splits++
		}
	}

	var inserts []EdgeOp
	for _, op := range plan.structural {
		if op.Kind == OpInsert && x.g.HasEdge(int(op.A), int(op.B)) {
			inserts = append(inserts, op)
		}
	}

	if len(inserts) > batchGlobalSCCInserts {
		// Ask the final graph for its whole partition — once per batch.
		final := partition.SCC(x.g)
		covered := make(map[int32]bool) // final comp id → served by an intact shard
		intact := make(map[int32]bool)  // shard slot → survived unchanged
		for si, sh := range x.shards {
			if sh == nil {
				continue
			}
			c := final.Comp[sh.verts[0]]
			if sameVerts(final.Comps[c], sh.verts) {
				covered[c] = true
				intact[int32(si)] = true
				continue
			}
			retire(int32(si), len(final.Comps[c]) > len(sh.verts))
		}
		for _, s := range plan.order {
			if intact[s] {
				stream(s) // dropped streams are covered by rebuilds below
			}
		}
		for ci, comp := range final.Comps {
			if len(comp) < 2 || covered[int32(ci)] {
				continue
			}
			// A shard outlives final, whose member lists share one
			// array over every vertex: give it its own copy.
			tasks = append(tasks, &batchTask{build: slices.Clone(comp)})
		}
		return tasks
	}

	// Scoped reconciliation. Merges first: a surviving structural insert
	// (a,b) merges components exactly when b reaches a in the final graph,
	// and the merged component is then a's final SCC. Distinct merged
	// components are disjoint, so an endpoint already absorbed needs no
	// second look (an edge between two different final components lies on
	// no cycle and contributes nothing).
	var merged [][]int32
	inComp := make(map[int32]bool)
	for _, op := range inserts {
		if inComp[op.A] || inComp[op.B] {
			continue
		}
		if !partition.Reachable(x.g, int(op.B), int(op.A)) {
			continue
		}
		comp := partition.ComponentOf(x.g, int(op.A))
		for _, v := range comp {
			inComp[v] = true
		}
		merged = append(merged, comp)
	}
	for _, comp := range merged {
		for _, v := range comp {
			s := x.dir.slotOf(int(v))
			if s < 0 {
				continue // trivial vertex, or its shard already retired
			}
			sh := x.shards[s]
			retire(s, true)
			// Members the merge did not absorb (the shard was split by a
			// deletion and only part of it merged away) re-partition
			// locally: their final components cannot extend beyond the old
			// member set, or a surviving structural insert would have
			// seeded them above.
			var leftover []int32
			for _, w := range sh.verts {
				if !inComp[w] {
					leftover = append(leftover, w)
				}
			}
			for _, sub := range partition.SCCWithin(x.g, leftover) {
				if len(sub) >= 2 {
					tasks = append(tasks, &batchTask{build: sub})
				}
			}
		}
		tasks = append(tasks, &batchTask{build: comp})
	}

	// Splits next: every dirty shard a merge did not absorb re-checks its
	// own partition locally — no structural edge touched it, so its final
	// components are subsets of its member set.
	for _, s := range plan.order {
		if x.shards[s] == nil {
			continue // retired by a merge above; its rebuild covers the ops
		}
		if !plan.dirty[s] {
			stream(s)
			continue
		}
		if x.survivesDeletions(s, plan.streams[s]) {
			stream(s) // survived every deletion: still one component
			continue
		}
		comps := partition.SCCWithin(x.g, x.shards[s].verts)
		retire(s, false)
		for _, comp := range comps {
			if len(comp) >= 2 {
				tasks = append(tasks, &batchTask{build: comp})
			}
		}
	}
	return tasks
}

// survivesDeletions reports whether shard s is still one strongly
// connected component in the final graph after its stream's deletions:
// it is exactly when every deleted edge's tail still reaches its head
// inside the shard. Every pre-batch path within the shard then reroutes
// each deleted edge through such a detour (the stream is coalesced, so a
// delete means the edge is gone and an insert only adds paths), and a
// tail that cannot reach its head leaves the shard split. The caller has
// retired every shard a merge grew, so the shard cannot have gained
// members either.
func (x *Sharded) survivesDeletions(s int32, ops []EdgeOp) bool {
	r := reachBufs.Get().(*reachScratch)
	defer reachBufs.Put(r)
	for _, op := range ops {
		if op.Kind == OpDelete && !x.reachesWithin(r, s, int(op.A), int(op.B)) {
			return false
		}
	}
	return true
}

// reachScratch is a shard-local BFS's visited stamps (indexed by local
// id; stamp marks the current walk) and queue.
type reachScratch struct {
	seen  []uint32
	stamp uint32
	queue []int32
}

var reachBufs = sync.Pool{New: func() any { return new(reachScratch) }}

// reachesWithin reports whether from reaches to in the global graph over
// vertices of shard s only.
func (x *Sharded) reachesWithin(r *reachScratch, s int32, from, to int) bool {
	if from == to {
		return true
	}
	if n := len(x.shards[s].verts); len(r.seen) < n {
		r.seen = make([]uint32, n)
		r.stamp = 0
	}
	if r.stamp++; r.stamp == 0 { // wrapped: stale stamps could collide
		clear(r.seen)
		r.stamp = 1
	}
	_, lf := x.dir.locate(from)
	r.seen[lf] = r.stamp
	r.queue = append(r.queue[:0], int32(from))
	for head := 0; head < len(r.queue); head++ {
		for _, w := range x.g.Out(int(r.queue[head])) {
			if int(w) == to {
				return true
			}
			ws, lw := x.dir.locate(int(w))
			if ws != s || r.seen[lw] == r.stamp {
				continue
			}
			r.seen[lw] = r.stamp
			r.queue = append(r.queue, w)
		}
	}
	return false
}

// sameVerts reports whether two sorted-ascending vertex lists are equal.
func sameVerts(a, b []int32) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// runBatchTasks drains the tasks on a worker pool, heaviest first so the
// pool's tail stays short.
func (x *Sharded) runBatchTasks(tasks []*batchTask, workers int) {
	if len(tasks) == 0 {
		return
	}
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > len(tasks) {
		workers = len(tasks)
	}
	weight := func(t *batchTask) int { return 4*len(t.build) + len(t.ops) }
	sort.SliceStable(tasks, func(i, j int) bool { return weight(tasks[i]) > weight(tasks[j]) })
	if workers <= 1 {
		for _, t := range tasks {
			x.runBatchTask(t)
		}
		return
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= len(tasks) {
					return
				}
				x.runBatchTask(tasks[i])
			}
		}()
	}
	wg.Wait()
}

// runBatchTask executes one task: a fresh component build, or an ordered
// intra-shard update stream through the shard's own INCCNT/decremental
// maintenance. Each task touches only its own shard's sub-index (plus
// read-only global state), so tasks are data-race-free by construction;
// scratches go back to the shared pool so concurrent streams recycle a
// few allocations across the whole batch.
func (x *Sharded) runBatchTask(t *batchTask) {
	if t.build != nil {
		t.sh = buildShard(x.g, t.build, x.opts, false)
		t.st.EntriesAdded = t.sh.idx.EntryCount()
		t.st.Visited = len(t.build)
		t.st.TouchedOwners = touchAll(t.build)
		return
	}
	sh := t.sh
	defer sh.idx.eng.ReleaseScratch()
	for _, op := range t.ops {
		_, la := x.dir.locate(int(op.A))
		_, lb := x.dir.locate(int(op.B))
		var st pll.UpdateStats
		var err error
		if op.Kind == OpInsert {
			st, err = sh.idx.InsertEdge(int(la), int(lb))
		} else {
			st, err = sh.idx.DeleteEdge(int(la), int(lb))
		}
		if err != nil {
			t.err = err // unreachable short of corruption; caller self-heals
			return
		}
		x.translateOwners(sh, &st)
		accumulate(&t.st, st)
	}
}

// BatchRebuilds reports how many scoped component rebuilds ApplyBatch has
// performed — at most one per merged or split component per batch.
func (x *Sharded) BatchRebuilds() int { return x.batchRebuilds }
