package csc

import (
	"math/rand"
	"testing"
	"time"

	"repro/internal/bfscount"
	"repro/internal/graph"
	"repro/internal/order"
	"repro/internal/partition"
)

// ledgerCoreLo is the first vertex of the served ledger's dense core.
const ledgerCoreLo = 100000

// ledgerRepairPool derives cyclebench's repair pool as bench/ledger.go
// does: the core's edges in adjacency order, shuffled with the graph
// seed 1, keeping the first 120 whose tail still reaches their head
// without them, so deleting one never splits a component.
func ledgerRepairPool(g *graph.Digraph) [][2]int {
	var core [][2]int
	for u := ledgerCoreLo; u < g.NumVertices(); u++ {
		for _, v := range g.Out(u) {
			core = append(core, [2]int{u, int(v)})
		}
	}
	rand.New(rand.NewSource(1)).Shuffle(len(core), func(i, j int) { core[i], core[j] = core[j], core[i] })
	comp := partition.SCC(g)
	var pool [][2]int
	for _, e := range core {
		if len(pool) == 120 {
			break
		}
		if comp.Comp[e[0]] == comp.Comp[e[1]] && partition.ReachableSkip(g, e[0], e[1], e[0], e[1]) {
			pool = append(pool, e)
		}
	}
	return pool
}

// TestLedgerRepairReplay replays cyclebench's repair workload in process
// on the ledger cscd serves: every edge of the repair pool is deleted and
// re-inserted through ApplyBatch on the coverage-order build. Every 30
// ops every cyclic vertex is checked against the BFS oracle on a mirror
// graph, and every other vertex must answer no cycle. The first delete
// expands the reduced, frozen 1,979-vertex core shard; every other shard
// stays reduced and frozen throughout. The drift of the maintained
// labeling's entry count from a fresh build of the same graph is logged.
func TestLedgerRepairReplay(t *testing.T) {
	if testing.Short() {
		t.Skip("builds the 102,000-vertex ledger and replays 240 label writes")
	}
	if raceEnabled {
		t.Skip("the race detector slows the replay past its budget")
	}
	start := time.Now()
	mirror := servedLedger()
	pool := ledgerRepairPool(mirror)
	if len(pool) != 120 {
		t.Fatalf("repair pool holds %d edges, want 120", len(pool))
	}
	opts := Options{Order: order.Coverage}
	x, _ := BuildSharded(mirror.Clone(), opts)
	core := x.shards[x.shardOf[ledgerCoreLo]]
	if len(core.verts) != 1979 {
		t.Fatalf("the core shard holds %d vertices, want 1979", len(core.verts))
	}
	for slot, sh := range x.liveShards() {
		if e := sh.idx.eng; !e.Reduced() || e.FrozenArena() == nil {
			t.Fatalf("shard %d is not reduced and frozen after the build", slot)
		}
	}

	var oracle bfscount.Counter
	check := func(ops int) {
		t.Helper()
		cyclic := make([]bool, mirror.NumVertices())
		checked := 0
		for _, comp := range partition.SCC(mirror).NonTrivial() {
			for _, v := range comp {
				cyclic[v] = true
				wl, wc := oracle.CycleCount(mirror, int(v))
				if l, c := x.CycleCount(int(v)); l != wl || c != wc {
					t.Fatalf("after %d ops: SCCnt(%d) = (%d,%d), oracle (%d,%d)", ops, v, l, c, wl, wc)
				}
				checked++
			}
		}
		for v, cyc := range cyclic {
			if l, c := x.CycleCount(v); !cyc && (l != bfscount.NoCycle || c != 0) {
				t.Fatalf("after %d ops: acyclic vertex %d answers (%d,%d)", ops, v, l, c)
			}
		}
		fresh, _ := BuildSharded(mirror.Clone(), opts)
		t.Logf("after %3d ops: %d cyclic vertices match the oracle; label entries %d, fresh build %d (drift %+d)",
			ops, checked, x.EntryCount(), fresh.EntryCount(), x.EntryCount()-fresh.EntryCount())
	}

	check(0)
	ops := 0
	for _, e := range pool {
		for _, op := range []EdgeOp{Del(e[0], e[1]), Ins(e[0], e[1])} {
			if _, err := x.ApplyBatch([]EdgeOp{op}, 1); err != nil {
				t.Fatalf("op %d %v: %v", ops, op, err)
			}
			if op.Kind == OpInsert {
				_ = mirror.AddEdge(e[0], e[1])
			} else {
				_ = mirror.RemoveEdge(e[0], e[1])
			}
			if ops++; ops == 1 {
				if e := core.idx.eng; e.Reduced() || e.FrozenArena() != nil {
					t.Fatal("the first delete did not expand the core shard")
				}
			}
			if ops%30 == 0 {
				check(ops)
			}
		}
	}
	if m, s := x.Rebuilds(); m != 0 || s != 0 || x.shards[x.shardOf[ledgerCoreLo]] != core {
		t.Fatalf("non-bridge repairs rebuilt shards: %d merges, %d splits", m, s)
	}
	for slot, sh := range x.liveShards() {
		if e := sh.idx.eng; sh != core && (!e.Reduced() || e.FrozenArena() == nil) {
			t.Fatalf("shard %d, which no op wrote, is no longer reduced and frozen", slot)
		}
	}
	t.Logf("replayed %d ops in %v; label store %d B", ops, time.Since(start).Round(time.Millisecond), x.ResidentBytes())
}
