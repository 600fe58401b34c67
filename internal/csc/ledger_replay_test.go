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

// ledgerOracleCheck returns the replays' check: every cyclic vertex of
// mirror, the graph x must index, answers like the BFS oracle, every
// other vertex answers no cycle, and the drift of x's entry count from a
// fresh build of mirror is logged.
func ledgerOracleCheck(t *testing.T, x *Sharded, mirror *graph.Digraph, opts Options) func(ops int) {
	var oracle bfscount.Counter
	return func(ops int) {
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
}

// TestLedgerRepairReplay replays cyclebench's repair workload in process
// on the ledger cscd serves: every edge of the repair pool is deleted and
// re-inserted through ApplyBatch on the coverage-order build. Every 30
// ops every cyclic vertex is checked against the BFS oracle on a mirror
// graph, and every other vertex must answer no cycle. The first delete
// gives the lean 1,979-vertex core shard its couple form (its two stored
// lists decoded into plain slices, its subgraph, no Gb), which every
// later write keeps; every other shard stays lean throughout. The drift of the maintained
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
	core := x.shards[x.ShardOf(ledgerCoreLo)]
	if len(core.verts) != 1979 {
		t.Fatalf("the core shard holds %d vertices, want 1979", len(core.verts))
	}
	assertLean(t, "boot", x)

	check := ledgerOracleCheck(t, x, mirror, opts)

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
				if e := core.idx.eng; !e.Reduced() || e.FrozenArena() != nil || e.G != nil || core.idx.g == nil {
					t.Fatal("the first delete did not give the core shard its couple form: two stored lists of plain slices over its subgraph, no Gb")
				}
			}
			if ops%30 == 0 {
				check(ops)
			}
		}
	}
	if m, s := x.Rebuilds(); m != 0 || s != 0 || x.shards[x.ShardOf(ledgerCoreLo)] != core {
		t.Fatalf("non-bridge repairs rebuilt shards: %d merges, %d splits", m, s)
	}
	for slot, sh := range x.liveShards() {
		if e := sh.idx.eng; sh != core && !e.Lean() {
			t.Fatalf("shard %d, which no op wrote, is no longer lean", slot)
		}
	}
	t.Logf("replayed %d ops in %v; label store %d B", ops, time.Since(start).Round(time.Millisecond), x.ResidentBytes())
}

// ledgerBgLo and ledgerBgHi bound the served ledger's background
// accounts, the vertices cyclebench's txn-stream writes to: the planted
// criminals and their rings come first (bench/ledger.go).
const ledgerBgLo, ledgerBgHi = 200 * (1 + 4*(4-1)), ledgerCoreLo

// ledgerTxnStream generates cyclebench's txn-stream transactions for run
// seed as bench/ledger.go's txnGen does: each inserts a new random
// background edge and deletes the oldest background edge, the initial
// ones in seeded order first, so the edge count holds steady.
type ledgerTxnStream struct {
	g    *graph.Digraph
	fifo [][2]int
	r    *rand.Rand
}

func newLedgerTxnStream(g *graph.Digraph, seed int64) *ledgerTxnStream {
	var bg [][2]int
	for u := ledgerBgLo; u < ledgerBgHi; u++ {
		for _, v := range g.Out(u) {
			bg = append(bg, [2]int{u, int(v)})
		}
	}
	rand.New(rand.NewSource(seed+2)).Shuffle(len(bg), func(i, j int) { bg[i], bg[j] = bg[j], bg[i] })
	return &ledgerTxnStream{g: g.Clone(), fifo: bg, r: rand.New(rand.NewSource(seed + 6))}
}

func (s *ledgerTxnStream) next() (ins, del [2]int) {
	for {
		u := ledgerBgLo + s.r.Intn(ledgerBgHi-ledgerBgLo)
		v := ledgerBgLo + s.r.Intn(ledgerBgHi-ledgerBgLo)
		if s.g.AddEdge(u, v) == nil {
			ins = [2]int{u, v}
			break
		}
	}
	s.fifo = append(s.fifo, ins)
	del, s.fifo = s.fifo[0], s.fifo[1:]
	_ = s.g.RemoveEdge(del[0], del[1])
	return ins, del
}

// TestLedgerTxnReplay replays a slice of cyclebench's txn-stream
// workload in process on the ledger cscd serves: background
// insert+delete transactions, one ApplyBatch each, on the coverage-order
// build. The slice merges into and splits the 3,616-vertex background
// component, so components rebuild at ledger scale, and later
// transactions write inside those rebuilt shards in couple form, which
// keeps them reduced. (Its writes never land inside an unwritten boot shard: every
// boot shard they touch is retired by a rebuild. TestLedgerRepairReplay
// covers a lean shard's first write.) Every 40 ops every cyclic vertex
// is checked against the BFS oracle on a mirror graph, and every other
// vertex must answer no cycle; the drift of the maintained labeling's
// entry count from a fresh build is logged. (Checked every 80 ops, a
// planted split that kept the parent's labels for one survivor went
// unseen until op 400: a merge retired the first stale shard before the
// next check.)
func TestLedgerTxnReplay(t *testing.T) {
	if testing.Short() {
		t.Skip("builds the 102,000-vertex ledger and replays 400 writes")
	}
	if raceEnabled {
		t.Skip("the race detector slows the replay past its budget")
	}
	const pairs, checkEvery = 200, 40
	start := time.Now()
	mirror := servedLedger()
	stream := newLedgerTxnStream(mirror, 1)
	opts := Options{Order: order.Coverage}
	x, _ := BuildSharded(mirror.Clone(), opts)
	big := -1
	for _, sh := range x.liveShards() {
		if len(sh.verts) == 3616 {
			big = int(sh.verts[0])
		}
	}
	if big < 0 {
		t.Fatal("the ledger has no 3,616-vertex component")
	}
	assertLean(t, "boot", x)
	check := ledgerOracleCheck(t, x, mirror, opts)
	bigShard := func() *shard {
		if s := x.ShardOf(big); s >= 0 {
			return x.shards[s]
		}
		return nil
	}
	size := func(sh *shard) int {
		if sh == nil {
			return 0
		}
		return len(sh.verts)
	}

	check(0)
	ops, merged, split, written := 0, 0, 0, 0
	for range pairs {
		ins, del := stream.next()
		sh := bigShard()
		// A rebuild on the write path is never frozen; a write confined
		// to it runs in couple form and keeps it reduced.
		rebuilt := sh != nil && sh.idx.eng.FrozenArena() == nil
		inside := func(e [2]int) bool {
			return sh != nil && x.ShardOf(e[0]) == x.ShardOf(big) && x.ShardOf(e[1]) == x.ShardOf(big)
		}
		before, intra := size(sh), inside(ins) || inside(del)
		if _, err := x.ApplyBatch([]EdgeOp{Ins(ins[0], ins[1]), Del(del[0], del[1])}, 1); err != nil {
			t.Fatalf("op %d: %v", ops, err)
		}
		_ = mirror.AddEdge(ins[0], ins[1])
		_ = mirror.RemoveEdge(del[0], del[1])
		switch now := bigShard(); {
		case before >= 3000 && size(now) > before:
			merged++
		case before >= 3000 && size(now) < before:
			split++
		case now == sh && rebuilt && intra:
			if e := now.idx.eng; !e.Reduced() || e.G != nil {
				t.Fatalf("op %d: a write left the rebuilt large component reduced %v, holding a Gb %v", ops, e.Reduced(), e.G != nil)
			}
			written++ // a write inside a rebuilt component
		}
		if ops += 2; ops%checkEvery == 0 {
			check(ops)
		}
	}
	t.Logf("replayed %d ops in %v: %d merges into and %d splits of the large component, %d couple-form writes inside a rebuild of it, %d component rebuilds",
		ops, time.Since(start).Round(time.Millisecond), merged, split, written, x.BatchRebuilds())
	if merged == 0 || split == 0 || written == 0 {
		t.Fatalf("the slice did not exercise the write paths: %d merges, %d splits, %d writes inside a rebuilt large component", merged, split, written)
	}
}
