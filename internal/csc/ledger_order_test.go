package csc

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"runtime"
	"testing"

	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/order"
)

// servedLedger composes the 102,000-vertex payment ledger cyclebench
// serves (bench/ledger.go, scale "medium"): a 100,000-account
// transaction network with planted rings, plus a separate 2,000-vertex
// power-law core at ids [100000, 102000), added one edge at a time in
// the same order so the adjacency lists, and with them the coverage
// order's sampled cycles, match the served graph.
func servedLedger() *graph.Digraph {
	const bgN, coreN = 100000, 2000
	g := gen.TransactionNetwork(bgN, 110000, 200, 4, 4, 1).G
	core := gen.PowerLaw(gen.Config{N: coreN, M: 40000, Seed: 2}, 2.0, 1.9)
	for range coreN {
		g.AddVertex()
	}
	for u := range coreN {
		for _, v := range core.Out(u) {
			_ = g.AddEdge(bgN+u, bgN+int(v))
		}
	}
	return g
}

// The evidence behind cscd's default -order coverage: on the ledger the
// daemon serves, coverage at the daemon's default seed 0 stores 13.9%
// fewer label entries than the paper's degree order. Both counts are
// exact (orders are pure functions of graph, strategy and seed), so a
// change to either order, to the ledger's generators or to construction
// shows here before it moves cyclebench's index_bytes (8 B per entry).
func TestServedLedgerOrderEntries(t *testing.T) {
	if testing.Short() {
		t.Skip("builds the 102,000-vertex ledger twice")
	}
	g := servedLedger()
	for _, c := range []struct {
		strat   order.Strategy
		entries int
	}{
		{order.Degree, 1184570},
		{order.Coverage, 1019777},
	} {
		x, _ := BuildSharded(g.Clone(), Options{Order: c.strat})
		if got := x.EntryCount(); got != c.entries {
			t.Errorf("%s: %d label entries on the ledger, want %d", c.strat, got, c.entries)
		}
		if c.strat == order.Coverage {
			assertLedgerStore(t, x)
			var buf bytes.Buffer
			if _, err := x.WriteTo(&buf); err != nil {
				t.Fatal(err)
			}
			sum := sha256.Sum256(buf.Bytes())
			if got := hex.EncodeToString(sum[:]); got != ledgerSnapshotDigest {
				t.Errorf("the ledger's v2 snapshot sha256 = %s, want %s", got, ledgerSnapshotDigest)
			}
		}
	}
}

// ledgerSnapshotDigest is the sha256 of the coverage-order ledger build's
// v2 snapshot (WriteTo, 10,032,234 B): it carries every label list and
// both orders, so a construction change that moves any entry of the
// served index shows here.
const ledgerSnapshotDigest = "7471944d5b426c0f965ba3e75ebf149beb4df930ab0e5795048c8f2eb6f999a7"

// ledgerResidentBytes is what the coverage-order ledger build's label
// store holds: the delta+varint arenas of every reduced shard, offset
// tables included. The same stored lists at 8 B per entry take
// 4,047,616 B (ReducedBytes).
const ledgerResidentBytes = 1967916

// assertLedgerStore pins the served ledger's label store: exactly
// ledgerResidentBytes, and at most half of ReducedBytes, the stored
// lists at 8 B per entry.
func assertLedgerStore(t *testing.T, x *Sharded) {
	t.Helper()
	got, reduced := x.ResidentBytes(), x.ReducedBytes()
	t.Logf("label store %d B, %d B of stored entries at 8 B, %d B logical", got, reduced, x.Bytes())
	if got != ledgerResidentBytes {
		t.Errorf("the ledger's label store holds %d B, want %d", got, ledgerResidentBytes)
	}
	if 2*got > reduced {
		t.Errorf("the ledger's label store holds %d B, more than half of the %d B of its stored entries", got, reduced)
	}
}

// ledgerLiveHeapBudget bounds the live heap the coverage-order ledger
// build retains beyond its global graph: the frozen label stores
// (1,967,916 B), the shards' member lists and headers, and the vertex
// directory (about 85 KB). It is the 2,357,472 B measured when lean
// shards dropped their induced subgraphs and the directory replaced two
// n-sized routing tables, plus 10%. Keeping either costs about 0.5 or
// 0.8 MB more; a build whose unwritten shards kept their list headers
// and Gb conversions held about 2 MB more again.
const ledgerLiveHeapBudget = 2_593_000

// TestServedLedgerLiveHeap pins what the served ledger's index holds
// once built: every shard is lean and holds no subgraph, and the heap
// retained by the build, after collection, stays within
// ledgerLiveHeapBudget.
func TestServedLedgerLiveHeap(t *testing.T) {
	if testing.Short() {
		t.Skip("builds the 102,000-vertex ledger")
	}
	if raceEnabled {
		t.Skip("the race detector changes heap accounting")
	}
	g := servedLedger()
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	x, _ := BuildSharded(g, Options{Order: order.Coverage})
	runtime.GC()
	runtime.GC()
	runtime.ReadMemStats(&after)
	retained := int64(after.HeapAlloc) - int64(before.HeapAlloc)
	subgraphs := 0
	for _, sh := range x.shards {
		if sh != nil && sh.idx.g != nil {
			subgraphs += sh.idx.g.Bytes()
		}
	}
	t.Logf("the ledger build retains %d B of live heap (%d shards, label store %d B, graphs %d B, directory %d B, shard subgraphs %d B)",
		retained, x.NumShards(), x.ResidentBytes(), x.GraphBytes(), x.dir.bytes(), subgraphs)
	assertLean(t, "ledger build", x)
	if subgraphs != 0 {
		t.Errorf("lean shards hold %d B of induced subgraphs", subgraphs)
	}
	if retained > ledgerLiveHeapBudget {
		t.Errorf("the ledger build retains %d B of live heap, budget %d B", retained, ledgerLiveHeapBudget)
	}
	runtime.KeepAlive(x)
}

// ledgerWrittenHeapBudget bounds the heap the served ledger's index
// retains after its first repair pair, one delete and re-insert of a
// core edge: the boot build's lean shards plus the written core in
// couple form — its subgraph and its two stored lists decoded into one
// slab of plain slices — in place of the core's frozen store. It is the
// 4,482,016 B measured when writes took the couple form, plus 10%; the
// generic engine's write form (the core's four lists in one slab, and
// its Gb) retained 7,471,136 B.
const ledgerWrittenHeapBudget = 4_930_000

// TestWrittenLedgerLiveHeap pins the written form's heap: after the first
// repair pair, the core shard is reduced and holds no Gb (GraphBytes
// counts the served graph and its subgraph only), every other shard is
// still lean, and the retained heap stays within
// ledgerWrittenHeapBudget.
func TestWrittenLedgerLiveHeap(t *testing.T) {
	if testing.Short() {
		t.Skip("builds the 102,000-vertex ledger")
	}
	if raceEnabled {
		t.Skip("the race detector changes heap accounting")
	}
	g := servedLedger()
	e := ledgerRepairPool(g)[0]
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	x, _ := BuildSharded(g, Options{Order: order.Coverage})
	for _, op := range []EdgeOp{Del(e[0], e[1]), Ins(e[0], e[1])} {
		if _, err := x.ApplyBatch([]EdgeOp{op}, 1); err != nil {
			t.Fatal(err)
		}
	}
	runtime.GC()
	runtime.GC()
	runtime.ReadMemStats(&after)
	retained := int64(after.HeapAlloc) - int64(before.HeapAlloc)
	core := x.shards[x.ShardOf(ledgerCoreLo)]
	t.Logf("after the first repair pair the ledger index retains %d B of live heap (label store %d B, core %d B for %d stored entries, graphs %d B, core subgraph %d B)",
		retained, x.ResidentBytes(), core.idx.ResidentBytes(), storedEntries(core.idx.eng), x.GraphBytes(), core.idx.g.Bytes())
	if e := core.idx.eng; !e.Reduced() || e.Lean() || e.G != nil {
		t.Errorf("written core: reduced %v, lean %v, Gb %v; want its couple form", e.Reduced(), e.Lean(), e.G != nil)
	}
	if got, want := x.GraphBytes(), x.g.Bytes()+core.idx.g.Bytes(); got != want {
		t.Errorf("GraphBytes %d, want the served graph and the core's subgraph, %d B", got, want)
	}
	for slot, sh := range x.liveShards() {
		if sh != core && !sh.idx.eng.Lean() {
			t.Errorf("shard %d, which no op wrote, is not lean", slot)
		}
	}
	if retained > ledgerWrittenHeapBudget {
		t.Errorf("the written ledger retains %d B of live heap, budget %d B", retained, ledgerWrittenHeapBudget)
	}
	runtime.KeepAlive(x)
}
