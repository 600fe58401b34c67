package csc

import (
	"bytes"
	"testing"

	"repro/internal/bfscount"
	"repro/internal/graph"
	"repro/internal/order"
	"repro/internal/testgraphs"
)

// assertLean fails unless every live shard of x is lean: reduced, its
// stored lists in the frozen store, and neither list headers, a Gb nor
// an induced subgraph.
func assertLean(t *testing.T, stage string, x *Sharded) {
	t.Helper()
	for slot, sh := range x.shards {
		if sh == nil {
			continue
		}
		if e := sh.idx.eng; !e.Lean() || e.In != nil || e.Out != nil || e.G != nil || sh.idx.g != nil {
			t.Fatalf("%s: shard %d: lean %v, headers %v, Gb %v, subgraph %v; want only the frozen store",
				stage, slot, e.Lean(), e.In != nil, e.G != nil, sh.idx.g != nil)
		}
	}
}

// assertOracle checks every vertex of x against the BFS oracle.
func assertOracle(t *testing.T, stage string, x *Sharded) {
	t.Helper()
	for v := 0; v < x.Graph().NumVertices(); v++ {
		wl, wc := bfscount.CycleCount(x.Graph(), v)
		if l, c := x.CycleCount(v); l != wl || c != wc {
			t.Fatalf("%s: SCCnt(%d) = (%d,%d), oracle (%d,%d)", stage, v, l, c, wl, wc)
		}
	}
}

// A boot build and a v2 reload leave every shard lean; a write to one
// shard gives that shard alone its couple form (its subgraph, headers,
// its two stored lists as plain slices, no Gb), and every step answers like the oracle and writes the same
// snapshot bytes as the unwritten index would.
func TestShardsStayLeanUntilWritten(t *testing.T) {
	// Three disjoint cycles: 0→1→2→0, 3→4→5→3 and 6→7→6.
	g, err := graph.FromPairs(8, []int32{0, 1, 1, 2, 2, 0, 3, 4, 4, 5, 5, 3, 6, 7, 7, 6})
	if err != nil {
		t.Fatal(err)
	}
	x, _ := BuildSharded(g, Options{Order: order.Coverage})
	assertLean(t, "boot", x)
	assertOracle(t, "boot", x)
	if x.NumShards() != 3 {
		t.Fatalf("%d shards, want 3", x.NumShards())
	}

	var file bytes.Buffer
	if _, err := x.WriteTo(&file); err != nil {
		t.Fatal(err)
	}
	loaded, err := Read(bytes.NewReader(file.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	y := loaded.(*Sharded)
	assertLean(t, "v2 reload", y)
	assertOracle(t, "v2 reload", y)
	var again bytes.Buffer
	if _, err := y.WriteTo(&again); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(again.Bytes(), file.Bytes()) {
		t.Fatal("a lean reload writes different v2 bytes")
	}

	// 0→2 is a chord inside the first cycle's shard: only that shard
	// takes its write form.
	written := y.shards[y.ShardOf(0)]
	if _, err := y.ApplyBatch([]EdgeOp{Ins(0, 2)}, 1); err != nil {
		t.Fatal(err)
	}
	assertOracle(t, "intra-shard insert", y)
	for slot, sh := range y.shards {
		e := sh.idx.eng
		if sh != written {
			if !e.Lean() || e.G != nil {
				t.Fatalf("shard %d, which no write touched, lost its lean state", slot)
			}
			continue
		}
		if e.Lean() || !e.Reduced() || e.G != nil || len(e.In) != 2*len(sh.verts) || sh.idx.g == nil {
			t.Fatalf("written shard %d: lean %v, reduced %v, Gb %v, %d in-lists, subgraph %v; want its couple form",
				slot, e.Lean(), e.Reduced(), e.G != nil, len(e.In), sh.idx.g != nil)
		}
	}
	if got, sub := y.GraphBytes(), written.idx.g.Bytes(); got != y.g.Bytes()+sub {
		t.Fatalf("GraphBytes %d after the write: want the served graph's %d B and the written shard's subgraph (%d B), no Gb", got, y.g.Bytes(), sub)
	}
}

// A read of a lean shard allocates nothing: the join reads sections of
// the frozen store through by-value views.
func TestLeanReadAllocatesNothing(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector allocates on its own")
	}
	g := testgraphs.GiantSCC(300, 1200, 7)
	x, _ := BuildSharded(g, Options{})
	assertLean(t, "boot", x)
	v := 0
	for ; v < g.NumVertices(); v++ {
		if l, _ := x.CycleCount(v); l != bfscount.NoCycle {
			break
		}
	}
	if v == g.NumVertices() {
		t.Fatal("no cyclic vertex")
	}
	if a := testing.AllocsPerRun(100, func() { x.CycleCount(v) }); a != 0 {
		t.Fatalf("CycleCount on a lean shard allocates %v times per read", a)
	}
	if a := testing.AllocsPerRun(100, func() { x.CycleCountBounded(v, 5) }); a != 0 {
		t.Fatalf("CycleCountBounded on a lean shard allocates %v times per read", a)
	}
}
