package csc

import (
	"slices"
	"testing"

	"repro/internal/graph"
	"repro/internal/testgraphs"
)

// A batch deleting one chord of a GiantSCC shard leaves the ring, so the
// chord's tail still reaches its head: the shard keeps its slot, nothing
// rebuilds, and the repaired labels answer like the BFS oracle.
func TestSplitCheckKeepsShardOnNonBridgeDelete(t *testing.T) {
	const n = 60
	g := testgraphs.GiantSCC(n, 200, 4)
	x, _ := BuildSharded(g, Options{})
	var a, b int
	for a = 0; ; a++ {
		if i := slices.IndexFunc(x.g.Out(a), func(w int32) bool { return int(w) != (a+1)%n }); i >= 0 {
			b = int(x.g.Out(a)[i])
			break
		}
	}
	slot := x.ShardOf(a)
	shardOf := x.ShardMap()
	if _, err := x.ApplyBatch([]EdgeOp{Del(a, b)}, 1); err != nil {
		t.Fatal(err)
	}
	if x.BatchRebuilds() != 0 || x.splits != 0 {
		t.Fatalf("non-bridge delete (%d,%d) rebuilt: %d rebuilds, %d splits", a, b, x.BatchRebuilds(), x.splits)
	}
	if !slices.Equal(x.ShardMap(), shardOf) || x.shards[slot] == nil {
		t.Fatalf("non-bridge delete (%d,%d) moved the shard off slot %d", a, b, slot)
	}
	assertStreamState(t, x, "after non-bridge delete")
}

// twoRingsDoublyLinked is ring 0→1→2→3→0 and ring 4→5→6→7→4 joined by
// two forward links 0→4 and 2→6 and one back link 5→1: one SCC, where
// deleting either forward link alone leaves its tail reaching its head
// through the other, and deleting both disconnects the rings.
func twoRingsDoublyLinked(t *testing.T) *graph.Digraph {
	t.Helper()
	pairs := []int32{0, 1, 1, 2, 2, 3, 3, 0, 4, 5, 5, 6, 6, 7, 7, 4, 0, 4, 2, 6, 5, 1}
	g, err := graph.FromPairs(8, pairs)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func TestSplitCheckPairwiseDisconnectingBatch(t *testing.T) {
	for _, e := range [][2]int{{0, 4}, {2, 6}} {
		x, _ := BuildSharded(twoRingsDoublyLinked(t), Options{})
		if _, err := x.ApplyBatch([]EdgeOp{Del(e[0], e[1])}, 1); err != nil {
			t.Fatal(err)
		}
		if x.BatchRebuilds() != 0 {
			t.Fatalf("deleting %v alone split the shard", e)
		}
		assertStreamState(t, x, "single link deleted")
	}

	x, _ := BuildSharded(twoRingsDoublyLinked(t), Options{})
	if _, err := x.ApplyBatch([]EdgeOp{Del(0, 4), Del(2, 6)}, 1); err != nil {
		t.Fatal(err)
	}
	if x.splits != 1 || x.BatchRebuilds() != 2 {
		t.Fatalf("both links deleted: %d splits, %d rebuilds; want 1 split into 2 rings", x.splits, x.BatchRebuilds())
	}
	assertStreamState(t, x, "both links deleted")

	fresh, _ := BuildSharded(x.g.Clone(), Options{})
	if got, want := directoryTable(x), directoryTable(fresh); !slices.Equal(got, want) {
		t.Fatalf("directory %v, fresh build %v", got, want)
	}
	got, want := x.liveShards(), fresh.liveShards()
	if len(got) != len(want) {
		t.Fatalf("%d shards, fresh build %d", len(got), len(want))
	}
	for i := range got {
		if !slices.Equal(got[i].verts, want[i].verts) {
			t.Fatalf("shard %d members %v, fresh build %v", i, got[i].verts, want[i].verts)
		}
		fresh.subgraph(want[i]) // a lean shard expands from it
		assertEngineLabelsEqual(t, 0, i, "split shard vs fresh build", got[i].idx, want[i].idx)
	}
}
