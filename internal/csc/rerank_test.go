package csc

import (
	"testing"

	"repro/internal/bfscount"
	"repro/internal/order"
	"repro/internal/partition"
	"repro/internal/testgraphs"
)

// queryAll drives every vertex through the hit-counting join path.
func queryAll(x *Sharded) {
	for v := 0; v < x.g.NumVertices(); v++ {
		x.CycleCount(v)
	}
}

func TestShardDriftAndHitCounters(t *testing.T) {
	g := testgraphs.GiantSCC(30, 90, 9)
	x, _ := BuildSharded(g.Clone(), Options{Workers: 1})

	// Before counters: no drift signal.
	if _, _, ok := x.ShardDrift(0); ok {
		t.Fatal("drift reported before counters enabled")
	}
	x.EnableHitCounters()
	if d, hits, ok := x.ShardDrift(0); !ok || hits != 0 || d != 0 {
		t.Fatalf("fresh counters: drift=%v hits=%d ok=%v", d, hits, ok)
	}
	queryAll(x)
	d, hits, ok := x.ShardDrift(0)
	if !ok || hits == 0 {
		t.Fatalf("no hits recorded: drift=%v hits=%d ok=%v", d, hits, ok)
	}
	// A chorded giant SCC answers from many distinct hubs, so the
	// hit-weighted mean rank sits strictly inside (0,1).
	if d <= 0 || d >= 1 {
		t.Fatalf("drift %v outside (0,1)", d)
	}
	// Dead/out-of-range slots answer not-ok.
	if _, _, ok := x.ShardDrift(-1); ok {
		t.Fatal("negative slot ok")
	}
	if _, _, ok := x.ShardDrift(99); ok {
		t.Fatal("out-of-range slot ok")
	}
}

// ReorderShardByHits must rebuild the shard under the hit-weighted order
// through the out-of-band path with answers exactly preserved — the
// graph never changed — and tag the swapped shard's provenance as Hits.
func TestReorderShardByHitsPreservesAnswers(t *testing.T) {
	g := testgraphs.GiantSCC(30, 90, 9)
	x, _ := BuildSharded(g.Clone(), Options{Workers: 1})
	oracleL, oracleC := bfscount.AllCycleCounts(g)

	if _, err := x.ReorderShardByHits(0); err == nil {
		t.Fatal("re-rank accepted without counters")
	}
	x.EnableHitCounters()
	if _, err := x.ReorderShardByHits(0); err == nil {
		t.Fatal("re-rank accepted with zero hits")
	}
	queryAll(x)

	reb, err := x.ReorderShardByHits(0)
	if err != nil {
		t.Fatal(err)
	}
	// Frozen window: the shard still serves exact answers (nothing about
	// the graph changed), and a second re-rank is refused while the first
	// is pending.
	for v := range oracleL {
		if l, c := x.CycleCount(v); l != oracleL[v] || c != oracleC[v] {
			t.Fatalf("frozen vertex %d: (%d,%d), oracle (%d,%d)", v, l, c, oracleL[v], oracleC[v])
		}
	}
	if _, err := x.ReorderShardByHits(0); err == nil {
		t.Fatal("second re-rank accepted while one is pending")
	}
	if len(x.StaleShards()) != 1 {
		t.Fatalf("StaleShards = %v, want one frozen slot", x.StaleShards())
	}

	reb.Run(1)
	if _, installed := x.CompleteRebuild(reb); !installed {
		t.Fatal("re-rank rebuild not installed")
	}
	for v := range oracleL {
		if l, c := x.CycleCount(v); l != oracleL[v] || c != oracleC[v] {
			t.Fatalf("post-swap vertex %d: (%d,%d), oracle (%d,%d)", v, l, c, oracleL[v], oracleC[v])
		}
	}
	st := x.ShardStats()
	if len(st) != 1 || st[0].Order != order.Hits {
		t.Fatalf("swapped shard stats %+v, want Order=hits", st)
	}
	if len(x.StaleShards()) != 0 {
		t.Fatalf("StaleShards = %v after swap", x.StaleShards())
	}
	// The fresh shard starts with counters off; re-enabling works.
	if _, _, ok := x.ShardDrift(0); ok {
		t.Fatal("swapped-in shard kept old counters")
	}
	x.EnableHitCounters()
	queryAll(x)
	if _, hits, ok := x.ShardDrift(0); !ok || hits == 0 {
		t.Fatal("re-enabled counters record nothing")
	}
}

func TestReorderShardValidation(t *testing.T) {
	g := testgraphs.GiantSCC(20, 60, 9)
	x, _ := BuildSharded(g, Options{Workers: 1})
	sub := partition.Induced(x.g, x.liveShards()[0].verts)

	if _, err := x.ReorderShard(5, order.ByDegree(sub), order.Degree); err == nil {
		t.Fatal("bad slot accepted")
	}
	short, _ := order.FromVertexList([]int{1, 0})
	if _, err := x.ReorderShard(0, short, order.Degree); err == nil {
		t.Fatal("wrong-length order accepted")
	}
	reb, err := x.ReorderShard(0, order.ByRandom(sub.NumVertices(), 3), order.Random)
	if err != nil {
		t.Fatal(err)
	}
	reb.Run(1)
	if _, installed := x.CompleteRebuild(reb); !installed {
		t.Fatal("explicit-order rebuild not installed")
	}
	if st := x.ShardStats(); st[0].Order != order.Random {
		t.Fatalf("shard order tag %s, want random", st[0].Order)
	}
	// The random order changed label shape, never answers.
	for v := 0; v < g.NumVertices(); v++ {
		wl, wc := bfscount.CycleCount(x.Graph(), v)
		if l, c := x.CycleCount(v); l != wl || c != wc {
			t.Fatalf("vertex %d: (%d,%d), oracle (%d,%d)", v, l, c, wl, wc)
		}
	}
}

// A structural batch arriving while a re-rank deferral is pending must
// win: the re-rank dissolves into (or is superseded by) the structural
// rebuild, and the final index reflects the batch.
func TestReRankSupersededByStructuralBatch(t *testing.T) {
	g := testgraphs.GiantSCC(24, 72, 9)
	x, _ := BuildSharded(g.Clone(), Options{Workers: 1})
	x.EnableHitCounters()
	queryAll(x)

	if _, err := x.ReorderShardByHits(0); err != nil {
		t.Fatal(err)
	}
	// Never run the re-rank: a structural edge toggle on the frozen shard
	// lands first, through the deferral-aware path.
	var ops []EdgeOp
	u := 0
	for v := 2; v < g.NumVertices(); v++ {
		if !g.HasEdge(u, v) {
			ops = append(ops, Ins(u, v))
			break
		}
	}
	if len(ops) == 0 {
		t.Fatal("no insertable edge found")
	}
	_, pending, err := x.ApplyBatchDeferred(ops, 1, 4)
	if err != nil {
		t.Fatal(err)
	}
	if pending != nil {
		pending.Run(1)
		if _, installed := x.CompleteRebuild(pending); !installed {
			t.Fatal("superseding rebuild not installed")
		}
	}
	for v := 0; v < g.NumVertices(); v++ {
		wl, wc := bfscount.CycleCount(x.Graph(), v)
		if l, c := x.CycleCount(v); l != wl || c != wc {
			t.Fatalf("vertex %d after supersession: (%d,%d), oracle (%d,%d)", v, l, c, wl, wc)
		}
	}
	if len(x.StaleShards()) != 0 {
		t.Fatalf("StaleShards = %v after structural batch resolved", x.StaleShards())
	}
}
