package engine

import (
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/bfscount"
	"repro/internal/csc"
	"repro/internal/graph"
	"repro/internal/partition"
	"repro/internal/testgraphs"
)

// twoSixRings builds ring A over 0..5 and ring B over 6..11, plus the
// given extra edges — two shards when built sharded.
func twoSixRings(t *testing.T, extra ...[2]int) *graph.Digraph {
	t.Helper()
	g := graph.New(12)
	for k := 0; k < 6; k++ {
		if err := g.AddEdge(k, (k+1)%6); err != nil {
			t.Fatal(err)
		}
		if err := g.AddEdge(6+k, 6+(k+1)%6); err != nil {
			t.Fatal(err)
		}
	}
	for _, e := range extra {
		if err := g.AddEdge(e[0], e[1]); err != nil {
			t.Fatal(err)
		}
	}
	return g
}

// TestStructuralRebuildReadStress (run with -race): reader goroutines
// hammer every vertex while a batch writer toggles random edges through
// a giant SCC and, each round, a bridge pair that merges a 10-ring into
// it or splits it off again. Every merge and split rebuilds its
// component inline under the grace period, so the readers race batches
// that retire and install shards. Readers must never observe a torn
// answer, and after every round the answers equal the BFS oracle on a
// sequentially maintained copy of the graph and the shard table is
// exactly that graph's partition into non-trivial SCCs. The read cache
// is off so every read joins the labels being rebuilt.
func TestStructuralRebuildReadStress(t *testing.T) {
	if testing.Short() {
		t.Skip("rebuild stress is not -short")
	}
	const (
		n       = 40 // giant SCC 0..n-1; the ring is n..n+ring-1
		m       = 120
		ring    = 10
		readers = 4
		rounds  = 6
	)
	giant := testgraphs.GiantSCC(n, m, 9)
	g := graph.New(n + ring)
	for u := 0; u < n; u++ {
		for _, v := range giant.Out(u) {
			_ = g.AddEdge(u, int(v))
		}
	}
	for k := 0; k < ring; k++ {
		_ = g.AddEdge(n+k, n+(k+1)%ring)
	}
	x, _ := csc.BuildSharded(g.Clone(), csc.Options{})
	e := New(x, Options{FlushInterval: -1, UpdateWorkers: 1, NoCache: true})
	defer e.Close()
	og := g.Clone() // the oracle's graph, moved op by op

	var stop atomic.Bool
	var wg sync.WaitGroup
	for rdr := 0; rdr < readers; rdr++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			r := rand.New(rand.NewSource(seed))
			for !stop.Load() {
				v := r.Intn(n + ring)
				l, c := e.CycleCount(v)
				// Torn-read screen: every vertex lies on some cycle (the
				// giant SCC's or the ring's), whichever epoch answers.
				if l == 0 || (l > 0 && c == 0) {
					t.Errorf("reader saw impossible answer (%d,%d) for %d", l, c, v)
					return
				}
				if r.Intn(16) == 0 {
					e.Stats()
				}
			}
		}(int64(2000 + rdr))
	}

	apply := func(kind OpKind, u, v int) {
		if err := e.Enqueue(Op{Kind: kind, A: int32(u), B: int32(v)}); err != nil {
			t.Fatal(err)
		}
		var err error
		if kind == OpInsert {
			err = og.AddEdge(u, v)
		} else {
			err = og.RemoveEdge(u, v)
		}
		if err != nil && err != graph.ErrDuplicateEdge && err != graph.ErrMissingEdge {
			t.Fatal(err)
		}
	}
	r := rand.New(rand.NewSource(13))
	for round := 0; round < rounds; round++ {
		// Random churn through the giant shard, mirrored to the oracle.
		for i := 0; i < 10; i++ {
			u, v := r.Intn(n), r.Intn(n)
			if u == v {
				continue
			}
			kind := OpInsert
			if r.Intn(2) == 0 {
				kind = OpDelete
			}
			apply(kind, u, v)
		}
		// The bridge pair: even rounds merge the ring in, odd rounds
		// split it off.
		bridge := OpInsert
		if round%2 == 1 {
			bridge = OpDelete
		}
		apply(bridge, 0, n)
		apply(bridge, n, 0)
		e.Flush()
		ix := e.Index()
		if !graph.Equal(ix.Graph(), og) {
			t.Fatalf("round %d: engine graph diverged from oracle", round)
		}
		assertShardsArePartition(t, round, ix, og)
		for v := 0; v < n+ring; v++ {
			gl, gc := e.CycleCount(v)
			wl, wc := bfscount.CycleCount(og, v)
			if gl != wl || gc != wc {
				t.Fatalf("round %d vertex %d: engine (%d,%d), oracle (%d,%d)", round, v, gl, gc, wl, wc)
			}
		}
	}
	stop.Store(true)
	wg.Wait()
	if st := e.Stats(); st.OpsRejected != 0 {
		t.Fatalf("writer rejected %d ops", st.OpsRejected)
	}
	merges, splits := e.Index().Rebuilds()
	if merges == 0 || splits == 0 {
		t.Fatalf("%d merge and %d split rebuilds: the stress never crossed both kinds", merges, splits)
	}
	t.Logf("%d merges, %d splits, %d component builds", merges, splits, e.Index().BatchRebuilds())
}

// assertShardsArePartition checks that the index serves exactly one
// shard per non-trivial SCC of g, holding its members, and no shard for
// a trivial vertex.
func assertShardsArePartition(t *testing.T, round int, ix *csc.Sharded, g *graph.Digraph) {
	t.Helper()
	p := partition.SCC(g)
	slotComp := make(map[int]int32)
	compSlot := make(map[int32]int)
	for v := 0; v < g.NumVertices(); v++ {
		c := p.Comp[v]
		s := ix.ShardOf(v)
		if len(p.Comps[c]) < 2 {
			if s >= 0 {
				t.Fatalf("round %d: trivial vertex %d is served by shard %d", round, v, s)
			}
			continue
		}
		if s < 0 {
			t.Fatalf("round %d: vertex %d of a %d-vertex SCC has no shard", round, v, len(p.Comps[c]))
		}
		if prev, ok := slotComp[s]; ok && prev != c {
			t.Fatalf("round %d: shard %d spans two SCCs (vertex %d, SCC of %d vertices)", round, s, v, len(p.Comps[c]))
		}
		if prev, ok := compSlot[c]; ok && prev != s {
			t.Fatalf("round %d: the SCC of vertex %d is split over shards %d and %d", round, v, prev, s)
		}
		slotComp[s], compSlot[c] = c, s
	}
	if got, want := ix.NumShards(), len(slotComp); got != want {
		t.Fatalf("round %d: %d shards for %d non-trivial SCCs", round, got, want)
	}
}
