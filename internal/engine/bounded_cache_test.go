package engine

import (
	"testing"
	"time"

	"repro/internal/bfscount"
	"repro/internal/csc"
	"repro/internal/graph"
	"repro/internal/order"
	"repro/internal/partition"
	"repro/internal/testgraphs"
)

// TestBoundedReadCacheConsistency is the metamorphic regression for the
// bounded read path: a cache hit filters the cached unbounded answer
// against maxLen in O(1), a miss runs the bounded join kernel — the two
// paths must agree at every maxLen, whether it undercuts, equals, or
// exceeds the shortest cycle length. The cached engine is warmed with
// unbounded reads first so every bounded read hits; the fresh engine has
// no cache, so every bounded read goes through the kernel.
func TestBoundedReadCacheConsistency(t *testing.T) {
	graphs := []*graph.Digraph{
		testgraphs.Figure2(),
		testgraphs.DiamondCycles(),
		testgraphs.DAGHeavy(120, 360, 4, 3),
		randomGraph(40, 120, 5),
	}
	for gi, g := range graphs {
		x1, _ := csc.BuildSharded(g.Clone(), csc.Options{Workers: 1})
		x2, _ := csc.BuildSharded(g.Clone(), csc.Options{Workers: 1})
		cached := New(x1, Options{})
		fresh := New(x2, Options{NoCache: true})

		check := func(stage string) {
			t.Helper()
			n := cached.NumVertices()
			// Warm the cache so the bounded reads below are all hits.
			for v := 0; v < n; v++ {
				cached.CycleCount(v)
			}
			for v := 0; v < n; v++ {
				ul, _ := fresh.CycleCount(v)
				bounds := []int{-1, 0, 1, 2, 3, bfscount.NoCycle}
				if ul != bfscount.NoCycle {
					bounds = append(bounds, ul-1, ul, ul+1)
				}
				for _, maxLen := range bounds {
					cl, cc := cached.CycleCountBounded(v, maxLen)
					fl, fc := fresh.CycleCountBounded(v, maxLen)
					if cl != fl || cc != fc {
						t.Fatalf("graph %d %s: vertex %d maxLen %d: cached (%d,%d) vs fresh (%d,%d)",
							gi, stage, v, maxLen, cl, cc, fl, fc)
					}
				}
			}
		}
		check("built")

		// Mutations invalidate exactly the dirty vertices; the surviving
		// cache slots must keep agreeing with the kernel too.
		n := cached.NumVertices()
		steps := 0
		for u := 0; u < n && steps < 8; u++ {
			v := (u*7 + 3) % n
			if u == v || cached.Index().Graph().HasEdge(u, v) {
				continue
			}
			if err := cached.Insert(u, v); err != nil {
				t.Fatal(err)
			}
			if err := fresh.Insert(u, v); err != nil {
				t.Fatal(err)
			}
			steps++
		}
		cached.Flush()
		fresh.Flush()
		check("after updates")

		cached.Close()
		fresh.Close()
	}
}

// A compressed index served by the engine must refreeze thawed lists at
// writer quiesce, keep reporting a nonzero compressed footprint, and
// answer identically to an uncompressed engine throughout.
func TestEngineRefreezesCompressedLabels(t *testing.T) {
	g := testgraphs.DAGHeavy(150, 450, 4, 13)
	plain, _ := csc.BuildSharded(g.Clone(), csc.Options{Workers: 1})
	comp, _ := csc.BuildSharded(g.Clone(), csc.Options{Workers: 1, CompressLabels: true})
	pe := New(plain, Options{NoCache: true})
	ce := New(comp, Options{NoCache: true})
	defer pe.Close()
	defer ce.Close()

	if st := ce.Stats(); st.CompressedBytes == 0 {
		t.Fatal("compressed engine reports zero compressed bytes")
	}
	if st := pe.Stats(); st.CompressedBytes != 0 {
		t.Fatalf("uncompressed engine reports %d compressed bytes", st.CompressedBytes)
	}

	// Insert edges whose endpoints share an SCC: cross-shard inserts
	// trigger merge rebuilds (which freeze fresh arenas, thawing nothing),
	// while a within-SCC insert takes the incremental label update path
	// that thaws the touched lists — the case the quiesce hook exists for.
	// Candidate pairs come from the original graph, not the engine-owned
	// index, so nothing races the writer.
	n := ce.NumVertices()
	scc := make([]int, n)
	for i := range scc {
		scc[i] = -1
	}
	for ci, members := range partition.SCC(g).NonTrivial() {
		for _, v := range members {
			scc[v] = ci
		}
	}
	inserted := 0
	for u := 0; u < n && inserted < 6; u++ {
		for v := 0; v < n; v++ {
			if u == v || scc[u] < 0 || scc[u] != scc[v] || g.HasEdge(u, v) {
				continue
			}
			if err := ce.Insert(u, v); err != nil {
				t.Fatal(err)
			}
			if err := pe.Insert(u, v); err != nil {
				t.Fatal(err)
			}
			inserted++
			break
		}
	}
	if inserted == 0 {
		t.Fatal("no within-SCC edge available to insert")
	}
	ce.Flush()
	pe.Flush()

	// Flush drains the mailbox and hits the quiesce hook; updates on a
	// DAG-heavy graph touch at least one label list, so something must
	// have thawed and been folded back.
	deadline := time.Now().Add(2 * time.Second)
	for ce.Stats().LabelsRefrozen == 0 && time.Now().Before(deadline) {
		ce.Flush()
		time.Sleep(time.Millisecond)
	}
	if st := ce.Stats(); st.LabelsRefrozen == 0 {
		t.Fatal("no labels refrozen after updates and quiesce")
	}
	if st := ce.Stats(); st.CompressedBytes == 0 {
		t.Fatal("compressed bytes dropped to zero after refreeze")
	}

	for v := 0; v < n; v++ {
		pl, pc := pe.CycleCount(v)
		cl, cc := ce.CycleCount(v)
		if pl != cl || pc != cc {
			t.Fatalf("vertex %d: plain (%d,%d) vs compressed (%d,%d)", v, pl, pc, cl, cc)
		}
		for _, maxLen := range []int{1, 2, 3, pl} {
			pl2, pc2 := pe.CycleCountBounded(v, maxLen)
			cl2, cc2 := ce.CycleCountBounded(v, maxLen)
			if pl2 != cl2 || pc2 != cc2 {
				t.Fatalf("vertex %d maxLen %d: plain (%d,%d) vs compressed (%d,%d)",
					v, maxLen, pl2, pc2, cl2, cc2)
			}
		}
	}
}

// A compressed monolithic index reaches the engine through csc.AsSharded
// (the v1 load path), which must keep its labels compressed so the same
// quiesce hook refreezes them.
func TestEngineRefreezesMonolithic(t *testing.T) {
	g := testgraphs.GiantSCC(20, 70, 17)
	x, _ := csc.Build(g, order.ByDegree(g), csc.Options{CompressLabels: true})
	e := New(csc.AsSharded(x), Options{NoCache: true})
	defer e.Close()
	if st := e.Stats(); st.CompressedBytes == 0 {
		t.Fatal("re-sharded compressed monolithic index reports zero compressed bytes")
	}
	n := e.NumVertices()
insert:
	for u := 0; u < n; u++ {
		for v := 0; v < n; v++ {
			if u != v && !e.Index().Graph().HasEdge(u, v) {
				if err := e.Insert(u, v); err != nil {
					t.Fatal(err)
				}
				break insert
			}
		}
	}
	e.Flush()
	deadline := time.Now().Add(2 * time.Second)
	for e.Stats().LabelsRefrozen == 0 && time.Now().Before(deadline) {
		e.Flush()
		time.Sleep(time.Millisecond)
	}
	if st := e.Stats(); st.LabelsRefrozen == 0 {
		t.Fatal("no labels refrozen on the re-sharded monolithic index")
	}
}
