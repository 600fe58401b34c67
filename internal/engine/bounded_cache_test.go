package engine

import (
	"testing"

	"repro/internal/bfscount"
	"repro/internal/csc"
	"repro/internal/graph"
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

// An engine serving an mmap'd v3 file's label arenas answers like one
// over a fresh build of the same graph, before and after writes: a
// written shard decodes its arena into memory, so the compressed
// footprint shrinks by the written shards and stays nonzero for the
// rest.
func TestEngineWritesFileArenaIndex(t *testing.T) {
	loaded, err := csc.ReadFile("../csc/testdata/v3_dag_heavy.csc", true)
	if err != nil {
		t.Fatal(err)
	}
	comp := csc.AsSharded(loaded)
	g := comp.Graph().Clone()
	plain, _ := csc.BuildSharded(g.Clone(), csc.Options{Workers: 1})
	pe := New(plain, Options{NoCache: true})
	ce := New(comp, Options{NoCache: true})
	defer pe.Close()
	defer ce.Close()

	before := ce.Stats().CompressedBytes
	if before == 0 {
		t.Fatal("file-arena engine reports zero compressed bytes")
	}
	if st := pe.Stats(); st.CompressedBytes != 0 {
		t.Fatalf("engine over a fresh build reports %d compressed bytes", st.CompressedBytes)
	}

	// Insert one edge inside the first component: the incremental label
	// update path, which decodes that shard's arena.
	n := ce.NumVertices()
	members := partition.SCC(g).NonTrivial()[0]
	u, v := int(members[0]), -1
	for _, w := range members[1:] {
		if !g.HasEdge(u, int(w)) {
			v = int(w)
			break
		}
	}
	if v < 0 {
		t.Fatal("no within-SCC edge available to insert")
	}
	for _, e := range []*Engine{ce, pe} {
		if err := e.Insert(u, v); err != nil {
			t.Fatal(err)
		}
		e.Flush()
	}
	if after := ce.Stats().CompressedBytes; after == 0 || after >= before {
		t.Fatalf("compressed bytes %d -> %d after writing one of several shards", before, after)
	}

	for v := 0; v < n; v++ {
		pl, pc := pe.CycleCount(v)
		cl, cc := ce.CycleCount(v)
		if pl != cl || pc != cc {
			t.Fatalf("vertex %d: fresh build (%d,%d) vs file arena (%d,%d)", v, pl, pc, cl, cc)
		}
		for _, maxLen := range []int{1, 2, 3, pl} {
			pl2, pc2 := pe.CycleCountBounded(v, maxLen)
			cl2, cc2 := ce.CycleCountBounded(v, maxLen)
			if pl2 != cl2 || pc2 != cc2 {
				t.Fatalf("vertex %d maxLen %d: fresh build (%d,%d) vs file arena (%d,%d)",
					v, maxLen, pl2, pc2, cl2, cc2)
			}
		}
	}
}
