package engine

import (
	"testing"

	"repro/internal/csc"
	"repro/internal/graph"
	"repro/internal/order"
)

// Regression pin for mailbox coalescing: the net effect of a batch must
// be computed against the live graph state, never within-batch only. The
// dangerous case is an insert+delete pair of the same edge when the edge
// pre-existed — within-batch-only cancellation would drop the pair to a
// no-op and leave the deleted edge's labels alive; the correct net effect
// is a single delete.
func TestCoalesceNetEffectAgainstLiveGraph(t *testing.T) {
	pair := func(kinds ...OpKind) []Op {
		var ops []Op
		for _, k := range kinds {
			ops = append(ops, Op{Kind: k, A: 0, B: 1})
		}
		return ops
	}
	cases := []struct {
		name     string
		preExist bool
		pending  []Op
		want     []Op // net batch coalesce must emit
	}{
		{"insert+delete of pre-existing edge nets to delete", true,
			pair(OpInsert, OpDelete), pair(OpDelete)},
		{"delete+insert of pre-existing edge nets to nothing", true,
			pair(OpDelete, OpInsert), nil},
		{"insert+delete of absent edge nets to nothing", false,
			pair(OpInsert, OpDelete), nil},
		{"delete+insert of absent edge nets to insert", false,
			pair(OpDelete, OpInsert), pair(OpInsert)},
		{"insert+delete+insert of pre-existing edge nets to nothing", true,
			pair(OpInsert, OpDelete, OpInsert), nil},
		{"delete+insert+delete of pre-existing edge nets to delete", true,
			pair(OpDelete, OpInsert, OpDelete), pair(OpDelete)},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			g := graph.New(3)
			if tc.preExist {
				_ = g.AddEdge(0, 1)
			}
			_ = g.AddEdge(1, 2)
			_ = g.AddEdge(2, 0)
			ix, _ := csc.BuildSharded(g, csc.Options{})
			e := New(ix, Options{FlushInterval: -1})
			defer e.Close()
			e.pending = append(e.pending, tc.pending...)
			got := e.coalesce()
			if len(got) != len(tc.want) {
				t.Fatalf("coalesce emitted %v, want %v", got, tc.want)
			}
			for i := range got {
				if got[i] != tc.want[i] {
					t.Fatalf("coalesce emitted %v, want %v", got, tc.want)
				}
			}
		})
	}
}

// End-to-end pin: an insert+delete pair of a pre-existing edge, enqueued
// into one batch, must actually delete the edge — the engine's answers
// and graph must match an oracle that applied the pair sequentially.
func TestCoalescePreexistingPairAppliesDelete(t *testing.T) {
	g := graph.New(3)
	_ = g.AddEdge(0, 1)
	_ = g.AddEdge(1, 2)
	_ = g.AddEdge(2, 0)
	ix, _ := csc.BuildSharded(g.Clone(), csc.Options{})
	ox, _ := csc.Build(g, order.ByDegree(g), csc.Options{})

	// A long flush interval parks the writer until Flush, so both ops
	// land in the same drained batch.
	e := New(ix, Options{FlushInterval: 1 << 30})
	defer e.Close()
	if err := e.Insert(0, 1); err != nil {
		t.Fatal(err)
	}
	if err := e.Delete(0, 1); err != nil {
		t.Fatal(err)
	}
	e.Flush()

	if _, err := ox.InsertEdge(0, 1); err != graph.ErrDuplicateEdge {
		t.Fatalf("oracle insert: %v", err)
	}
	if _, err := ox.DeleteEdge(0, 1); err != nil {
		t.Fatal(err)
	}
	if e.Index().Graph().HasEdge(0, 1) {
		t.Fatal("edge survived an insert+delete pair over a pre-existing edge")
	}
	for v := 0; v < 3; v++ {
		gl, gc := e.CycleCount(v)
		wl, wc := ox.CycleCount(v)
		if gl != wl || gc != wc {
			t.Fatalf("vertex %d: engine (%d,%d), oracle (%d,%d)", v, gl, gc, wl, wc)
		}
	}
	st := e.Stats()
	if st.OpsApplied != 1 || st.OpsCoalesced != 1 {
		t.Fatalf("applied %d / coalesced %d, want 1 / 1", st.OpsApplied, st.OpsCoalesced)
	}
}
