package engine

import (
	"errors"
	"sync"
	"testing"

	"repro/internal/csc"
	"repro/internal/obs"
)

// recSink records every shipped batch and Close call.
type recSink struct {
	mu         sync.Mutex
	seqs       []uint64
	ops        [][]Op
	closes     int
	errOnClose error
}

func (s *recSink) ShipBatch(seq uint64, ops []Op) {
	s.mu.Lock()
	defer s.mu.Unlock()
	cp := make([]Op, len(ops))
	copy(cp, ops)
	s.seqs = append(s.seqs, seq)
	s.ops = append(s.ops, cp)
}

func (s *recSink) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.closes++
	return s.errOnClose
}

func (s *recSink) snapshot() ([]uint64, [][]Op) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return append([]uint64(nil), s.seqs...), append([][]Op(nil), s.ops...)
}

// Every committed batch reaches the sink exactly once, in sequence
// order, carrying the coalesced ops — and Close runs the sink's barrier
// exactly once, before the engine reports done.
func TestReplSinkReceivesCommittedBatches(t *testing.T) {
	dir := t.TempDir()
	sink := &recSink{}
	e, err := Open(dir, emptyIndex(6), Options{FlushInterval: -1, Replication: sink})
	if err != nil {
		t.Fatal(err)
	}

	batches := [][][2]int{{{0, 1}, {1, 0}}, {{1, 2}}, {{2, 0}}}
	for _, b := range batches {
		for _, p := range b {
			if err := e.Insert(p[0], p[1]); err != nil {
				t.Fatal(err)
			}
		}
		e.Flush()
	}

	seqs, ops := sink.snapshot()
	if len(seqs) == 0 {
		t.Fatal("no batches shipped")
	}
	for i := 1; i < len(seqs); i++ {
		if seqs[i] != seqs[i-1]+1 {
			t.Fatalf("shipped seqs not consecutive: %v", seqs)
		}
	}
	if seqs[len(seqs)-1] != e.Seq() {
		t.Fatalf("last shipped seq %d, engine at %d", seqs[len(seqs)-1], e.Seq())
	}
	var shippedOps int
	for _, b := range ops {
		shippedOps += len(b)
	}
	if want := int(e.Stats().OpsApplied); shippedOps != want {
		t.Fatalf("shipped %d ops, applied %d", shippedOps, want)
	}

	if err := e.Close(); err != nil {
		t.Fatal(err)
	}
	if sink.closes != 1 {
		t.Fatalf("sink closed %d times, want 1", sink.closes)
	}
}

// A batch the WAL could not persist is dropped, not shipped: the
// follower must never hold a record the primary's own recovery would
// lose.
func TestReplSinkSkipsDroppedBatches(t *testing.T) {
	dir := t.TempDir()
	sink := &recSink{}
	e, err := Open(dir, emptyIndex(6), Options{FlushInterval: -1, Replication: sink})
	if err != nil {
		t.Fatal(err)
	}
	if err := e.Insert(0, 1); err != nil {
		t.Fatal(err)
	}
	e.Flush()
	// Disk goes away: the next batch fails its WAL append and is dropped.
	if err := e.store.wal.Close(); err != nil {
		t.Fatal(err)
	}
	if err := e.Insert(1, 2); err != nil {
		t.Fatal(err)
	}
	e.Flush()
	if !e.ReadOnly() {
		t.Fatal("failed append did not enter read-only mode")
	}
	seqs, _ := sink.snapshot()
	if len(seqs) != 1 || seqs[0] != 1 {
		t.Fatalf("shipped seqs %v, want exactly [1]", seqs)
	}
	_ = e.Close() // store already broken; error expected
}

// A replication barrier that cannot deliver its backlog surfaces on
// Close — a clean shutdown must not silently abandon acked writes the
// follower never saw.
func TestReplSinkCloseErrorSurfaces(t *testing.T) {
	dir := t.TempDir()
	wantErr := errors.New("follower unreachable, 3 batches undelivered")
	sink := &recSink{errOnClose: wantErr}
	e, err := Open(dir, emptyIndex(4), Options{FlushInterval: -1, Replication: sink})
	if err != nil {
		t.Fatal(err)
	}
	if err := e.Insert(0, 1); err != nil {
		t.Fatal(err)
	}
	e.Flush()
	if err := e.Close(); !errors.Is(err, wantErr) {
		t.Fatalf("Close err %v, want the sink's barrier error", err)
	}
}

// The ship stage is observable: with metrics on, committed batches show
// a "ship" stage in the batch trace.
func TestReplShipStageTraced(t *testing.T) {
	sink := &recSink{}
	ix, err := emptyIndex(4)()
	if err != nil {
		t.Fatal(err)
	}
	e := New(csc.AsSharded(ix), Options{FlushInterval: -1, Replication: sink, Metrics: obs.New()})
	defer e.Close()
	if err := e.Insert(0, 1); err != nil {
		t.Fatal(err)
	}
	e.Flush()
	found := false
	for _, tr := range e.Traces() {
		for _, st := range tr.Stages {
			if st.Name == "ship" {
				found = true
			}
		}
	}
	if !found {
		t.Fatal("no ship stage in batch traces")
	}
}
