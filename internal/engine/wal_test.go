package engine

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/csc"
	"repro/internal/graph"
)

func emptyIndex(n int) func() (csc.Counter, error) {
	return func() (csc.Counter, error) {
		x, _ := csc.BuildSharded(graph.New(n), csc.Options{})
		return x, nil
	}
}

func TestStoreRoundTrip(t *testing.T) {
	dir := t.TempDir()
	s, err := OpenStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	ix, seq, err := s.Recover(emptyIndex(5))
	if err != nil {
		t.Fatal(err)
	}
	if seq != 0 {
		t.Fatalf("fresh store seq %d", seq)
	}
	batches := [][]Op{
		{{OpInsert, 0, 1}, {OpInsert, 1, 2}},
		{{OpInsert, 2, 0}},
		{{OpDelete, 1, 2}, {OpInsert, 1, 3}},
	}
	for i, b := range batches {
		if err := s.Append(uint64(i+1), b); err != nil {
			t.Fatal(err)
		}
		if _, err := applyBatch(ix, b); err != nil {
			t.Fatal(err)
		}
	}
	s.Close()

	s2, err := OpenStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	ix2, seq2, err := s2.Recover(emptyIndex(5))
	if err != nil {
		t.Fatal(err)
	}
	if seq2 != 3 {
		t.Fatalf("recovered seq %d, want 3", seq2)
	}
	if !graph.Equal(ix.Graph(), ix2.Graph()) {
		t.Fatal("recovered graph differs")
	}
	assertLabelsEqual(t, ix, ix2)
}

// applyBatch applies ops one at a time to a recovered (always sharded)
// index.
func applyBatch(c csc.Counter, b []Op) (int, error) {
	ix := csc.AsSharded(c)
	for _, op := range b {
		var err error
		if op.Kind == OpInsert {
			_, err = ix.InsertEdge(int(op.A), int(op.B))
		} else {
			_, err = ix.DeleteEdge(int(op.A), int(op.B))
		}
		if err != nil {
			return 0, err
		}
	}
	return len(b), nil
}

// assertLabelsEqual asserts byte-identical serialized state (graph,
// ordering and every label list — for either index form).
func assertLabelsEqual(t *testing.T, a, b csc.Counter) {
	t.Helper()
	var ba, bb bytes.Buffer
	if _, err := a.WriteTo(&ba); err != nil {
		t.Fatal(err)
	}
	if _, err := b.WriteTo(&bb); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(ba.Bytes(), bb.Bytes()) {
		t.Fatalf("serialized state differs: %d vs %d bytes", ba.Len(), bb.Len())
	}
}

// Torn tail: a crash mid-append must lose only the torn record.
func TestStoreTruncatedTail(t *testing.T) {
	dir := t.TempDir()
	s, err := OpenStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := s.Recover(emptyIndex(4)); err != nil {
		t.Fatal(err)
	}
	if err := s.Append(1, []Op{{OpInsert, 0, 1}}); err != nil {
		t.Fatal(err)
	}
	if err := s.Append(2, []Op{{OpInsert, 1, 2}}); err != nil {
		t.Fatal(err)
	}
	s.Close()

	walPath := filepath.Join(dir, walFile)
	data, err := os.ReadFile(walPath)
	if err != nil {
		t.Fatal(err)
	}
	for cut := len(data) - 1; cut > len(data)-recordFixed-opBytes; cut-- {
		if err := os.WriteFile(walPath, data[:cut], 0o644); err != nil {
			t.Fatal(err)
		}
		s2, err := OpenStore(dir)
		if err != nil {
			t.Fatal(err)
		}
		ix, seq, err := s2.Recover(emptyIndex(4))
		if err != nil {
			t.Fatalf("cut %d: %v", cut, err)
		}
		if seq != 1 {
			t.Fatalf("cut %d: recovered seq %d, want 1 (torn second record)", cut, seq)
		}
		if !ix.Graph().HasEdge(0, 1) || ix.Graph().HasEdge(1, 2) {
			t.Fatalf("cut %d: wrong recovered graph", cut)
		}
		// The repaired WAL must accept appends again.
		if err := s2.Append(2, []Op{{OpInsert, 1, 2}}); err != nil {
			t.Fatal(err)
		}
		s2.Close()
	}
}

// A flipped byte in a record's payload fails the CRC and truncates from
// that record on.
func TestStoreCorruptRecord(t *testing.T) {
	dir := t.TempDir()
	s, _ := OpenStore(dir)
	if _, _, err := s.Recover(emptyIndex(4)); err != nil {
		t.Fatal(err)
	}
	_ = s.Append(1, []Op{{OpInsert, 0, 1}})
	_ = s.Append(2, []Op{{OpInsert, 1, 2}})
	s.Close()

	walPath := filepath.Join(dir, walFile)
	data, _ := os.ReadFile(walPath)
	// Flip a byte inside the first record's ops.
	data[walHeaderLen+13] ^= 0xff
	_ = os.WriteFile(walPath, data, 0o644)

	s2, _ := OpenStore(dir)
	defer s2.Close()
	ix, seq, err := s2.Recover(emptyIndex(4))
	if err != nil {
		t.Fatal(err)
	}
	if seq != 0 || ix.Graph().NumEdges() != 0 {
		t.Fatalf("corrupt first record should truncate everything: seq %d, edges %d",
			seq, ix.Graph().NumEdges())
	}
}

// A foreign file where the WAL should be must fail loudly, not be wiped.
func TestStoreForeignWAL(t *testing.T) {
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, walFile), []byte("not a wal at all"), 0o644); err != nil {
		t.Fatal(err)
	}
	s, err := OpenStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if _, _, err := s.Recover(emptyIndex(4)); err == nil {
		t.Fatal("foreign WAL recovered silently")
	}
}

// Snapshot rotation: the WAL truncates, and recovery from
// snapshot+later-records equals the live state.
func TestStoreSnapshotRotation(t *testing.T) {
	dir := t.TempDir()
	s, _ := OpenStore(dir)
	ix, _, err := s.Recover(emptyIndex(6))
	if err != nil {
		t.Fatal(err)
	}
	_ = s.Append(1, []Op{{OpInsert, 0, 1}, {OpInsert, 1, 0}})
	_, _ = applyBatch(ix, []Op{{OpInsert, 0, 1}, {OpInsert, 1, 0}})
	before := s.WALBytes()
	if err := s.WriteSnapshot(1, ix); err != nil {
		t.Fatal(err)
	}
	if s.WALBytes() >= before {
		t.Fatalf("WAL did not truncate: %d -> %d", before, s.WALBytes())
	}
	_ = s.Append(2, []Op{{OpInsert, 2, 3}})
	_, _ = applyBatch(ix, []Op{{OpInsert, 2, 3}})
	s.Close()

	s2, _ := OpenStore(dir)
	defer s2.Close()
	ix2, seq, err := s2.Recover(nil) // snapshot present: bootstrap not needed
	if err != nil {
		t.Fatal(err)
	}
	if seq != 2 {
		t.Fatalf("seq %d, want 2", seq)
	}
	if !graph.Equal(ix.Graph(), ix2.Graph()) {
		t.Fatal("recovered graph differs after rotation")
	}
	assertLabelsEqual(t, ix, ix2)
}

// Stale WAL records below the snapshot seq (crash between snapshot
// rename and WAL truncation) are skipped.
func TestStoreStaleRecordsSkipped(t *testing.T) {
	dir := t.TempDir()
	s, _ := OpenStore(dir)
	ix, _, err := s.Recover(emptyIndex(4))
	if err != nil {
		t.Fatal(err)
	}
	_ = s.Append(1, []Op{{OpInsert, 0, 1}})
	_, _ = applyBatch(ix, []Op{{OpInsert, 0, 1}})
	// Snapshot without the truncation half (simulated crash): write the
	// snapshot file directly.
	walData, _ := os.ReadFile(filepath.Join(dir, walFile))
	if err := s.WriteSnapshot(1, ix); err != nil {
		t.Fatal(err)
	}
	// Restore the pre-truncation WAL, as if truncation never happened.
	if err := os.WriteFile(filepath.Join(dir, walFile), walData, 0o644); err != nil {
		t.Fatal(err)
	}
	s.Close()

	s2, _ := OpenStore(dir)
	defer s2.Close()
	ix2, seq, err := s2.Recover(nil)
	if err != nil {
		t.Fatal(err)
	}
	if seq != 1 {
		t.Fatalf("seq %d, want 1", seq)
	}
	if !graph.Equal(ix.Graph(), ix2.Graph()) {
		t.Fatal("stale replay diverged")
	}
}

// Two processes (or two engines) must never share a store directory:
// the second open fails instead of interleaving WAL writes.
func TestStoreLockExclusive(t *testing.T) {
	dir := t.TempDir()
	s, err := OpenStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := OpenStore(dir); err == nil {
		t.Fatal("second OpenStore on a held store succeeded")
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	s2, err := OpenStore(dir)
	if err != nil {
		t.Fatalf("reopen after close: %v", err)
	}
	s2.Close()
}

func TestStoreEmptyNoBootstrap(t *testing.T) {
	s, _ := OpenStore(t.TempDir())
	defer s.Close()
	if _, _, err := s.Recover(nil); err == nil {
		t.Fatal("empty store without bootstrap must error")
	}
}

func TestDecodeRecordBounds(t *testing.T) {
	// A record claiming a huge op count must not allocate.
	var buf bytes.Buffer
	buf.Write(make([]byte, 8))                // seq
	buf.Write([]byte{0xff, 0xff, 0xff, 0xff}) // count = 2^32-1
	buf.Write(make([]byte, 64))               // some bytes
	if _, _, ok := decodeRecord(buf.Bytes()); ok {
		t.Fatal("absurd op count decoded")
	}
}

// Replay must reject a WAL record holding an unknown op kind as
// corruption instead of normalizing it into an insert — regression pin
// for the batch-replay path, which converts ops before validation.
func TestReplayRejectsUnknownOpKind(t *testing.T) {
	dir := t.TempDir()
	s, err := OpenStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := s.Recover(emptyIndex(4)); err != nil {
		t.Fatal(err)
	}
	if err := s.Append(1, []Op{{Kind: 7, A: 0, B: 1}}); err != nil {
		t.Fatal(err)
	}
	s.Close()

	s2, err := OpenStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	if _, _, err := s2.Recover(emptyIndex(4)); err == nil {
		t.Fatal("recovery accepted a WAL record with an unknown op kind")
	} else if g := s2.Close(); g != nil && g != err {
		t.Logf("close after failed recover: %v", g)
	}
}
