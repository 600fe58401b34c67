package faultstore

import (
	"bytes"
	"context"
	"errors"
	"testing"
	"time"

	"repro/internal/bfscount"
	"repro/internal/csc"
	"repro/internal/engine"
	"repro/internal/graph"
)

// The shared crash-matrix workload: a deterministic script of single-op
// batches (FlushInterval < 0 plus a Flush per op makes every op exactly
// one WAL record) over a 10-vertex graph, with periodic snapshots every
// 3 batches and a final explicit one — so the run crosses every WAL
// append boundary and every snapshot boundary several times.
const workloadVerts = 10

type scriptOp struct {
	del  bool
	a, b int
}

func workloadScript() []scriptOp {
	return []scriptOp{
		{false, 0, 1}, {false, 1, 2}, {false, 2, 0}, // triangle
		{false, 2, 3}, {false, 3, 4}, {false, 4, 2}, // attached ring
		{false, 4, 5}, {false, 5, 6}, {false, 6, 4}, // second ring
		{del: true, a: 2, b: 0}, {false, 2, 0}, // flap the triangle edge
		{del: true, a: 3, b: 4},
		{false, 3, 0}, {false, 0, 3}, // 2-cycle
		{del: true, a: 5, b: 6},
	}
}

func bootstrap() (csc.Counter, error) {
	x, _ := csc.BuildSharded(graph.New(workloadVerts), csc.Options{})
	return x, nil
}

func workloadOpts() engine.Options {
	return engine.Options{FlushInterval: -1, SnapshotEvery: 3, UpdateWorkers: 1}
}

// runWorkload drives the script against dir through sio, ignoring every
// error past open (a crashed store makes the tail of the script fail by
// design) and closing the engine. Open failure (crash before the WAL
// header landed) is fine too: the script is simply skipped.
func runWorkload(dir string, sio engine.StoreIO) {
	e, err := engine.OpenIO(dir, sio, bootstrap, workloadOpts())
	if err != nil {
		return
	}
	for _, op := range workloadScript() {
		if op.del {
			_ = e.Delete(op.a, op.b)
		} else {
			_ = e.Insert(op.a, op.b)
		}
		e.Flush()
	}
	_ = e.Snapshot()
	_ = e.Close()
}

// oracleBytes serializes the index state after the first s script ops,
// built through the same engine batch path an undamaged run uses.
func oracleBytes(t *testing.T, s int) []byte {
	t.Helper()
	ix, err := bootstrap()
	if err != nil {
		t.Fatal(err)
	}
	e := engine.New(csc.AsSharded(ix), workloadOpts())
	defer e.Close()
	for _, op := range workloadScript()[:s] {
		if op.del {
			err = e.Delete(op.a, op.b)
		} else {
			err = e.Insert(op.a, op.b)
		}
		if err != nil {
			t.Fatalf("oracle op: %v", err)
		}
		e.Flush()
	}
	var buf bytes.Buffer
	if _, err := e.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// prefixGraph returns the edge set after the first s script ops.
func prefixGraph(t *testing.T, s int) *graph.Digraph {
	t.Helper()
	g := graph.New(workloadVerts)
	for _, op := range workloadScript()[:s] {
		var err error
		if op.del {
			err = g.RemoveEdge(op.a, op.b)
		} else {
			err = g.AddEdge(op.a, op.b)
		}
		if err != nil {
			t.Fatal(err)
		}
	}
	return g
}

// TestCrashPointMatrix crashes the durability path at every WAL
// append/sync/truncate and snapshot create/write/sync/rename boundary
// the workload crosses (plus torn-tail variants of every WAL record
// write), then recovers each wreck with the plain filesystem and
// asserts the recovered state is byte-identical to an oracle replay of
// some consistent prefix of the script.
func TestCrashPointMatrix(t *testing.T) {
	// Counting run: enumerate how often each point is hit.
	countDir := t.TempDir()
	counter := New()
	runWorkload(countDir, counter)
	if counter.Crashed() {
		t.Fatal("counting run crashed with no faults injected")
	}

	points := []Point{WALWrite, WALSync, WALTruncate, SnapCreate, SnapWrite, SnapSync, SnapRename}
	oracles := make(map[uint64][]byte)
	total := len(workloadScript())
	cases := 0
	for _, p := range points {
		hits := counter.Hits(p)
		if hits == 0 {
			t.Fatalf("workload never touched %s — the matrix has a hole", p)
		}
		for k := 1; k <= hits; k++ {
			faults := []Fault{{Point: p, Nth: k, Crash: true}}
			if p == WALWrite {
				// Also tear this write: land a 6-byte prefix (mid-record
				// for every record, mid-header for the 8-byte header)
				// before the crash.
				faults = append(faults, Fault{Point: p, Nth: k, Crash: true, TornBytes: 6})
			}
			for _, f := range faults {
				cases++
				dir := t.TempDir()
				fio := New()
				fio.Inject(f)
				runWorkload(dir, fio)

				e2, err := engine.Open(dir, bootstrap, workloadOpts())
				if err != nil {
					t.Fatalf("%s hit %d (torn=%d): recovery failed: %v", p, k, f.TornBytes, err)
				}
				s := e2.Seq()
				if s > uint64(total) {
					t.Fatalf("%s hit %d: recovered seq %d > %d ops attempted", p, k, s, total)
				}
				want := prefixGraph(t, int(s))
				got := e2.Index().Graph()
				if got.NumEdges() != want.NumEdges() {
					t.Fatalf("%s hit %d: recovered %d edges, prefix %d has %d",
						p, k, got.NumEdges(), s, want.NumEdges())
				}
				for _, eg := range want.Edges() {
					if !got.HasEdge(eg[0], eg[1]) {
						t.Fatalf("%s hit %d: recovered graph missing edge %v of prefix %d", p, k, eg, s)
					}
				}
				var buf bytes.Buffer
				if _, err := e2.WriteTo(&buf); err != nil {
					t.Fatal(err)
				}
				if _, ok := oracles[s]; !ok {
					oracles[s] = oracleBytes(t, int(s))
				}
				if !bytes.Equal(buf.Bytes(), oracles[s]) {
					t.Fatalf("%s hit %d (torn=%d): recovered index not byte-identical to oracle at prefix %d",
						p, k, f.TornBytes, s)
				}
				if err := e2.Close(); err != nil {
					t.Fatalf("%s hit %d: close after recovery: %v", p, k, err)
				}
			}
		}
	}
	t.Logf("crash matrix: %d crash cases recovered byte-identical", cases)
}

// A store whose fsync fails persistently must not kill the engine or
// let served state drift from the log: the engine retries with rollback
// (counted), then degrades to read-only — updates refused, reads fine —
// and a successful snapshot on a healed disk restores write service.
func TestPersistentWALFailureDegradesAndHeals(t *testing.T) {
	dir := t.TempDir()
	fio := New()
	opts := workloadOpts()
	opts.WALRetry = 2
	opts.SnapshotEvery = -1
	e, err := engine.OpenIO(dir, fio, bootstrap, opts)
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()

	if err := e.Insert(0, 1); err != nil {
		t.Fatal(err)
	}
	e.Flush()

	diskDead := errors.New("disk on fire")
	fio.Inject(Fault{Point: WALSync, Err: diskDead}) // sticky
	if err := e.Insert(1, 2); err != nil {
		t.Fatal(err) // the enqueue is accepted; the flush fails
	}
	e.Flush()

	if err := e.Err(); !errors.Is(err, diskDead) {
		t.Fatalf("Err = %v, want the injected disk error", err)
	}
	if !e.ReadOnly() {
		t.Fatal("persistent WAL failure did not degrade to read-only")
	}
	st := e.Stats()
	if st.WALRetries != 2 {
		t.Fatalf("WALRetries = %d, want 2", st.WALRetries)
	}
	if !st.ReadOnly {
		t.Fatal("Stats.ReadOnly false in read-only mode")
	}
	if e.Index().Graph().HasEdge(1, 2) {
		t.Fatal("dropped batch leaked into served state")
	}
	if err := e.Insert(2, 3); !errors.Is(err, engine.ErrReadOnly) {
		t.Fatalf("enqueue while read-only: err %v, want ErrReadOnly", err)
	}
	if l, _ := e.CycleCount(0); l != bfscount.NoCycle {
		t.Fatalf("read while read-only: length %d", l)
	}

	// Disk healed: one successful snapshot restores write service.
	fio.Clear()
	if err := e.Snapshot(); err != nil {
		t.Fatalf("healing snapshot: %v", err)
	}
	if e.ReadOnly() || e.Err() != nil {
		t.Fatalf("snapshot did not heal: readOnly=%v err=%v", e.ReadOnly(), e.Err())
	}
	for _, eg := range [][2]int{{1, 2}, {2, 0}} {
		if err := e.Insert(eg[0], eg[1]); err != nil {
			t.Fatalf("insert after heal: %v", err)
		}
	}
	e.Flush()
	if l, _ := e.CycleCount(0); l != 3 {
		t.Fatalf("triangle after heal: length %d, want 3", l)
	}
	if err := e.Close(); err != nil {
		t.Fatal(err)
	}

	// Recovery agrees with everything acknowledged after the heal.
	e2, err := engine.Open(dir, bootstrap, workloadOpts())
	if err != nil {
		t.Fatal(err)
	}
	defer e2.Close()
	if l, _ := e2.CycleCount(0); l != 3 {
		t.Fatalf("recovered triangle: length %d, want 3", l)
	}
}

// A wedged writer — stalled inside a slow fsync with the mailbox full —
// must not deadlock callers: InsertCtx returns when its deadline
// passes, and the overload is visible in /stats' counters.
func TestWedgedWriterBoundedEnqueue(t *testing.T) {
	dir := t.TempDir()
	fio := New()
	opts := workloadOpts()
	opts.MailboxSize = 1
	e, err := engine.OpenIO(dir, fio, bootstrap, opts)
	if err != nil {
		t.Fatal(err)
	}

	fio.Inject(Fault{Point: WALSync, Delay: 500 * time.Millisecond})
	if err := e.Insert(0, 1); err != nil { // writer picks this up and wedges
		t.Fatal(err)
	}
	time.Sleep(50 * time.Millisecond)
	if err := e.Insert(1, 2); err != nil { // fills the 1-slot mailbox
		t.Fatal(err)
	}

	ctx, cancel := context.WithTimeout(context.Background(), 100*time.Millisecond)
	defer cancel()
	startAt := time.Now()
	err = e.InsertCtx(ctx, 2, 0)
	elapsed := time.Since(startAt)
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("InsertCtx against wedged writer: err %v, want DeadlineExceeded", err)
	}
	if elapsed > 400*time.Millisecond {
		t.Fatalf("InsertCtx took %v — blocked on the wedged writer instead of its deadline", elapsed)
	}
	if got := e.Stats().OpsOverload; got != 1 {
		t.Fatalf("OpsOverload = %d, want 1", got)
	}

	fio.Clear() // un-wedge so close is fast
	e.Flush()
	if !e.Index().Graph().HasEdge(1, 2) {
		t.Fatal("mailed op lost after writer un-wedged")
	}
	if err := e.Close(); err != nil {
		t.Fatal(err)
	}
}
