package dist

import (
	"errors"
	"fmt"
	"sync"

	"repro/internal/bfscount"
	"repro/internal/csc"
	"repro/internal/engine"
	"repro/internal/obs"
)

// ErrPromoted is returned by replication appends after the follower was
// promoted: the stream is severed, and a zombie primary that keeps
// shipping must learn its records are no longer being accepted.
var ErrPromoted = errors.New("dist: follower promoted, replication stream severed")

// ErrPromoting is returned while a promotion's replay-to-tip is still
// running.
var ErrPromoting = errors.New("dist: promotion in progress")

// FollowerOptions configures OpenFollower.
type FollowerOptions struct {
	// SnapshotEvery writes a follower snapshot after that many applied
	// records (default 256; negative disables). Frequent snapshots keep
	// the promotion replay short — promotion is replay-to-tip, so the
	// snapshot cadence bounds the failover blackout window.
	SnapshotEvery int
	// Metrics registers the cscd_repl_follower_* families (nil: none).
	Metrics *obs.Registry
}

// Follower is the receiving end of WAL shipping: it owns a store
// directory of its own, appends every shipped record to its local WAL
// before replaying it into an in-memory index, snapshots periodically,
// and serves flagged stale reads meanwhile. Promote closes the store and
// reopens the directory through engine.Open — the existing recovery path
// (snapshot + WAL replay, torn-tail repair included) brings the new
// engine to the follower's durable tip.
type Follower struct {
	dir       string
	bootstrap func() (csc.Counter, error)
	opts      FollowerOptions

	mu        sync.RWMutex
	st        *engine.Store
	ix        *csc.Sharded
	n         int
	seq       uint64
	sinceSnap int
	promoting bool
	promoted  bool
	eng       *engine.Engine

	applied *obs.Counter // records replayed
	appends *obs.Counter // /repl/append requests accepted
	skipped *obs.Counter // duplicate records skipped (idempotent re-ships)
	snaps   *obs.Counter
}

// OpenFollower opens (or recovers) a follower over its own store
// directory. bootstrap must be deterministic and produce the same
// initial index as the primary's bootstrap — the shipped WAL records are
// deltas against it. It is retained for promotion, where engine.Open
// replays the follower's durable state through the same function.
func OpenFollower(dir string, bootstrap func() (csc.Counter, error), opts FollowerOptions) (*Follower, error) {
	if opts.SnapshotEvery == 0 {
		opts.SnapshotEvery = 256
	}
	st, err := engine.OpenStore(dir)
	if err != nil {
		return nil, err
	}
	c, seq, err := st.Recover(bootstrap)
	if err != nil {
		st.Close()
		return nil, err
	}
	ix := csc.AsSharded(c)
	f := &Follower{
		dir: dir, bootstrap: bootstrap, opts: opts,
		st: st, ix: ix, n: ix.Graph().NumVertices(), seq: seq,
		applied: &obs.Counter{}, appends: &obs.Counter{},
		skipped: &obs.Counter{}, snaps: &obs.Counter{},
	}
	if reg := opts.Metrics; reg != nil {
		reg.GaugeFunc("cscd_repl_follower_seq", "sequence number the follower has replayed through", func() float64 {
			return float64(f.Seq())
		})
		reg.GaugeFunc("cscd_repl_follower_promoted", "1 after this follower was promoted to primary", func() float64 {
			if f.Promoted() {
				return 1
			}
			return 0
		})
		reg.CounterFunc("cscd_repl_records_applied_total", "shipped WAL records replayed into the follower index", f.applied.Load)
		reg.CounterFunc("cscd_repl_records_skipped_total", "duplicate shipped records skipped (idempotent re-delivery)", f.skipped.Load)
		reg.CounterFunc("cscd_repl_appends_total", "replication append requests accepted", f.appends.Load)
		reg.CounterFunc("cscd_repl_follower_snapshots_total", "follower snapshots written", f.snaps.Load)
	}
	return f, nil
}

// Seq returns the last replayed sequence number.
func (f *Follower) Seq() uint64 {
	f.mu.RLock()
	defer f.mu.RUnlock()
	return f.seq
}

// Promoted reports whether Promote has completed.
func (f *Follower) Promoted() bool {
	f.mu.RLock()
	defer f.mu.RUnlock()
	return f.promoted
}

// NumVertices returns the follower index's vertex count.
func (f *Follower) NumVertices() int { return f.n }

// CycleCount answers SCCnt(v) from the follower's replayed state — a
// stale read: correct as of Seq, which may trail the primary's tip.
func (f *Follower) CycleCount(v int) (length int, count uint64) {
	f.mu.RLock()
	defer f.mu.RUnlock()
	if v < 0 || v >= f.n {
		return bfscount.NoCycle, 0
	}
	return f.ix.CycleCount(v)
}

// ApplyStream decodes and replays a stream of concatenated WAL records —
// the /repl/append request body. Records at or below the current
// sequence number are skipped, which makes whole-buffer re-delivery
// after a failed ship idempotent. Each new record is appended to the
// follower's own WAL before it mutates the index, so the follower's
// durable state is always a replayable prefix. Returns the sequence
// number replayed through and the count of newly applied records; a
// decode failure or an unknown op kind rejects the remainder without
// touching it.
func (f *Follower) ApplyStream(data []byte) (seq uint64, applied int, err error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.promoted || f.promoting {
		return f.seq, 0, ErrPromoted
	}
	off := 0
	for off < len(data) {
		recSeq, ops, recLen, ok := engine.DecodeWALRecord(data[off:])
		if !ok {
			return f.seq, applied, fmt.Errorf("dist: malformed replication record at offset %d", off)
		}
		off += recLen
		if recSeq <= f.seq {
			f.skipped.Add(1)
			continue
		}
		batch, cerr := edgeOps(ops)
		if cerr != nil {
			return f.seq, applied, cerr
		}
		if aerr := f.st.Append(recSeq, ops); aerr != nil {
			return f.seq, applied, fmt.Errorf("dist: follower WAL append: %w", aerr)
		}
		if _, berr := f.ix.ApplyBatch(batch, 1); berr != nil {
			// A batch the primary applied cannot fail wholesale unless the
			// follower diverged; apply per-op so one bad op cannot wedge the
			// stream, mirroring the engine's own degraded path.
			for _, op := range ops {
				if op.Kind == engine.OpInsert {
					_, _ = f.ix.InsertEdge(int(op.A), int(op.B))
				} else {
					_, _ = f.ix.DeleteEdge(int(op.A), int(op.B))
				}
			}
		}
		f.seq = recSeq
		applied++
		f.applied.Add(1)
		f.maybeSnapshotLocked()
	}
	if applied > 0 || off > 0 {
		f.appends.Add(1)
	}
	return f.seq, applied, nil
}

// maybeSnapshotLocked writes a follower snapshot on the SnapshotEvery
// cadence. Failure is tolerated: the WAL already holds every record, so
// a missed snapshot only lengthens the next recovery.
func (f *Follower) maybeSnapshotLocked() {
	f.sinceSnap++
	if f.opts.SnapshotEvery <= 0 || f.sinceSnap < f.opts.SnapshotEvery {
		return
	}
	if err := f.st.WriteSnapshot(f.seq, f.ix); err == nil {
		f.snaps.Add(1)
	}
	f.sinceSnap = 0
}

// Promote turns the follower into a serving primary: the replication
// stream is severed (appends return ErrPromoted from here on), the
// store's WAL lock is released, and the directory is reopened through
// engine.Open — replay-to-tip through the standard recovery path, torn
// tails repaired. Reads keep serving the follower's flagged stale
// answers throughout the replay; only when the engine is up does the
// caller swap its handler. opts configures the promoted engine
// (typically the follower's metrics registry, so one scrape covers both
// lives). Idempotent: a second call returns the already-promoted engine.
func (f *Follower) Promote(opts engine.Options) (*engine.Engine, error) {
	f.mu.Lock()
	if f.promoted {
		eng := f.eng
		f.mu.Unlock()
		return eng, nil
	}
	if f.promoting {
		f.mu.Unlock()
		return nil, ErrPromoting
	}
	f.promoting = true
	// Snapshot before closing: promotion replay then starts at the tip,
	// making the blackout window the snapshot write plus process spin-up
	// instead of a full WAL replay. Best-effort — failure just replays
	// more WAL.
	if f.sinceSnap > 0 && f.opts.SnapshotEvery >= 0 {
		if err := f.st.WriteSnapshot(f.seq, f.ix); err == nil {
			f.snaps.Add(1)
			f.sinceSnap = 0
		}
	}
	err := f.st.Close() // releases the WAL flock for engine.Open
	f.mu.Unlock()
	if err != nil {
		f.mu.Lock()
		f.promoting = false
		f.mu.Unlock()
		return nil, fmt.Errorf("dist: promote: close follower store: %w", err)
	}
	// No lock held: stale reads keep answering from f.ix while the new
	// engine recovers from disk (it builds its own index; f.ix is not
	// touched).
	eng, err := engine.Open(f.dir, f.bootstrap, opts)
	f.mu.Lock()
	defer f.mu.Unlock()
	f.promoting = false
	if err != nil {
		return nil, fmt.Errorf("dist: promote: reopen %s: %w", f.dir, err)
	}
	f.promoted = true
	f.eng = eng
	return eng, nil
}

// Engine returns the promoted engine (nil before Promote succeeds).
func (f *Follower) Engine() *engine.Engine {
	f.mu.RLock()
	defer f.mu.RUnlock()
	return f.eng
}

// Close shuts the follower down. Before promotion it closes the store
// (flushing nothing — every accepted record is already WAL-durable);
// after promotion it closes the promoted engine.
func (f *Follower) Close() error {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.eng != nil {
		eng := f.eng
		f.eng = nil
		return eng.Close()
	}
	if f.promoted || f.promoting {
		return nil
	}
	f.promoted = true // reject further appends
	return f.st.Close()
}

// edgeOps converts wire ops to the index's batch representation,
// rejecting unknown kinds — a corrupt kind byte must fail the stream,
// not replay as a silent insert.
func edgeOps(ops []engine.Op) ([]csc.EdgeOp, error) {
	out := make([]csc.EdgeOp, len(ops))
	for i, op := range ops {
		switch op.Kind {
		case engine.OpInsert:
			out[i] = csc.EdgeOp{Kind: csc.OpInsert, A: op.A, B: op.B}
		case engine.OpDelete:
			out[i] = csc.EdgeOp{Kind: csc.OpDelete, A: op.A, B: op.B}
		default:
			return nil, fmt.Errorf("dist: unknown op kind %d in shipped record", op.Kind)
		}
	}
	return out, nil
}
