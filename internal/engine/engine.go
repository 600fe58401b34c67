// Package engine turns the SCC-sharded CSC index (*csc.Sharded) into a
// concurrent serving system: any
// number of reader goroutines answer SCCnt queries while one writer
// goroutine drains a batched update mailbox, coalesces redundant edge
// operations against the live graph, applies each batch inside a short
// grace period, and — when a store directory is configured — appends
// every applied batch to a write-ahead log with periodic full snapshots,
// so a killed process recovers its exact pre-crash labels by replaying
// WAL-over-snapshot (wal.go documents the on-disk format).
//
// Reads enter cheap epochs by read-locking one shard of a cache-line
// padded striped RWMutex (stripe.go); the writer's grace period locks
// every shard. Every read — plain, bounded, context-bounded, and the
// monitor's — is one private read that probes the epoch-tagged result
// cache (cache.go) before it runs the index's join. Consumers that must
// follow updates (the top-k monitor) ride the post-batch hook: it runs on
// the writer goroutine after the grace period ends, so it reads a
// quiescent index without blocking readers.
package engine

import (
	"context"
	"errors"
	"fmt"
	"io"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/bfscount"
	"repro/internal/csc"
	"repro/internal/graph"
	"repro/internal/monitor"
	"repro/internal/obs"
	"repro/internal/pll"
)

// OpKind discriminates mailbox operations.
type OpKind uint8

const (
	// OpInsert inserts a directed edge.
	OpInsert OpKind = 1
	// OpDelete deletes a directed edge.
	OpDelete OpKind = 2
)

func (k OpKind) String() string {
	switch k {
	case OpInsert:
		return "insert"
	case OpDelete:
		return "delete"
	}
	return "?"
}

// Op is one edge operation in the update mailbox.
type Op struct {
	Kind OpKind
	A, B int32
}

// ErrClosed is returned by operations on a closed engine.
var ErrClosed = errors.New("engine: closed")

// ErrOverloaded is returned by enqueues under the reject admission
// policy when the mailbox is full: the writer is saturated and the
// caller should back off and retry (the HTTP layer maps it to 429 +
// Retry-After).
var ErrOverloaded = errors.New("engine: overloaded: update mailbox full")

// ErrReadOnly is returned by enqueues while the engine is in read-only
// degraded mode: a WAL append failed past its retry budget (or a
// snapshot failed), so accepting updates would let served state run
// ahead of what recovery can reconstruct. Reads keep serving; a
// successful Snapshot heals the store and re-enables updates.
var ErrReadOnly = errors.New("engine: read-only: durability lost, updates disabled until a successful snapshot")

// ReplSink receives every batch the engine commits, in order, on the
// writer goroutine — the seam a cluster deployment hangs WAL shipping on
// (internal/dist.Shipper). ShipBatch is called after the batch is locally
// WAL-durable and must not fail the batch: a sink that cannot reach its
// follower buffers and retries on its own, surfacing the backlog as
// replication lag. Close is the shutdown barrier — it runs on the writer
// goroutine during Engine.Close, after the final flush, and should block
// until in-flight shipments are delivered (or a bounded timeout passes),
// so a SIGTERM drain never abandons acknowledged batches mid-stream.
type ReplSink interface {
	ShipBatch(seq uint64, ops []Op)
	Close() error
}

// AdmissionPolicy selects what an enqueue does when the update mailbox
// is full.
type AdmissionPolicy uint8

const (
	// AdmitBlock (the default) applies backpressure: the enqueue waits
	// for mailbox space, bounded by its context's deadline/cancellation
	// (plain Enqueue/Insert wait indefinitely, as before).
	AdmitBlock AdmissionPolicy = iota
	// AdmitReject fails fast with ErrOverloaded, leaving the retry
	// decision to the caller.
	AdmitReject
	// AdmitShed drops the op, counts it in Stats.OpsShed, and reports
	// success — for fire-and-forget telemetry streams where a lost
	// transient update is cheaper than a stalled producer.
	AdmitShed
)

func (p AdmissionPolicy) String() string {
	switch p {
	case AdmitBlock:
		return "block"
	case AdmitReject:
		return "reject"
	case AdmitShed:
		return "shed"
	}
	return "?"
}

// ParseAdmission maps a flag string (block | reject | shed) to a policy.
func ParseAdmission(s string) (AdmissionPolicy, error) {
	switch s {
	case "", "block":
		return AdmitBlock, nil
	case "reject":
		return AdmitReject, nil
	case "shed":
		return AdmitShed, nil
	}
	return AdmitBlock, fmt.Errorf("engine: unknown admission policy %q (want block, reject, or shed)", s)
}

// Options configures New/Open. The zero value gives serving defaults.
type Options struct {
	// MailboxSize is the update channel's buffer (default 4096). A full
	// mailbox applies backpressure: enqueues block.
	MailboxSize int
	// MaxBatch caps how many ops one grace period applies (default 256).
	MaxBatch int
	// FlushInterval bounds how long a partial batch may wait for more ops
	// before applying (default 2ms). Negative means apply as soon as the
	// mailbox drains, without waiting at all.
	FlushInterval time.Duration
	// SnapshotEvery writes a full snapshot (and truncates the WAL) every
	// that many applied batches (default 64; negative disables periodic
	// snapshots, leaving the WAL as the only durability). Only meaningful
	// with a store.
	SnapshotEvery int
	// UpdateWorkers bounds the batch-apply parallelism: each coalesced
	// batch is planned per shard and applied as concurrent per-shard
	// update streams (0 = all cores, 1 = sequential). Readers are
	// unaffected either way — batches still apply inside the grace
	// period.
	UpdateWorkers int
	// NoCache disables the epoch-tagged per-vertex result cache, making
	// every CycleCount redo its label join. Queries stay correct either
	// way; the knob exists for the cold-vs-cached benchmark ablation and
	// as an escape hatch (the cache costs 24 bytes per vertex that lies
	// in a shard).
	NoCache bool
	// Admission selects the full-mailbox behavior of every enqueue:
	// block (backpressure, bounded by the caller's context), reject
	// (ErrOverloaded), or shed (drop and count).
	Admission AdmissionPolicy
	// WALRetry bounds how many times a failed WAL append is retried —
	// with doubling backoff from 1ms and a truncate-rollback between
	// attempts, so a torn partial write never precedes the retried
	// record — before the engine drops the batch and enters read-only
	// degraded mode (ErrReadOnly on enqueues, reads unaffected). 0 means
	// fail on the first error; read-only mode engages either way, and a
	// successful Snapshot heals it.
	WALRetry int
	// Metrics is the observability registry the engine registers its
	// metric surface into (obs.go): counters and gauges func-backed over
	// the same words /stats reads, plus query/batch/WAL latency
	// histograms. Nil disables registration — the engine still counts
	// (Stats works), but serves no /metrics families and records no
	// latencies. One registry serves one engine.
	Metrics *obs.Registry
	// TraceRingSize bounds the batch-lifecycle trace ring behind
	// /debug/trace: 0 keeps the default (64 entries, only when Metrics is
	// set), > 0 forces a ring of that depth even without metrics, < 0
	// disables tracing.
	TraceRingSize int
	// Replication, when set, receives every committed batch in order on
	// the writer goroutine (after the local WAL append succeeds, before
	// the grace period applies it), and is Closed — the in-flight shipment
	// barrier — during Engine.Close after the final flush. Batches dropped
	// in read-only degraded mode are never shipped: the follower tracks
	// exactly the durable prefix.
	Replication ReplSink
}

func (o *Options) fill() {
	if o.MailboxSize <= 0 {
		o.MailboxSize = 4096
	}
	if o.MaxBatch <= 0 {
		o.MaxBatch = 256
	}
	// The WAL record decoder rejects batches above maxBatchOps as corrupt,
	// and replay would then silently truncate acknowledged data as a torn
	// tail — never allow a batch that large to be written in the first
	// place.
	if o.MaxBatch > maxBatchOps {
		o.MaxBatch = maxBatchOps
	}
	if o.FlushInterval == 0 {
		o.FlushInterval = 2 * time.Millisecond
	}
	if o.SnapshotEvery == 0 {
		o.SnapshotEvery = 64
	}
}

// Stats is a point-in-time engine counter snapshot, JSON-ready for the
// daemon's /stats endpoint.
type Stats struct {
	Vertices     int    `json:"vertices"`
	Edges        int    `json:"edges"`
	Entries      int    `json:"entries"`
	LabelBytes   int    `json:"label_bytes"`
	GraphBytes   int    `json:"graph_bytes"`
	Queries      uint64 `json:"queries"`
	CacheHits    uint64 `json:"cache_hits"`
	OpsEnqueued  uint64 `json:"ops_enqueued"`
	OpsApplied   uint64 `json:"ops_applied"`
	OpsCoalesced uint64 `json:"ops_coalesced"`
	OpsRejected  uint64 `json:"ops_rejected"`
	Batches      uint64 `json:"batches"`
	Seq          uint64 `json:"seq"`
	Snapshots    uint64 `json:"snapshots"`
	WALBytes     int64  `json:"wal_bytes,omitempty"`
	Err          string `json:"error,omitempty"`
	// LabelResidentBytes is what the label store physically holds:
	// reduced shards store about half of LabelBytes, the logical size
	// (8 B × Entries), and compressed arenas count their compressed size.
	LabelResidentBytes int `json:"label_resident_bytes"`
	// QueueDepth/MailboxCap describe writer saturation at snapshot time;
	// OpsShed counts shed-policy drops, OpsOverload reject-policy
	// rejections.
	QueueDepth  int    `json:"queue_depth"`
	MailboxCap  int    `json:"mailbox_cap"`
	OpsShed     uint64 `json:"ops_shed,omitempty"`
	OpsOverload uint64 `json:"ops_overload,omitempty"`
	// WALRetries counts retried WAL appends; ReadOnly reports the
	// durability-lost degraded mode (heals on a successful snapshot).
	WALRetries uint64 `json:"wal_retries,omitempty"`
	ReadOnly   bool   `json:"read_only,omitempty"`
	// CompressedBytes is the footprint of the v3/v4 file arenas that
	// shards not yet written serve (zero for an index built or loaded
	// from v1/v2).
	CompressedBytes int `json:"compressed_bytes,omitempty"`
	// CacheSlots counts the result cache's per-vertex entries: one per
	// vertex in a shard, none for trivial vertices, whose reads are
	// answered from the slot table and count as cache hits.
	CacheSlots int `json:"cache_slots"`
}

// Engine serves one sharded index under the single-writer / many-reader
// protocol.
type Engine struct {
	ix   *csc.Sharded
	n    int
	lock *stripedRW
	opts Options

	mail chan Op
	ctl  chan ctlReq
	quit chan struct{}
	done chan struct{}

	closed    atomic.Bool
	closeOnce sync.Once

	store *Store
	seq   atomic.Uint64

	hookMu sync.Mutex
	hooks  []func(applied []Op, touched []int)

	// cache is the epoch-tagged, shard-keyed result cache (cache.go), nil
	// with Options.NoCache. Batch commits expire exactly the dirty
	// vertices; every other entry keeps serving O(1) reads.
	cache *readCache

	// Engine counters are obs.Counters — standalone atomic words that
	// need no registry (Stats always works) and double as the func-backed
	// source of the /metrics families, so the two surfaces read the same
	// words and cannot drift (obs.go).
	queries, hits       []paddedCount // striped like the lock shards
	enqueued, applied   *obs.Counter
	coalesced, rejected *obs.Counter
	batches, snaps      *obs.Counter
	shed, overload      *obs.Counter
	walRetries          *obs.Counter
	walBytes            atomic.Int64

	// Latency histograms and the trace ring, nil without Options.Metrics
	// (recording into nil is a no-op). joinNS/boundedNS time only the
	// cache-miss kernels — a cache hit executes zero instrumentation.
	joinNS, boundedNS *obs.Histogram
	batchNS, snapNS   *obs.Histogram
	stageNS           stageHists
	trace             *obs.Ring

	// readOnly is the durability-lost degraded mode: enqueues fail with
	// ErrReadOnly, already-mailed ops are dropped (counted as rejected),
	// reads keep serving. Set by the writer when a WAL append fails past
	// its retry budget; cleared by a successful snapshot.
	readOnly atomic.Bool

	errMu sync.Mutex
	errv  error // first durability error; nil again after a clean snapshot

	// Writer-goroutine state.
	pending   []Op
	sinceSnap int
	// firstOpAt is when the oldest op of the pending batch entered the
	// writer's hands — the trace's enqueue-wait stage.
	firstOpAt time.Time
}

type ctlReq struct {
	fn  func() error
	ack chan error
}

// New wraps an index in an in-memory engine (no durability) and starts
// its writer goroutine. The engine owns the index from here on: mutate it
// only through Insert/Delete, query it through CycleCount.
func New(ix *csc.Sharded, opts Options) *Engine {
	return start(ix, nil, 0, opts)
}

// Open recovers (or bootstraps) an engine from a store directory: the
// snapshot is loaded if one exists — bootstrap is only called for a fresh
// store — and WAL batches beyond it are replayed before serving starts.
// A monolithic snapshot or bootstrap index is re-sharded first
// (csc.AsSharded).
// Every batch the returned engine applies is WAL-logged before it
// mutates the index.
func Open(dir string, bootstrap func() (csc.Counter, error), opts Options) (*Engine, error) {
	return OpenIO(dir, OSIO, bootstrap, opts)
}

// OpenIO is Open with the store's filesystem behind an explicit StoreIO
// — the injection point for the fault-injection harness, which wraps the
// real filesystem to return errors, tear writes, and stall syncs on the
// durability path.
func OpenIO(dir string, sio StoreIO, bootstrap func() (csc.Counter, error), opts Options) (*Engine, error) {
	st, err := OpenStoreIO(dir, sio)
	if err != nil {
		return nil, err
	}
	ix, seq, err := st.recoverSharded(bootstrap)
	if err != nil {
		st.Close()
		return nil, err
	}
	return start(ix, st, seq, opts), nil
}

func start(ix *csc.Sharded, st *Store, seq uint64, opts Options) *Engine {
	opts.fill()
	lock := newStripedRW()
	e := &Engine{
		ix:       ix,
		n:        ix.Graph().NumVertices(),
		lock:     lock,
		opts:     opts,
		mail:     make(chan Op, opts.MailboxSize),
		ctl:      make(chan ctlReq),
		quit:     make(chan struct{}),
		done:     make(chan struct{}),
		store:    st,
		queries:  make([]paddedCount, len(lock.shards)),
		hits:     make([]paddedCount, len(lock.shards)),
		enqueued: &obs.Counter{}, applied: &obs.Counter{},
		coalesced: &obs.Counter{}, rejected: &obs.Counter{},
		batches: &obs.Counter{}, snaps: &obs.Counter{},
		shed: &obs.Counter{}, overload: &obs.Counter{},
		walRetries: &obs.Counter{},
	}
	if !opts.NoCache {
		e.cache = newReadCache(ix)
	}
	e.seq.Store(seq)
	if st != nil {
		e.walBytes.Store(st.WALBytes())
	}
	e.initObs()
	go e.run()
	return e
}

// NumVertices returns the (fixed) vertex count served.
func (e *Engine) NumVertices() int { return e.n }

// Index exposes the underlying index. The caller must only read it, and
// only while no batch can be applying (after Flush with no concurrent
// enqueuers, or from a post-batch hook).
func (e *Engine) Index() *csc.Sharded { return e.ix }

// Seq returns the sequence number of the last applied batch.
func (e *Engine) Seq() uint64 { return e.seq.Load() }

// ReadOnly reports whether the engine is in durability-lost degraded
// mode: enqueues fail with ErrReadOnly, reads keep serving.
func (e *Engine) ReadOnly() bool { return e.readOnly.Load() }

// Err returns the first WAL/snapshot error, if any. A non-nil error
// means the engine is in read-only degraded mode: reads keep serving
// the last durable state, but enqueues fail with ErrReadOnly and
// already-mailed ops are dropped (counted in Stats.OpsRejected), so
// served state never runs ahead of what recovery can reconstruct. Only
// a successful Snapshot — which persists the full current state and
// truncates the WAL — restores durability and clears the error.
func (e *Engine) Err() error {
	e.errMu.Lock()
	defer e.errMu.Unlock()
	return e.errv
}

func (e *Engine) setErr(err error) {
	if err == nil {
		return
	}
	e.errMu.Lock()
	if e.errv == nil {
		e.errv = err
	}
	e.errMu.Unlock()
}

func (e *Engine) clearErr() {
	e.errMu.Lock()
	e.errv = nil
	e.errMu.Unlock()
}

// CycleCount answers SCCnt(v) inside a reader epoch: the length of the
// shortest cycles through v (bfscount.NoCycle when none, or when v is out
// of range) and their number. Safe from any goroutine, concurrently with
// updates. A cache hit — the vertex untouched since its last read — skips
// the label join entirely; a miss computes and refills inside the same
// epoch.
func (e *Engine) CycleCount(v int) (length int, count uint64) {
	length, count, _ = e.read(context.TODO(), v, unbounded, true)
	return length, count
}

// CycleCountCtx is CycleCount bounded by a context: a reader that would
// otherwise wait out a long writer grace period (a wedged store can hold
// lockAll open indefinitely) gives up with ctx.Err() when its deadline
// passes. The no-cycle sentinel is returned alongside the error.
func (e *Engine) CycleCountCtx(ctx context.Context, v int) (length int, count uint64, err error) {
	return e.read(ctx, v, unbounded, true)
}

// CycleCountBounded answers SCCnt(v) restricted to cycle lengths ≤
// maxLen, concurrently with updates. A valid cached answer is filtered
// against the bound in O(1); a miss runs the bounded join without filling
// the cache (the bounded answer is partial information).
func (e *Engine) CycleCountBounded(v, maxLen int) (length int, count uint64) {
	length, count, _ = e.read(context.TODO(), v, max(maxLen, 0), true)
	return length, count
}

// CycleCountBoundedCtx is CycleCountBounded bounded by a context — the
// same wedged-writer escape hatch as CycleCountCtx.
func (e *Engine) CycleCountBoundedCtx(ctx context.Context, v, maxLen int) (length int, count uint64, err error) {
	return e.read(ctx, v, max(maxLen, 0), true)
}

// unbounded is read's maxLen for a full SCCnt read. Bounded callers clamp
// their maxLen to ≥ 0 first, which changes no answer: no cycle is
// shorter than 2.
const unbounded = -1

// read is the one cached epoch read behind every public CycleCount variant
// and the monitor's watchQuerier. It range-checks v, counts the query,
// enters v's reader epoch (giving up with ctx.Err() only when ctx can be
// cancelled), and serves a trivial vertex (in no shard) or a cache hit —
// filtered against maxLen for a bounded read — in O(1); with the cache
// on, both count as hits. A miss runs the index's join, timed into the
// join or bounded histogram, and an unbounded miss refills the slot
// inside the same epoch. counted selects whether the read lands in the
// client query/hit counters: the monitor's internal reads pass false so
// /stats describes client traffic only.
func (e *Engine) read(ctx context.Context, v, maxLen int, counted bool) (length int, count uint64, err error) {
	if v < 0 || v >= e.n {
		return bfscount.NoCycle, 0, nil
	}
	stripe, bounded := uint32(v)&e.lock.mask, maxLen != unbounded
	if counted {
		e.queries[stripe].n.Add(1)
	}
	var m *sync.RWMutex
	if ctx.Done() == nil {
		m = e.lock.rlock(uint32(v))
	} else if m, err = e.lock.rlockCtx(ctx, uint32(v)); err != nil {
		return bfscount.NoCycle, 0, err
	}
	defer m.RUnlock()
	var slot, local int32
	if e.cache != nil {
		slot, local = e.ix.Locate(v)
		if l, c, ok := e.cache.get(slot, local); ok {
			if counted {
				e.hits[stripe].n.Add(1)
			}
			if bounded && (l == bfscount.NoCycle || l > maxLen) {
				return bfscount.NoCycle, 0, nil
			}
			return l, c, nil
		}
	}
	hist := e.joinNS
	if bounded {
		hist = e.boundedNS
	}
	var t0 time.Time
	if hist != nil {
		t0 = time.Now()
	}
	if bounded {
		length, count = e.ix.CycleCountBounded(v, maxLen)
	} else {
		length, count = e.ix.CycleCount(v)
	}
	hist.ObserveSince(t0)
	if !bounded && e.cache != nil {
		e.cache.put(slot, local, e.seq.Load(), length, count)
	}
	return length, count, nil
}

// watchQuerier is the monitor's view of the engine: the same cached,
// epoch-protected reads as the public CycleCount*, minus the client
// query/hit counters — warm passes and post-batch rescores are internal
// bookkeeping, and /stats should describe client traffic only. Fills
// still land in the cache, which is the point: a rescored dirty vertex
// is a warm slot for the next client read.
type watchQuerier struct{ e *Engine }

func (q watchQuerier) NumVertices() int { return q.e.n }

func (q watchQuerier) CycleCount(v int) (length int, count uint64) {
	length, count, _ = q.e.read(context.TODO(), v, unbounded, false)
	return length, count
}

func (q watchQuerier) CycleCountMany(vs []int, lengths []int, counts []uint64) {
	for i, v := range vs {
		lengths[i], counts[i] = q.CycleCount(v)
	}
}

// Insert enqueues an edge insertion. Under the default block policy it
// waits while the mailbox is full (backpressure) and returns without
// waiting for the batch to apply; use Flush for read-your-writes.
func (e *Engine) Insert(a, b int) error { return e.EnqueueEdge(OpInsert, a, b) }

// Delete enqueues an edge deletion.
func (e *Engine) Delete(a, b int) error { return e.EnqueueEdge(OpDelete, a, b) }

// InsertCtx is Insert bounded by a context: under the block policy a
// full mailbox waits only until ctx is done, so a wedged writer (a
// stalled store holding the batch open) cannot deadlock the caller.
func (e *Engine) InsertCtx(ctx context.Context, a, b int) error {
	return e.EnqueueEdgeCtx(ctx, OpInsert, a, b)
}

// DeleteCtx is Delete bounded by a context.
func (e *Engine) DeleteCtx(ctx context.Context, a, b int) error {
	return e.EnqueueEdgeCtx(ctx, OpDelete, a, b)
}

// EnqueueEdge validates full-width vertex ids and mails one op. The
// range check runs before the Op's int32 narrowing, so an id ≥ 2³² from
// an untrusted client is rejected instead of wrapping onto a small valid
// vertex.
func (e *Engine) EnqueueEdge(kind OpKind, a, b int) error {
	return e.EnqueueEdgeCtx(context.Background(), kind, a, b)
}

// EnqueueEdgeCtx is EnqueueEdge bounded by a context.
func (e *Engine) EnqueueEdgeCtx(ctx context.Context, kind OpKind, a, b int) error {
	if a < 0 || a >= e.n || b < 0 || b >= e.n {
		return graph.ErrVertexRange
	}
	return e.EnqueueCtx(ctx, Op{Kind: kind, A: int32(a), B: int32(b)})
}

// Enqueue validates and mails one op. Redundant ops (inserting a present
// edge, deleting an absent one, insert+delete pairs in the same batch)
// are accepted here and coalesced away before the batch applies.
func (e *Engine) Enqueue(op Op) error {
	return e.EnqueueCtx(context.Background(), op)
}

// EnqueueCtx is Enqueue under the engine's admission policy, bounded by
// the caller's context. Block waits for mailbox space until ctx is done
// (a Background context waits indefinitely, as Enqueue always has);
// reject fails fast with ErrOverloaded; shed drops the op, counts it,
// and reports success. Stats.OpsEnqueued counts only ops that actually
// entered the mailbox.
func (e *Engine) EnqueueCtx(ctx context.Context, op Op) error {
	if op.Kind != OpInsert && op.Kind != OpDelete {
		return errors.New("engine: unknown op kind")
	}
	a, b := int(op.A), int(op.B)
	if a < 0 || a >= e.n || b < 0 || b >= e.n {
		return graph.ErrVertexRange
	}
	if a == b {
		return graph.ErrSelfLoop
	}
	if e.closed.Load() {
		return ErrClosed
	}
	if e.readOnly.Load() {
		return ErrReadOnly
	}
	if e.opts.Admission != AdmitBlock {
		select {
		case e.mail <- op:
			e.enqueued.Add(1)
			return nil
		case <-e.done:
			return ErrClosed
		default:
		}
		if e.opts.Admission == AdmitShed {
			e.shed.Add(1)
			return nil
		}
		e.overload.Add(1)
		return ErrOverloaded
	}
	// Block policy: backpressure, bounded by ctx. A Background context's
	// Done channel is nil, and a nil case never fires — so plain Enqueue
	// keeps its wait-forever contract through the same select.
	select {
	case e.mail <- op:
		e.enqueued.Add(1)
		return nil
	case <-ctx.Done():
		e.overload.Add(1)
		return ctx.Err()
	case <-e.done:
		return ErrClosed
	}
}

// Flush applies everything enqueued before the call and returns once it
// is queryable (and, with a store, WAL-durable).
func (e *Engine) Flush() { _ = e.do(nil) }

// Snapshot flushes and writes a full snapshot, truncating the WAL.
func (e *Engine) Snapshot() error {
	return e.do(func() error { return e.snapshotNow() })
}

// WriteTo flushes pending batches and serializes the index. It implements
// the same format as the index's own WriteTo; the write happens on the writer
// goroutine, so it sees a quiescent index while readers keep serving.
func (e *Engine) WriteTo(w io.Writer) (int64, error) {
	var n int64
	err := e.do(func() error {
		var werr error
		n, werr = e.ix.WriteTo(w)
		return werr
	})
	return n, err
}

// do runs fn on the writer goroutine after draining and applying the
// mailbox.
func (e *Engine) do(fn func() error) error {
	req := ctlReq{fn: fn, ack: make(chan error, 1)}
	select {
	case e.ctl <- req:
		return <-req.ack
	case <-e.done:
		return ErrClosed
	}
}

// OnBatch registers a post-batch hook: it runs on the writer goroutine
// after each batch's grace period ends, with the applied (coalesced) ops
// and the batch's dirty set — the sorted original-graph vertices whose
// label lists the batch mutated, which is exactly the set whose query
// answers can have changed. Hooks must not block for long — the mailbox
// stalls while they run — and must not mutate the engine. Register hooks
// before the first enqueue.
func (e *Engine) OnBatch(fn func(applied []Op, touched []int)) {
	e.hookMu.Lock()
	e.hooks = append(e.hooks, fn)
	e.hookMu.Unlock()
}

// WatchTopK attaches a continuously maintained top-k scoreboard: the
// monitor warms by scoring every vertex through the engine's cached,
// epoch-protected reads (on every core, clamped to the vertex count) and
// then rides the post-batch hook, rescoring exactly each batch's dirty
// set. Because the rescore reads go through the engine, they also re-warm
// precisely the cache slots the batch expired — the next /cycle read of a
// dirty vertex is already a hit — without counting toward the
// Queries/CacheHits stats, which describe client traffic only. Attach before the first enqueue. The returned
// monitor's Score and Top are safe concurrently with updates; do not
// route updates through it.
func (e *Engine) WatchTopK(k int) *monitor.TopK {
	m := monitor.Watch(watchQuerier{e}, k, 0)
	e.OnBatch(func(_ []Op, dirty []int) { m.RescoreDirty(dirty) })
	return m
}

// Stats snapshots the engine counters. Index-size fields are read inside
// a reader epoch, so it is safe concurrently with updates.
func (e *Engine) Stats() Stats {
	var queries, hits uint64
	for i := range e.queries {
		queries += e.queries[i].n.Load()
		hits += e.hits[i].n.Load()
	}
	st := Stats{
		Queries:      queries,
		CacheHits:    hits,
		OpsEnqueued:  e.enqueued.Load(),
		OpsApplied:   e.applied.Load(),
		OpsCoalesced: e.coalesced.Load(),
		OpsRejected:  e.rejected.Load(),
		Batches:      e.batches.Load(),
		Seq:          e.seq.Load(),
		Snapshots:    e.snaps.Load(),
		QueueDepth:   len(e.mail),
		MailboxCap:   cap(e.mail),
		OpsShed:      e.shed.Load(),
		OpsOverload:  e.overload.Load(),
		WALRetries:   e.walRetries.Load(),
		ReadOnly:     e.readOnly.Load(),
	}
	if e.store != nil {
		st.WALBytes = e.walBytes.Load()
	}
	if err := e.Err(); err != nil {
		st.Err = err.Error()
	}
	m := e.lock.rlock(0)
	// Reading under a stripe read-lock is enough: the writer only mutates
	// the index inside the full grace period.
	st.Vertices = e.n
	st.Edges = e.ix.Graph().NumEdges()
	st.Entries = e.ix.EntryCount()
	st.LabelBytes = e.ix.Bytes()
	st.LabelResidentBytes = e.ix.ResidentBytes()
	st.GraphBytes = e.ix.GraphBytes()
	st.CompressedBytes = e.ix.CompressedBytes()
	st.CacheSlots = e.cacheSlots()
	m.RUnlock()
	return st
}

// cacheSlots is the result cache's entry count; the caller holds a
// stripe read-lock (the writer resizes the cache under the grace period).
func (e *Engine) cacheSlots() int {
	if e.cache == nil {
		return 0
	}
	return e.cache.size
}

// ShardTable snapshots the index's routing inputs — a copy of the
// vertex→shard-slot table (-1 for trivial vertices, which answer zero
// cycles with no labels at all) and the per-shard footprint stats a
// size-balanced placement weighs. ok is always true. Safe concurrently
// with updates: both reads happen inside one reader epoch.
func (e *Engine) ShardTable() (shardOf []int32, stats []csc.ShardStat, ok bool) {
	m := e.lock.rlock(0)
	defer m.RUnlock()
	return e.ix.ShardMap(), e.ix.ShardStats(), true
}

// Close drains and applies the mailbox, syncs and closes the store, and
// stops the writer. It does not write a final snapshot (recovery replays
// the WAL); call Snapshot first for a fast next startup. Ops enqueued
// concurrently with Close may be dropped.
func (e *Engine) Close() error {
	e.closed.Store(true)
	e.closeOnce.Do(func() { close(e.quit) })
	<-e.done
	return e.Err()
}

// run is the writer goroutine: the only code that mutates the index.
func (e *Engine) run() {
	defer close(e.done)
	var timer *time.Timer
	var timerC <-chan time.Time
	stopTimer := func() {
		if timer != nil {
			timer.Stop()
			timer = nil
			timerC = nil
		}
	}
	flushAll := func() {
		for {
			e.drainMail()
			if len(e.pending) == 0 {
				break
			}
			e.applyPending()
		}
		stopTimer()
	}
	for {
		select {
		case op := <-e.mail:
			e.push(op)
			e.drainMail()
			switch {
			case len(e.pending) >= e.opts.MaxBatch || e.opts.FlushInterval < 0:
				e.applyPending()
				stopTimer()
			case timerC == nil:
				timer = time.NewTimer(e.opts.FlushInterval)
				timerC = timer.C
			}
		case <-timerC:
			timer = nil
			timerC = nil
			e.applyPending()
		case req := <-e.ctl:
			flushAll()
			var err error
			if req.fn != nil {
				err = req.fn()
			}
			req.ack <- err
		case <-e.quit:
			flushAll()
			// Replication barrier before the store closes: every batch the
			// flush above committed has been handed to the sink, and Close
			// blocks until in-flight shipments land (or the sink's own
			// timeout gives up and reports the backlog).
			if e.opts.Replication != nil {
				if err := e.opts.Replication.Close(); err != nil {
					e.setErr(err)
				}
			}
			if e.store != nil {
				if err := e.store.Close(); err != nil {
					e.setErr(err)
				}
			}
			return
		}
	}
}

// push appends one op to pending, stamping the batch's first-op time —
// the enqueue-wait stage of the batch trace.
func (e *Engine) push(op Op) {
	if len(e.pending) == 0 {
		e.firstOpAt = time.Now()
	}
	e.pending = append(e.pending, op)
}

// drainMail moves immediately available ops into pending, up to MaxBatch.
func (e *Engine) drainMail() {
	for len(e.pending) < e.opts.MaxBatch {
		select {
		case op := <-e.mail:
			e.push(op)
		default:
			return
		}
	}
}

// applyPending coalesces the pending ops into their net batch, logs it,
// applies it under the grace period, and fires the post-batch hooks.
func (e *Engine) applyPending() {
	if len(e.pending) == 0 {
		return
	}
	if e.readOnly.Load() {
		// Read-only degraded mode: ops that were mailed before the mode
		// engaged are dropped (counted as rejected) instead of applied, so
		// served state stays equal to the durable prefix.
		e.rejected.Add(uint64(len(e.pending)))
		e.pending = e.pending[:0]
		e.firstOpAt = time.Time{}
		return
	}
	start := time.Now()
	var waitNS int64
	if !e.firstOpAt.IsZero() {
		waitNS = start.Sub(e.firstOpAt).Nanoseconds()
		e.firstOpAt = time.Time{}
	}
	raw := len(e.pending)
	batch := e.coalesce()
	coalesceNS := time.Since(start).Nanoseconds()
	e.coalesced.Add(uint64(raw - len(batch)))
	e.pending = e.pending[:0]
	if len(batch) == 0 {
		return
	}
	seq := e.seq.Load() + 1
	var walNS int64
	if e.store != nil {
		walStart := time.Now()
		err := e.appendWithRetry(seq, batch)
		walNS = time.Since(walStart).Nanoseconds()
		if err != nil {
			// Durability lost past the retry budget: drop the batch and
			// enter read-only mode rather than applying in memory — state
			// that recovery cannot reconstruct must never be served. A
			// successful Snapshot heals the store and re-enables updates.
			e.setErr(err)
			e.readOnly.Store(true)
			e.rejected.Add(uint64(len(batch)))
			e.walBytes.Store(e.store.WALBytes())
			return
		}
		e.walBytes.Store(e.store.WALBytes())
	}
	// Ship the batch only once it is locally durable: a follower must
	// never hold a record its primary could lose in a crash-and-replay.
	var shipNS int64
	if e.opts.Replication != nil {
		shipStart := time.Now()
		e.opts.Replication.ShipBatch(seq, batch)
		shipNS = time.Since(shipStart).Nanoseconds()
	}
	applyStart := time.Now()
	touched, st := e.apply(batch, seq)
	applyNS := time.Since(applyStart).Nanoseconds()
	e.seq.Store(seq)
	e.batches.Add(1)
	e.applied.Add(uint64(len(batch)))
	e.hookMu.Lock()
	hooks := e.hooks
	e.hookMu.Unlock()
	hooksStart := time.Now()
	for _, h := range hooks {
		h(batch, touched)
	}
	hooksNS := time.Since(hooksStart).Nanoseconds()
	e.recordBatch(seq, start, raw, batch, touched, st, waitNS, coalesceNS, walNS, shipNS, applyNS, hooksNS)
	if e.store != nil && e.opts.SnapshotEvery > 0 {
		e.sinceSnap++
		if e.sinceSnap >= e.opts.SnapshotEvery {
			_ = e.snapshotNow()
		}
	}
}

// appendWithRetry appends one WAL record, retrying up to Options.WALRetry
// times with doubling backoff from 1ms. Between attempts the WAL is
// rolled back to its pre-append length: a failed attempt may have left a
// partial record on disk, and a retried record written after that tear
// would make replay silently truncate it away as the torn tail.
func (e *Engine) appendWithRetry(seq uint64, batch []Op) error {
	start := e.store.WALBytes()
	err := e.store.Append(seq, batch)
	for attempt := 0; err != nil && attempt < e.opts.WALRetry; attempt++ {
		if terr := e.store.truncateTo(start); terr != nil {
			return err // cannot roll back the tear, so cannot retry safely
		}
		e.walRetries.Add(1)
		time.Sleep(time.Millisecond << min(attempt, 8))
		err = e.store.Append(seq, batch)
	}
	if err != nil {
		// Leave the WAL at a clean record boundary so a later healed store
		// does not append after a torn partial write.
		_ = e.store.truncateTo(start)
	}
	return err
}

// coalesce reduces pending to its net effect against the live graph:
// inserting a present edge or deleting an absent one drops, and
// insert/delete pairs of the same edge cancel, whichever order they
// arrived in. One op per surviving edge remains, in first-touch order.
// Reading the graph here is safe: only the writer mutates it, and
// concurrent readers never do.
func (e *Engine) coalesce() []Op {
	g := e.ix.Graph()
	base := make(map[uint64]bool, len(e.pending))
	eff := make(map[uint64]bool, len(e.pending))
	order := make([]uint64, 0, len(e.pending))
	for _, op := range e.pending {
		k := uint64(uint32(op.A))<<32 | uint64(uint32(op.B))
		cur, seen := eff[k]
		if !seen {
			cur = g.HasEdge(int(op.A), int(op.B))
			base[k] = cur
			eff[k] = cur
			order = append(order, k)
		}
		if want := op.Kind == OpInsert; want != cur {
			eff[k] = want
		}
	}
	batch := make([]Op, 0, len(order))
	for _, k := range order {
		if eff[k] == base[k] {
			continue
		}
		op := Op{Kind: OpDelete, A: int32(k >> 32), B: int32(uint32(k))}
		if eff[k] {
			op.Kind = OpInsert
		}
		batch = append(batch, op)
	}
	return batch
}

// batchOps converts mailbox ops into the index's batch representation.
func batchOps(batch []Op) []csc.EdgeOp {
	ops := make([]csc.EdgeOp, len(batch))
	for i, op := range batch {
		k := csc.OpInsert
		if op.Kind == OpDelete {
			k = csc.OpDelete
		}
		ops[i] = csc.EdgeOp{Kind: k, A: op.A, B: op.B}
	}
	return ops
}

// apply runs one batch inside the grace period through the index's batch
// planner — independent per-shard update streams on UpdateWorkers
// goroutines, merge/split effects computed once for the whole batch and
// rebuilt inline — and returns the batch's dirty set: the sorted
// original-graph vertices whose labels it touched, which is exactly the
// set whose query answers can differ (csc.DirtyVertices). The result
// cache is expired for those vertices before the grace period ends, so no
// reader ever pairs a post-batch epoch with a pre-batch value.
func (e *Engine) apply(batch []Op, seq uint64) (dirty []int, st pll.UpdateStats) {
	e.lock.lockAll()
	st, err := e.ix.ApplyBatch(batchOps(batch), e.opts.UpdateWorkers)
	if err != nil {
		// Coalescing computed the batch against the live graph, so a
		// rejected batch is unreachable short of index corruption. Fall
		// back to per-op application so one bad op cannot take the whole
		// batch down with it.
		st = e.applyPerOp(batch)
	}
	dirty = csc.DirtyVertices(st)
	if e.cache != nil {
		e.cache.sync(e.ix)
		e.cache.invalidate(e.ix, dirty, seq)
	}
	e.lock.unlockAll()
	return dirty, st
}

// applyPerOp is the degraded path behind apply: one edge at a time,
// counting (instead of propagating) individually rejected ops. The
// aggregated TouchedOwners are the caller's only dirty-set source —
// cache invalidation and hook rescoring both derive from them — so
// every op that mutates labels must keep reporting its owners here.
func (e *Engine) applyPerOp(batch []Op) pll.UpdateStats {
	var agg pll.UpdateStats
	for _, op := range batch {
		var st pll.UpdateStats
		var err error
		if op.Kind == OpInsert {
			st, err = e.ix.InsertEdge(int(op.A), int(op.B))
		} else {
			st, err = e.ix.DeleteEdge(int(op.A), int(op.B))
		}
		if err != nil {
			e.rejected.Add(1)
			continue
		}
		agg.TouchedOwners = append(agg.TouchedOwners, st.TouchedOwners...)
	}
	return agg
}

// snapshotNow persists a snapshot at the current sequence number. It runs
// on the writer goroutine, which is the only mutator, so serialization
// reads a quiescent index without holding the grace-period lock: readers
// keep querying throughout.
func (e *Engine) snapshotNow() error {
	if e.store == nil {
		return errors.New("engine: no store configured")
	}
	snapStart := time.Now()
	if err := e.store.WriteSnapshot(e.seq.Load(), e.ix); err != nil {
		// A half-done snapshot cannot be trusted to leave the WAL in an
		// appendable state (the failure may have struck mid-reset), so
		// degrade to read-only rather than risk appending after a tear.
		e.setErr(err)
		e.readOnly.Store(true)
		return err
	}
	e.snapNS.ObserveSince(snapStart)
	e.walBytes.Store(e.store.WALBytes())
	e.sinceSnap = 0
	e.snaps.Add(1)
	// The snapshot persisted the complete current state and truncated the
	// WAL, so a durability loss (failed earlier append) is healed.
	e.clearErr()
	e.readOnly.Store(false)
	return nil
}
