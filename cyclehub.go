// Package cyclehub counts shortest cycles through vertices of dynamic
// directed graphs in real time. It implements the CSC index of Feng, Peng,
// Zhang, Zhang and Lin, "Towards Real-Time Counting Shortest Cycles on
// Dynamic Graphs: A Hub Labeling Approach" (ICDE 2022): the graph is
// reshaped by a bipartite conversion, a 2-hop counting label is built over
// the conversion, and SCCnt(v) — the number of shortest cycles through v —
// is answered with a single merge-join of two label lists in microseconds,
// independent of v's degree. Edge insertions and deletions maintain the
// index incrementally instead of rebuilding it.
//
// Indexes are SCC-sharded: every directed cycle lies inside one strongly
// connected component, so BuildIndex partitions the graph by condensation,
// leaves the acyclic share completely label-free, builds independent
// sub-indexes per component (in parallel across components), and routes
// queries through a directory of the cyclic vertices: an n-bit membership
// set plus a shard slot and local id per member. Updates that merge or
// split components trigger scoped rebuilds of only the affected shards.
// Index files written before sharding existed (the v1 format) still load:
// they are re-sharded on load.
//
// Each component's labels are built by one rank-ordered loop of hub BFSes
// over the component relabeled by hub rank, so every neighbor scan stops
// at the first neighbor ranked too high to visit, and components build in
// parallel on every core by default (see WithWorkers). Pruning inside
// each BFS probes a rank-indexed scatter of the hub's own label instead
// of merge-joining two lists per visited vertex. A freshly built or
// loaded component stores only the two label lists a query joins (the
// paper's index reduction), frozen in a delta+varint arena that reads
// stream without decoding; its first edge update expands them into plain
// slices, so later updates keep working without a rebuild.
//
// # Quick start
//
//	g := cyclehub.NewGraph(4)
//	g.AddEdge(0, 1); g.AddEdge(1, 2); g.AddEdge(2, 0); g.AddEdge(2, 3)
//	idx := cyclehub.BuildIndex(g)
//	r := idx.CycleCount(0) // {Exists: true, Length: 3, Count: 1}
//	idx.InsertEdge(3, 0)   // index maintained, no rebuild
//	r = idx.CycleCount(3)  // now on the 4-cycle 3→0→1→2→3
//
// The BuildIndex call takes ownership of the graph: after it returns,
// mutate the graph only through Index.InsertEdge and Index.DeleteEdge.
package cyclehub

import (
	"io"
	"net/http"
	"sync"
	"time"

	"repro/internal/bfscount"
	"repro/internal/csc"
	"repro/internal/dist"
	"repro/internal/engine"
	"repro/internal/graph"
	"repro/internal/monitor"
	"repro/internal/obs"
	"repro/internal/order"
	"repro/internal/pll"
	"repro/internal/serve"
)

// Graph is a mutable directed graph over dense vertex ids 0..n-1.
// It rejects self-loops and parallel edges.
type Graph = graph.Digraph

// NewGraph returns an empty directed graph with n vertices.
func NewGraph(n int) *Graph { return graph.New(n) }

// GraphFromEdges builds a graph from an edge list.
func GraphFromEdges(n int, edges [][2]int) (*Graph, error) {
	return graph.FromEdges(n, edges)
}

// ReadGraph parses the plain "n m" + "u v" edge-list format (comments
// start with '#'); self-loops and duplicate edges in the input are
// silently skipped.
func ReadGraph(r io.Reader) (*Graph, error) { return graph.ReadEdgeList(r) }

// CycleResult is the answer to a shortest-cycle-counting query.
type CycleResult struct {
	// Exists reports whether any directed cycle passes through the vertex.
	Exists bool
	// Length is the number of edges on the shortest cycles (≥ 2).
	Length int
	// Count is the number of distinct shortest cycles. Counts saturate at
	// 2²⁴−1, the width of the index's packed count field.
	Count uint64
}

// Option configures BuildIndex.
type Option func(*buildConfig)

type buildConfig struct {
	opts csc.Options
}

// WithMinimality keeps the label minimal after every update (Theorem V.3)
// at a substantial update-time cost. The default — leaving dominated
// entries in place ("redundancy") — is what the paper recommends: queries
// stay exact either way.
func WithMinimality() Option {
	return func(c *buildConfig) { c.opts.Strategy = pll.Minimality }
}

// WithWorkers sets how many components construction builds at once. The
// default (0) uses every core; 1 builds them one by one. Each component's
// labeling is one sequential construction, so the built labels are
// byte-identical for every worker count — parallelism is purely a
// wall-clock knob, and a graph with one cyclic component gains nothing
// from it.
func WithWorkers(n int) Option {
	return func(c *buildConfig) { c.opts.Workers = n }
}

// WithCompression stores the labels in the frozen delta+varint arena
// instead of the mutable 8-byte-entry form: hubs are rank-sorted, so
// consecutive gaps encode in one or two bytes, and each list carries a
// bloom signature of its hub set that screens non-intersecting joins
// before any entry decodes. Answers are byte-identical to the
// uncompressed form; edge updates thaw only the touched lists and the
// serving engine re-freezes them on the next quiet moment. A compressed
// sharded index serializes as the mmap-able v3 format (see
// ReadIndexFile).
func WithCompression() Option {
	return func(c *buildConfig) { c.opts.CompressLabels = true }
}

// Ordering names a hub-ordering strategy: the total order construction
// ranks vertices by, which decides which vertices become hubs first and
// thereby the label size/build time the index ends up with. Answers are
// identical under every valid ordering (asserted by the order-invariance
// suite); the ordering is purely a quality knob.
type Ordering = order.Strategy

// Hub-ordering strategies for WithOrdering. Degree is the paper's
// recommendation and the library default; Coverage greedily ranks by how
// many sampled shortest cycles a vertex covers that higher ranks don't.
// On skewed-degree graphs degree is hard to beat; on uniform-degree
// graphs (meshes, rings) it degenerates to id order and coverage cuts
// label bytes substantially (see EXPERIMENTS.md, ORD-*). cscd serves
// coverage by default: on its payment ledger, whose large background
// component has near-uniform degrees, coverage stores 9% fewer label
// entries (EXPERIMENTS.md, "Hub order on the served ledger").
const (
	OrderDegree   = order.Degree
	OrderID       = order.ID
	OrderRandom   = order.Random
	OrderCoverage = order.Coverage
)

// ParseOrdering maps a flag string (degree | id | random | coverage) to a
// strategy.
func ParseOrdering(s string) (Ordering, error) { return order.ParseStrategy(s) }

// WithOrdering selects the hub-ordering strategy construction and every
// scoped rebuild use (default OrderDegree). The order is computed per
// component; a non-degree choice serializes as the v4 format, which
// records the strategy globally and per shard.
func WithOrdering(s Ordering) Option {
	return func(c *buildConfig) { c.opts.Order = s }
}

// Index answers CycleCount queries on a dynamic directed graph.
type Index struct {
	x *csc.Sharded
}

// BuildIndex constructs a CSC index over g using the paper's degree
// ordering (see WithOrdering for the alternatives). The index takes
// ownership of g.
//
// The graph is partitioned by condensation: every directed cycle lies
// inside one strongly connected component, so trivial components carry
// no labels at all and each non-trivial component gets an independent
// sub-index (built in parallel across components). On DAG-heavy graphs
// this cuts construction time and label bytes by the share of the graph
// outside cyclic regions.
func BuildIndex(g *Graph, options ...Option) *Index {
	var cfg buildConfig
	for _, o := range options {
		o(&cfg)
	}
	x, _ := csc.BuildSharded(g, cfg.opts)
	return &Index{x: x}
}

// CycleCount answers SCCnt(v): the length and number of the shortest
// cycles through v.
func (ix *Index) CycleCount(v int) CycleResult {
	l, c := ix.x.CycleCount(v)
	if l == bfscount.NoCycle {
		return CycleResult{}
	}
	return CycleResult{Exists: true, Length: l, Count: c}
}

// CycleCountBounded answers SCCnt(v) only when the shortest cycles
// through v have length ≤ maxLen, and reports no cycle otherwise. The
// bounded join kernel skips all counting work for cycles past the bound,
// so screening queries ("is v on a short feedback loop?") cost less than
// a full CycleCount.
func (ix *Index) CycleCountBounded(v, maxLen int) CycleResult {
	l, c := ix.x.CycleCountBounded(v, maxLen)
	if l == bfscount.NoCycle {
		return CycleResult{}
	}
	return CycleResult{Exists: true, Length: l, Count: c}
}

// InsertEdge adds edge (a,b) to the graph and maintains the index.
func (ix *Index) InsertEdge(a, b int) error {
	_, err := ix.x.InsertEdge(a, b)
	return err
}

// DeleteEdge removes edge (a,b) from the graph and maintains the index.
func (ix *Index) DeleteEdge(a, b int) error {
	_, err := ix.x.DeleteEdge(a, b)
	return err
}

// EdgeOp is one operation of a batch update: an insertion by default, a
// deletion when Delete is set.
type EdgeOp struct {
	Delete bool
	A, B   int
}

// ApplyBatch applies an ordered sequence of edge operations as one
// maintenance unit, equivalent to (but usually much faster than) applying
// them through InsertEdge/DeleteEdge one at a time: the index groups the
// batch's ops by strongly connected component, computes merge/split
// effects once for the whole batch, and applies independent
// per-shard update streams on workers goroutines (0 = all cores, 1 =
// sequential; answers are identical for every worker count). The batch
// must be a valid sequence against the live graph — no duplicate inserts,
// no missing deletes, net of earlier ops in the same batch — and an
// invalid batch is rejected whole, with nothing applied.
func (ix *Index) ApplyBatch(ops []EdgeOp, workers int) error {
	batch := make([]csc.EdgeOp, len(ops))
	for i, op := range ops {
		if op.A < 0 || op.A > 1<<31-1 || op.B < 0 || op.B > 1<<31-1 {
			return graph.ErrVertexRange
		}
		k := csc.OpInsert
		if op.Delete {
			k = csc.OpDelete
		}
		batch[i] = csc.EdgeOp{Kind: k, A: int32(op.A), B: int32(op.B)}
	}
	_, err := ix.x.ApplyBatch(batch, workers)
	return err
}

// AddVertex grows the graph by one isolated vertex and returns its id.
// Vertex ids are dense and never recycled.
func (ix *Index) AddVertex() (int, error) { return ix.x.AddVertex() }

// DetachVertex removes all edges incident to v through maintained
// deletions, leaving v isolated — the paper's model of vertex removal.
// It returns the number of edges removed.
func (ix *Index) DetachVertex(v int) (int, error) { return ix.x.DetachVertex(v) }

// Graph returns the indexed graph. Do not mutate it directly; use
// InsertEdge and DeleteEdge so the index stays consistent.
func (ix *Index) Graph() *Graph { return ix.x.Graph() }

// CycleCountAll evaluates SCCnt for every vertex using the given number
// of worker goroutines (0 uses every core, 1 forces sequential; the count
// is clamped to the vertex count so tiny graphs never spawn idle
// goroutines). Queries are read-only, so this is safe as long as no
// update runs concurrently.
func (ix *Index) CycleCountAll(workers int) []CycleResult {
	lengths, counts := ix.x.CycleCountAll(workers)
	out := make([]CycleResult, len(lengths))
	for v := range out {
		if lengths[v] != bfscount.NoCycle {
			out[v] = CycleResult{Exists: true, Length: lengths[v], Count: counts[v]}
		}
	}
	return out
}

// Stats describes an index's size.
type Stats struct {
	// Entries is the number of 64-bit label entries in the full labeling.
	Entries int
	// Bytes is the full label footprint (8 bytes per entry).
	Bytes int
	// ReducedBytes is the footprint after couple-pair label merging
	// (§IV-E), the size a static deployment would store.
	ReducedBytes int
}

// Stats reports the index's current size.
func (ix *Index) Stats() Stats {
	return Stats{
		Entries:      ix.x.EntryCount(),
		Bytes:        ix.x.Bytes(),
		ReducedBytes: ix.x.ReducedBytes(),
	}
}

// WriteTo serializes the index; it implements io.WriterTo.
func (ix *Index) WriteTo(w io.Writer) (int64, error) { return ix.x.WriteTo(w) }

// ReadIndex loads an index serialized with WriteTo — any of the v1–v4
// formats. The loaded index is immediately queryable and maintainable. A
// v1 file (written before sharding existed) is re-sharded on load and
// answers identically.
func ReadIndex(r io.Reader) (*Index, error) {
	x, err := csc.Read(r)
	if err != nil {
		return nil, err
	}
	return &Index{x: csc.AsSharded(x)}, nil
}

// ReadIndexFile loads an index file (v1–v4) by path. With useMmap and a
// v3 or v4 file (a compressed index, see WithCompression), the label
// sections alias a read-only mapping of the file: the index serves its
// first query after a structural check only, and label bytes page in
// from disk on first touch — the cold-start path for indexes larger than
// RAM. v1/v2 files and platforms without mmap support fall back to a
// normal strict read, so the flag is always safe to pass.
func ReadIndexFile(path string, useMmap bool) (*Index, error) {
	x, err := csc.ReadFile(path, useMmap)
	if err != nil {
		return nil, err
	}
	return &Index{x: csc.AsSharded(x)}, nil
}

// TopK maintains a continuously correct top-k ranking of vertices by
// shortest-cycle count under edge updates — the fraud-watchlist loop from
// the paper's introduction. It takes over the index: apply updates through
// the TopK methods, not the Index's.
type TopK struct {
	m *monitor.TopK
}

// WatchTopK wraps an index in a top-k monitor, scoring every vertex once.
func WatchTopK(ix *Index, k int) *TopK {
	return &TopK{m: monitor.New(ix.x, k)}
}

// InsertEdge applies a maintained insertion and refreshes the ranking.
func (t *TopK) InsertEdge(a, b int) error { return t.m.InsertEdge(a, b) }

// DeleteEdge applies a maintained deletion and refreshes the ranking.
func (t *TopK) DeleteEdge(a, b int) error { return t.m.DeleteEdge(a, b) }

// Score returns the current standing of one vertex.
func (t *TopK) Score(v int) CycleResult {
	s := t.m.Score(v)
	if !s.Exists {
		return CycleResult{}
	}
	return CycleResult{Exists: true, Length: s.Length, Count: s.Count}
}

// Top returns up to k vertices ranked by cycle count (descending), with
// shorter cycles breaking ties.
func (t *TopK) Top() []RankedVertex {
	var out []RankedVertex
	for _, s := range t.m.Top() {
		out = append(out, RankedVertex{
			Vertex: s.Vertex,
			Result: CycleResult{Exists: true, Length: s.Length, Count: s.Count},
		})
	}
	return out
}

// RankedVertex is one row of a TopK ranking.
type RankedVertex struct {
	Vertex int
	Result CycleResult
}

// Engine is the concurrent serving facade over an Index: any number of
// goroutines may query while a single writer goroutine drains a batched
// update mailbox — the same subsystem the cscd daemon serves over HTTP.
// Queries enter cheap reader epochs (a striped RWMutex shard); the writer
// coalesces redundant ops (insert+delete of the same edge cancels,
// duplicate inserts dedupe), applies each batch inside a short grace
// period, and — with WithWAL — appends every applied batch to a
// write-ahead log with periodic snapshots, so a crashed process recovers
// its exact pre-crash labels.
type Engine struct {
	e     *engine.Engine
	ship  *dist.Shipper
	watch *monitor.TopK
	k     int

	// HTTP observability configuration, consumed by the (memoized)
	// Handler. The handler registers its per-route latency histograms into
	// the engine's metrics registry, so it must be built exactly once.
	httpOpts    serve.Options
	handlerOnce sync.Once
	handler     http.Handler
}

// EngineOption configures NewEngine and OpenEngine.
type EngineOption func(*engineConfig)

type engineConfig struct {
	opts        engine.Options
	dir         string
	topK        int
	httpOpts    serve.Options
	replicateTo string
}

// WithWAL enables durability: every applied batch is fsynced to a
// write-ahead log under dir before it mutates the index, with periodic
// full snapshots (see WithSnapshotEvery). If dir already holds a
// snapshot/WAL, NewEngine recovers that state instead of using the given
// index.
func WithWAL(dir string) EngineOption {
	return func(c *engineConfig) { c.dir = dir }
}

// WithTopK attaches a continuously maintained top-k watch, served by
// Engine.Top and Engine.Score. The watch warms by scoring every vertex
// and afterwards rescans only the vertices each batch touched.
func WithTopK(k int) EngineOption {
	return func(c *engineConfig) { c.topK = k }
}

// WithBatch tunes write batching: maxOps caps how many ops one grace
// period applies, and flush bounds how long a partial batch waits for
// more ops (negative: apply as soon as the mailbox drains).
func WithBatch(maxOps int, flush time.Duration) EngineOption {
	return func(c *engineConfig) {
		c.opts.MaxBatch = maxOps
		c.opts.FlushInterval = flush
	}
}

// WithSnapshotEvery sets how many applied batches elapse between full
// snapshots (default 64; a negative value disables periodic snapshots,
// leaving the WAL as the only durability). Only meaningful together
// with WithWAL.
func WithSnapshotEvery(batches int) EngineOption {
	return func(c *engineConfig) { c.opts.SnapshotEvery = batches }
}

// WithMailbox sets the update mailbox capacity (default 4096). A full
// mailbox applies backpressure: InsertEdge/DeleteEdge block.
func WithMailbox(n int) EngineOption {
	return func(c *engineConfig) { c.opts.MailboxSize = n }
}

// WithoutReadCache disables the engine's per-vertex result cache, so
// every CycleCount re-joins the label lists. Answers are identical
// either way; the knob exists for benchmark ablations and to trade the
// cache's 24 bytes per vertex for recomputation on memory-starved
// deployments.
func WithoutReadCache() EngineOption {
	return func(c *engineConfig) { c.opts.NoCache = true }
}

// AdmissionPolicy selects what an enqueue does when the update mailbox
// is full: AdmitBlock waits (bounded by the caller's context), AdmitReject
// fails fast with engine.ErrOverloaded, AdmitShed drops and counts.
type AdmissionPolicy = engine.AdmissionPolicy

// Admission policies for WithAdmission.
const (
	AdmitBlock  = engine.AdmitBlock
	AdmitReject = engine.AdmitReject
	AdmitShed   = engine.AdmitShed
)

// ParseAdmission maps a flag string (block | reject | shed) to a policy.
func ParseAdmission(s string) (AdmissionPolicy, error) { return engine.ParseAdmission(s) }

// WithAdmission sets the engine's full-mailbox admission policy
// (default AdmitBlock: backpressure).
func WithAdmission(p AdmissionPolicy) EngineOption {
	return func(c *engineConfig) { c.opts.Admission = p }
}

// WithWALRetry bounds how many times a failed WAL append is retried
// (with doubling backoff and a rollback of any torn partial write)
// before the engine drops the batch and degrades to read-only mode —
// reads keep serving, updates fail with engine.ErrReadOnly, and a
// successful Snapshot heals the store.
func WithWALRetry(n int) EngineOption {
	return func(c *engineConfig) { c.opts.WALRetry = n }
}

// WithOOBRebuildThreshold moves structural shard rebuilds of at least n
// vertices off the write path: the batch commits its cheap incremental
// work immediately, affected shards keep serving their pre-batch
// answers (listed in EngineStats.Degraded), and the rebuild runs out of
// band and swaps in atomically when done. 0 (the default) keeps every
// rebuild inline.
func WithOOBRebuildThreshold(n int) EngineOption {
	return func(c *engineConfig) { c.opts.OOBRebuildThreshold = n }
}

// WithMetrics enables the engine's observability layer: a metrics
// registry (latency histograms, counters, per-shard gauges) served by
// the Handler's GET /metrics in Prometheus text exposition format, and
// a ring of batch-lifecycle traces served by GET /debug/trace. The
// /stats counters are the same atomic words the registry scrapes, so
// the two surfaces cannot drift. Cache-hit reads execute no
// instrumentation at all; the overhead on cold reads is one clock pair
// per label join.
func WithMetrics() EngineOption {
	return func(c *engineConfig) { c.opts.Metrics = obs.New() }
}

// WithAccessLog writes one JSON line per completed HTTP request
// (timestamp, request id, method, path, matched route, status,
// duration, bytes) to w. Writes are serialized by the handler.
func WithAccessLog(w io.Writer) EngineOption {
	return func(c *engineConfig) { c.httpOpts.AccessLog = w }
}

// WithSlowQueryThreshold flags /cycle reads at or above d: the access
// line is marked slow and carries the queried vertex, and is emitted
// even without WithAccessLog (to stderr). 0 disables.
func WithSlowQueryThreshold(d time.Duration) EngineOption {
	return func(c *engineConfig) { c.httpOpts.SlowQuery = d }
}

// WithPprof mounts net/http/pprof under /debug/pprof/ on the Handler.
func WithPprof() EngineOption {
	return func(c *engineConfig) { c.httpOpts.Pprof = true }
}

// WithUpdateWorkers sets how many goroutines the writer uses to apply
// each coalesced batch (0 = all cores, 1 = sequential). The index plans
// every batch per strongly connected component and applies independent
// per-shard update streams concurrently; answers are identical for every
// worker count, so this is purely a throughput knob.
func WithUpdateWorkers(n int) EngineOption {
	return func(c *engineConfig) { c.opts.UpdateWorkers = n }
}

// WithReplicateTo ships every committed batch's WAL record to the
// follower daemon at baseURL (a cscd started with -follower, or any
// server accepting POST /repl/append in the WAL wire format). Shipping
// runs on the write path after local WAL durability: the happy path is
// synchronous — a batch is on the follower before Flush acknowledges it
// — and degrades to buffered background catch-up while the follower is
// unreachable, with the backlog exposed as the cscd_repl_lag_batches
// gauge. Engine.Close is a shipping barrier: it delivers (or reports)
// the in-flight backlog before the store closes.
func WithReplicateTo(baseURL string) EngineOption {
	return func(c *engineConfig) { c.replicateTo = baseURL }
}

// NewEngine wraps an index in a serving engine and starts its writer.
// The engine owns the index from here on: mutate only through the
// engine's methods. With WithWAL, a non-empty store directory wins over
// ix (the recovered state is served); use OpenEngine to avoid building
// an index that recovery would discard.
func NewEngine(ix *Index, options ...EngineOption) (*Engine, error) {
	return buildEngine(func() (*Index, error) { return ix, nil }, options)
}

// OpenEngine recovers an engine from a WAL directory, calling bootstrap
// only when the store is empty. The WAL directory is dir regardless of
// any WithWAL option.
func OpenEngine(dir string, bootstrap func() (*Index, error), options ...EngineOption) (*Engine, error) {
	options = append(options, WithWAL(dir))
	return buildEngine(bootstrap, options)
}

func buildEngine(bootstrap func() (*Index, error), options []EngineOption) (*Engine, error) {
	var cfg engineConfig
	for _, o := range options {
		o(&cfg)
	}
	var shipper *dist.Shipper
	if cfg.replicateTo != "" {
		shipper = dist.NewShipper(cfg.replicateTo, dist.ShipperOptions{Metrics: cfg.opts.Metrics})
		cfg.opts.Replication = shipper
	}
	var core *engine.Engine
	if cfg.dir != "" {
		var err error
		core, err = engine.Open(cfg.dir, func() (csc.Counter, error) {
			ix, err := bootstrap()
			if err != nil {
				return nil, err
			}
			return ix.x, nil
		}, cfg.opts)
		if err != nil {
			return nil, err
		}
	} else {
		ix, err := bootstrap()
		if err != nil {
			return nil, err
		}
		core = engine.New(ix.x, cfg.opts)
	}
	e := &Engine{e: core, ship: shipper, k: cfg.topK, httpOpts: cfg.httpOpts}
	if cfg.topK > 0 {
		e.watch = core.WatchTopK(cfg.topK)
	}
	return e, nil
}

// ReplicationLag reports how many committed batches the follower has not
// yet acknowledged (always 0 without WithReplicateTo).
func (e *Engine) ReplicationLag() uint64 {
	if e.ship == nil {
		return 0
	}
	return e.ship.Lag()
}

// Follower is the receiving end of WAL shipping: a store directory of
// its own that replays every shipped batch (WAL-append before apply, so
// its durable state is always a replayable prefix), snapshots
// periodically, and serves flagged stale reads meanwhile. Promote — or a
// router's POST /repl/promote — replays it to tip through the standard
// engine recovery path and swaps the full serving surface in.
type Follower struct {
	f  *dist.Follower
	fs *dist.FollowerServer
	// promoteOpts configures the engine a promotion opens.
	promoteOpts engine.Options
}

// OpenFollower opens (or recovers) a replication follower over dir.
// bootstrap must build the same initial index as the primary's bootstrap
// — shipped WAL records are deltas against it. The EngineOptions
// configure the follower's snapshot cadence and metrics now, and the
// promoted engine later.
func OpenFollower(dir string, bootstrap func() (*Index, error), options ...EngineOption) (*Follower, error) {
	var cfg engineConfig
	for _, o := range options {
		o(&cfg)
	}
	boot := func() (csc.Counter, error) {
		ix, err := bootstrap()
		if err != nil {
			return nil, err
		}
		return ix.x, nil
	}
	f, err := dist.OpenFollower(dir, boot, dist.FollowerOptions{
		SnapshotEvery: cfg.opts.SnapshotEvery,
		Metrics:       cfg.opts.Metrics,
	})
	if err != nil {
		return nil, err
	}
	return &Follower{
		f:           f,
		fs:          dist.NewFollowerServer(f, cfg.opts, cfg.httpOpts, cfg.opts.Metrics),
		promoteOpts: cfg.opts,
	}, nil
}

// Handler returns the follower's HTTP surface: POST /repl/append,
// GET /repl/status, POST /repl/promote, stale GET /cycle/{v}, /healthz,
// /stats, and /metrics. After promotion everything but /repl/* is served
// by the promoted engine's full handler.
func (f *Follower) Handler() http.Handler { return f.fs }

// Seq reports the sequence number the follower has replayed through.
func (f *Follower) Seq() uint64 { return f.f.Seq() }

// Promoted reports whether this follower has been promoted to primary.
func (f *Follower) Promoted() bool { return f.f.Promoted() }

// Promote replays the follower to its durable tip and returns only when
// the promoted engine is serving. Idempotent.
func (f *Follower) Promote() error {
	_, err := f.f.Promote(f.promoteOpts)
	return err
}

// Close shuts the follower (or its promoted engine) down.
func (f *Follower) Close() error { return f.f.Close() }

// CycleCount answers SCCnt(v) concurrently with updates. Out-of-range
// vertices report no cycle. Repeat reads of a vertex no batch has
// touched since are O(1): they come from the engine's epoch-tagged
// result cache, which batch commits expire for exactly the vertices
// whose labels changed.
func (e *Engine) CycleCount(v int) CycleResult {
	l, c := e.e.CycleCount(v)
	if l == bfscount.NoCycle {
		return CycleResult{}
	}
	return CycleResult{Exists: true, Length: l, Count: c}
}

// CycleCountBounded is CycleCount restricted to cycle lengths ≤ maxLen
// (the /cycle/{v}?maxlen=L query), served from the cache on a hit and
// by the bounded join kernel on a miss.
func (e *Engine) CycleCountBounded(v, maxLen int) CycleResult {
	l, c := e.e.CycleCountBounded(v, maxLen)
	if l == bfscount.NoCycle {
		return CycleResult{}
	}
	return CycleResult{Exists: true, Length: l, Count: c}
}

// InsertEdge enqueues an edge insertion. It returns once the op is
// mailed, not once it is applied — call Flush for read-your-writes.
// Inserting an edge that already exists is accepted and coalesced away.
func (e *Engine) InsertEdge(a, b int) error { return e.e.Insert(a, b) }

// DeleteEdge enqueues an edge deletion, with the same asynchrony and
// coalescing as InsertEdge.
func (e *Engine) DeleteEdge(a, b int) error { return e.e.Delete(a, b) }

// Flush blocks until everything enqueued before the call is applied and
// queryable (and WAL-durable, with WithWAL).
func (e *Engine) Flush() { e.e.Flush() }

// Snapshot flushes and writes a full snapshot, truncating the WAL.
func (e *Engine) Snapshot() error { return e.e.Snapshot() }

// Close drains the mailbox, applies what remains, syncs the store, and
// stops the writer. The engine cannot be reused afterwards.
func (e *Engine) Close() error { return e.e.Close() }

// NumVertices returns the (fixed) number of vertices served.
func (e *Engine) NumVertices() int { return e.e.NumVertices() }

// Top returns the current top-k ranking (empty without WithTopK).
func (e *Engine) Top() []RankedVertex {
	if e.watch == nil {
		return nil
	}
	var out []RankedVertex
	for _, s := range e.watch.Top() {
		out = append(out, RankedVertex{
			Vertex: s.Vertex,
			Result: CycleResult{Exists: true, Length: s.Length, Count: s.Count},
		})
	}
	return out
}

// Score returns the watched standing of one vertex (zero without
// WithTopK).
func (e *Engine) Score(v int) CycleResult {
	if e.watch == nil {
		return CycleResult{}
	}
	s := e.watch.Score(v)
	if !s.Exists {
		return CycleResult{}
	}
	return CycleResult{Exists: true, Length: s.Length, Count: s.Count}
}

// EngineStats is a point-in-time counter snapshot of a serving engine.
type EngineStats struct {
	// Vertices and Edges describe the served graph; Entries and
	// LabelBytes the logical label size (8 bytes per entry of the full
	// labeling, however much of it the store holds).
	Vertices, Edges, Entries, LabelBytes int
	// Queries counts CycleCount calls and CacheHits how many were served
	// from the result cache without a label join; OpsEnqueued/Applied/
	// Coalesced/Rejected track the mailbox; Batches and Seq count applied
	// batches; Snapshots and WALBytes describe the store.
	Queries, CacheHits, OpsEnqueued, OpsApplied, OpsCoalesced, OpsRejected uint64
	Batches, Seq, Snapshots                                                uint64
	WALBytes                                                               int64
	// QueueDepth/MailboxCap describe writer saturation; OpsShed and
	// OpsOverload count admission-policy drops and rejections.
	QueueDepth, MailboxCap int
	OpsShed, OpsOverload   uint64
	// WALRetries counts retried WAL appends; ReadOnly reports the
	// durability-lost degraded mode. Degraded lists shard slots serving
	// stale answers while an out-of-band rebuild is pending; OOBRebuilds
	// and OOBSuperseded count completed and discarded background rebuilds.
	WALRetries                 uint64
	ReadOnly                   bool
	Degraded                   []int
	OOBRebuilds, OOBSuperseded uint64
}

// Stats snapshots the engine counters; safe concurrently with updates.
func (e *Engine) Stats() EngineStats {
	s := e.e.Stats()
	return EngineStats{
		Vertices: s.Vertices, Edges: s.Edges, Entries: s.Entries, LabelBytes: s.LabelBytes,
		Queries: s.Queries, CacheHits: s.CacheHits, OpsEnqueued: s.OpsEnqueued, OpsApplied: s.OpsApplied,
		OpsCoalesced: s.OpsCoalesced, OpsRejected: s.OpsRejected,
		Batches: s.Batches, Seq: s.Seq, Snapshots: s.Snapshots, WALBytes: s.WALBytes,
		QueueDepth: s.QueueDepth, MailboxCap: s.MailboxCap,
		OpsShed: s.OpsShed, OpsOverload: s.OpsOverload,
		WALRetries: s.WALRetries, ReadOnly: s.ReadOnly, Degraded: s.Degraded,
		OOBRebuilds: s.OOBRebuilds, OOBSuperseded: s.OOBSuperseded,
	}
}

// WaitRebuilds flushes and blocks until no out-of-band rebuild is
// pending (only meaningful with WithOOBRebuildThreshold): afterwards
// every shard serves fresh answers.
func (e *Engine) WaitRebuilds() error { return e.e.WaitRebuilds() }

// Err reports the first durability error, if any. After one the engine
// serves reads only: updates fail with engine.ErrReadOnly until a
// successful Snapshot heals the store.
func (e *Engine) Err() error { return e.e.Err() }

// WriteTo flushes pending batches and serializes the served index (the
// same format as Index.WriteTo) without blocking concurrent readers.
func (e *Engine) WriteTo(w io.Writer) (int64, error) { return e.e.WriteTo(w) }

// Handler returns the engine's HTTP+JSON API — the same surface the cscd
// daemon listens on (GET /cycle/{v}, GET /top, POST and DELETE /edges,
// GET /stats, GET /healthz, plus GET /metrics and GET /debug/trace with
// WithMetrics; see internal/serve for the wire format). The handler is
// built once and memoized: repeat calls return the same handler.
func (e *Engine) Handler() http.Handler {
	e.handlerOnce.Do(func() {
		e.handler = serve.NewHandler(e.e, e.watch, e.k, e.httpOpts)
	})
	return e.handler
}

// CycleCountBFS answers SCCnt(v) without an index by the paper's BFS
// baseline (Algorithm 1) in O(n+m) time. Useful for one-off queries or
// cross-checking.
func CycleCountBFS(g *Graph, v int) CycleResult {
	l, c := bfscount.CycleCount(g, v)
	if l == bfscount.NoCycle {
		return CycleResult{}
	}
	return CycleResult{Exists: true, Length: l, Count: c}
}
