package main

import (
	"context"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/csc"
	"repro/internal/dist"
	"repro/internal/engine"
	"repro/internal/graph"
	"repro/internal/monitor"
	"repro/internal/obs"
	"repro/internal/partition"
	"repro/internal/pll"
	"repro/internal/serve"
)

// tracedOp is one op of the traced replay: the workload's own request
// sequence, numbered from 1.
type tracedOp struct {
	req
	id     int
	stream int           // which client of the workload issued it
	closed bool          // issued closed loop: at is nominal
	at     time.Duration // offset in the workload's schedule
}

// traceSpan is how much of the workload's schedule the traced run
// replays, before the scale's caps on reads and writes.
const traceSpan = 3 * time.Second

// A workload that sends no writes (lookup) still reports the cost of the
// write path's layers: its traced replay ends with a probe of probePairs
// insert+delete pairs, open loop at probeRate pairs per second. The probe
// starts after the workload's own reads, which replay undisturbed.
const (
	probePairs = 32
	probeRate  = 20.0
)

// tracedOps rebuilds the first part of workload wl's op sequence from the
// same seeded generators the served run uses, merged in schedule order.
func (r *runner) tracedOps(wl string) []tracedOp {
	span := min(r.window, traceSpan)
	var ops []tracedOp
	streams := r.plan(wl)
	for si, s := range streams {
		var units [][]req
		if s.rate > 0 {
			for i := 0; float64(i)/s.rate < span.Seconds(); i++ {
				units = append(units, s.unit(i))
			}
		} else {
			// Closed loop: as many units as the caps admit, spread evenly
			// over the span so they interleave with the other stream.
			reads, writes := 0, 0
			for i := 0; reads < r.sc.traceReads && writes < r.sc.traceWrites; i++ {
				u := s.unit(i)
				for _, q := range u {
					if q.kind == opRead {
						reads++
					} else {
						writes++
					}
				}
				units = append(units, u)
			}
		}
		for i, u := range units {
			at := span * time.Duration(i) / time.Duration(len(units))
			if s.rate > 0 {
				at = time.Duration(float64(i) / s.rate * float64(time.Second))
			}
			for _, q := range u {
				ops = append(ops, tracedOp{req: q, stream: si, closed: s.rate <= 0, at: at})
			}
		}
	}
	if !slices.ContainsFunc(ops, func(op tracedOp) bool { return op.kind != opRead }) {
		probe := r.pairs(probeRate, false)
		for i := range probePairs {
			at := span + time.Duration(float64(i)/probeRate*float64(time.Second))
			for _, q := range probe.unit(i) {
				ops = append(ops, tracedOp{req: q, stream: len(streams), at: at})
			}
		}
	}
	sort.SliceStable(ops, func(i, j int) bool { return ops[i].at < ops[j].at })
	out := ops[:0]
	reads, writes := 0, 0
	for _, op := range ops {
		if op.kind == opRead {
			if reads == r.sc.traceReads {
				continue
			}
			reads++
		} else {
			if writes == r.sc.traceWrites {
				continue
			}
			writes++
		}
		op.id = len(out) + 1
		out = append(out, op)
	}
	return out
}

// buildIndex builds the sharded index over a copy of the initial graph
// with the daemon's default build options.
func (r *runner) buildIndex() (csc.Counter, error) {
	x, _ := csc.BuildSharded(r.l.g.Clone(), csc.Options{})
	return x, nil
}

// openEngine opens an engine configured as cscd configures it (WAL on,
// metrics on, the daemon's batch and snapshot defaults) in a fresh store.
func (r *runner) openEngine(name string, k int, repl engine.ReplSink) (*engine.Engine, *monitor.TopK, error) {
	e, err := engine.Open(filepath.Join(r.dir, "twins", name), r.buildIndex, engine.Options{
		WALRetry: 3, Metrics: obs.New(), Replication: repl,
	})
	if err != nil {
		return nil, nil, err
	}
	var m *monitor.TopK
	if k > 0 {
		m = e.WatchTopK(k)
	}
	return e, m, nil
}

func layerName(layer string, op tracedOp) string {
	if op.kind == opRead {
		return layer + ".read"
	}
	return layer + ".write"
}

func engineOp(op tracedOp) engine.Op {
	k := engine.OpInsert
	if op.kind == opDelete {
		k = engine.OpDelete
	}
	return engine.Op{Kind: k, A: int32(op.a), B: int32(op.b)}
}

func cscOp(kind opKind, a, b int) csc.EdgeOp {
	if kind == opDelete {
		return csc.Del(a, b)
	}
	return csc.Ins(a, b)
}

func httpRequest(op tracedOp) *http.Request {
	if op.kind == opRead {
		return httptest.NewRequest(http.MethodGet, "/cycle/"+strconv.Itoa(op.a), nil)
	}
	body := fmt.Sprintf(`{"edges":[[%d,%d]]}`, op.a, op.b)
	return httptest.NewRequest(methods[op.kind], "/edges?flush=1", strings.NewReader(body))
}

// layerRun collects what the twins measured besides spans.
type layerRun struct {
	tr       *tracer
	ops      int
	failed   int
	errs     []string
	misses   map[int]bool // engine twin: reads that missed the result cache
	hitFrac  float64
	walBytes int64
	writes   int
	pll      pllSamples
	rebuilds int
	dirty    []float64
	counts   struct{ entries, shards, trivial, n int }
	conc     concurrentOut
}

func (lr *layerRun) fail(err error) {
	lr.failed++
	if len(lr.errs) < 5 {
		lr.errs = append(lr.errs, err.Error())
	}
}

// pllSamples are the label-maintenance costs of single-op batches that
// ran decremental or incremental maintenance inside one shard (no
// component rebuild), from the UpdateStats ApplyBatch returns.
type pllSamples struct {
	delMS, insMS                  []float64
	visited, removed, affectedHub []float64
}

// pllMinSamples is how many decremental deletes every traced run reports.
const pllMinSamples = 8

// add records a batch that did not rebuild a component; one that touched
// no hub label ran no maintenance and is not a sample.
func (p *pllSamples) add(kind opKind, us pll.UpdateStats) {
	if us.AffectedHubs == 0 {
		return
	}
	ms := float64(us.BuildDuration) / float64(time.Millisecond)
	if kind == opInsert {
		p.insMS = append(p.insMS, ms)
		return
	}
	p.delMS = append(p.delMS, ms)
	p.visited = append(p.visited, float64(us.Visited))
	p.removed = append(p.removed, float64(us.EntriesRemoved))
	p.affectedHub = append(p.affectedHub, float64(us.AffectedHubs))
}

// wireTwin replays the ops against a real cscd over one connection.
func (r *runner) wireTwin(ctx context.Context, wl string, ops []tracedOp, lr *layerRun) error {
	ports, err := freePorts(1)
	if err != nil {
		return err
	}
	args := []string{"-data", filepath.Join(r.dir, "twins", "wire"), "-graph", r.graphFile}
	if k := topKFor(wl); k > 0 {
		args = append(args, "-k", strconv.Itoa(k))
	}
	c, err := procs.start(r.logs, "wire", filepath.Join(r.bin, "cscd"), ports[0], args...)
	if err != nil {
		return err
	}
	defer procs.kill(c)
	if err := waitReady(ctx, c, "/healthz?ready=1"); err != nil {
		return err
	}
	if err := verifyIdentity(c, r.l.g.NumVertices()); err != nil {
		return err
	}
	cn := newConn(c.url)
	defer cn.close()
	for _, op := range ops {
		t0 := time.Now()
		_, err := cn.do(op.req)
		lr.tr.since(layerName("wire", op), op.id, t0)
		if err != nil {
			lr.fail(err)
		}
	}
	return nil
}

// serveTwin replays the ops through the HTTP handler in process.
func (r *runner) serveTwin(wl string, ops []tracedOp, lr *layerRun) error {
	k := topKFor(wl)
	e, m, err := r.openEngine("serve", k, nil)
	if err != nil {
		return err
	}
	h := serve.NewHandler(e, m, k, serve.Options{})
	for _, op := range ops {
		hr := httpRequest(op)
		rec := httptest.NewRecorder()
		t0 := time.Now()
		h.ServeHTTP(rec, hr)
		lr.tr.since(layerName("serve", op), op.id, t0)
		if rec.Code != http.StatusOK {
			lr.fail(fmt.Errorf("serve twin: %s: status %d", hr.URL.Path, rec.Code))
		}
	}
	return e.Close()
}

// engineTwin replays the ops through the engine's public read and write
// entry points and notes which reads missed the result cache.
func (r *runner) engineTwin(wl string, ops []tracedOp, lr *layerRun) error {
	e, _, err := r.openEngine("engine", topKFor(wl), nil)
	if err != nil {
		return err
	}
	ctx := context.Background()
	lr.misses = map[int]bool{}
	reads := 0
	for _, op := range ops {
		if op.kind == opRead {
			hits := e.Stats().CacheHits
			t0 := time.Now()
			_, _, err = e.CycleCountCtx(ctx, op.a)
			lr.tr.since("engine.read", op.id, t0)
			reads++
			if e.Stats().CacheHits == hits {
				lr.misses[op.id] = true
			}
		} else {
			t0 := time.Now()
			err = e.EnqueueEdgeCtx(ctx, engineOp(op).Kind, op.a, op.b)
			e.Flush()
			lr.tr.since("engine.write", op.id, t0)
		}
		if err != nil {
			lr.fail(fmt.Errorf("engine twin: %w", err))
		}
	}
	if reads > 0 {
		lr.hitFrac = float64(reads-len(lr.misses)) / float64(reads)
	}
	return e.Close()
}

// indexTwin measures the layers below the engine on one instance: graph
// parsing, SCC partitioning, the sharded index build, its reads and
// batches, the top-k monitor's warm pass and rescores, and the WAL store.
// These layers are siblings under the engine and their spans never
// overlap, so they share the index.
func (r *runner) indexTwin(wl string, ops []tracedOp, lr *layerRun) error {
	tr := lr.tr
	t0 := time.Now()
	f, err := os.Open(r.graphFile)
	if err != nil {
		return err
	}
	g, err := graph.ReadEdgeList(f)
	f.Close()
	if err != nil {
		return err
	}
	tr.since("graph.parse", 0, t0)
	t0 = time.Now()
	partition.SCC(g)
	tr.since("partition.scc", 0, t0)
	t0 = time.Now()
	x, _ := csc.BuildSharded(g, csc.Options{})
	tr.since("csc.build", 0, t0)
	t0 = time.Now()
	m := monitor.NewParallel(x, topK, 0)
	tr.since("monitor.warm", 0, t0)
	lr.counts.entries, lr.counts.shards = x.EntryCount(), x.NumShards()
	lr.counts.trivial, lr.counts.n = x.TrivialVertices(), g.NumVertices()

	dir := filepath.Join(r.dir, "twins", "index")
	st, err := engine.OpenStore(dir)
	if err != nil {
		return err
	}
	if _, _, err := st.Recover(func() (csc.Counter, error) { return x, nil }); err != nil {
		st.Close()
		return err
	}
	var seq uint64
	snapshot := func(id int) error {
		t0 := time.Now()
		err := st.WriteSnapshot(seq, x)
		tr.since("wal.snapshot", id, t0)
		return err
	}
	rebuilds0 := x.BatchRebuilds()
	for _, op := range ops {
		if op.kind == opRead {
			t0 := time.Now()
			x.CycleCount(op.a)
			tr.since("csc.read", op.id, t0)
			continue
		}
		seq++
		lr.writes++
		walBefore := st.WALBytes()
		t0 := time.Now()
		err := st.Append(seq, []engine.Op{engineOp(op)})
		tr.since("wal.append", op.id, t0)
		if err != nil {
			st.Close()
			return err
		}
		lr.walBytes += st.WALBytes() - walBefore
		rebuilt := x.BatchRebuilds()
		t0 = time.Now()
		us, err := x.ApplyBatch([]csc.EdgeOp{cscOp(op.kind, op.a, op.b)}, 0)
		id := tr.since("csc.write", op.id, t0)
		if err != nil {
			st.Close()
			return fmt.Errorf("index twin: %w", err)
		}
		tr.add("csc.plan", op.id, id, t0, t0.Add(us.PlanDuration))
		dirty := csc.DirtyVertices(us)
		lr.dirty = append(lr.dirty, float64(len(dirty)))
		if x.BatchRebuilds() == rebuilt {
			lr.pll.add(op.kind, us)
		}
		t0 = time.Now()
		m.RescoreDirty(dirty)
		tr.since("monitor.rescore", op.id, t0)
		if seq%64 == 0 { // the daemon's default snapshot cadence
			if err := snapshot(op.id); err != nil {
				st.Close()
				return err
			}
		}
	}
	lr.rebuilds = x.BatchRebuilds() - rebuilds0
	// A workload whose own deletes never reach decremental repair (they
	// split components, or touch no shard) still reports the layer's
	// cost: delete and re-insert proven non-bridge core edges until the
	// layer has pllMinSamples deletes. The pairs restore the edge set.
	for i := 0; len(lr.pll.delMS) < pllMinSamples && i < len(r.l.repairEdges); i++ {
		e := r.l.repairEdges[i]
		for _, kind := range []opKind{opDelete, opInsert} {
			us, err := x.ApplyBatch([]csc.EdgeOp{cscOp(kind, e[0], e[1])}, 0)
			if err != nil {
				st.Close()
				return fmt.Errorf("index twin: %w", err)
			}
			lr.pll.add(kind, us)
		}
	}
	if err := st.Close(); err != nil {
		return err
	}
	// Recovery: reopen the store, load its snapshot (or rebuild from the
	// graph) and replay the WAL tail.
	t0 = time.Now()
	st, err = engine.OpenStore(dir)
	if err != nil {
		return err
	}
	rx, _, err := st.Recover(r.buildIndex)
	tr.since("wal.replay", 0, t0)
	if err != nil {
		st.Close()
		return err
	}
	if seq < 64 {
		// Too few writes for the periodic cadence: take one snapshot so
		// every workload reports the snapshot cost.
		x = rx.(*csc.Sharded)
		if err := snapshot(0); err != nil {
			st.Close()
			return err
		}
	}
	return st.Close()
}

// routerTwin replays the ops through dist.Router in front of two
// in-process worker groups; group 0's primary ships its WAL records to a
// follower. Worker and follower handlers record their own spans, which
// nest inside the router's.
func (r *runner) routerTwin(wl string, ops []tracedOp, lr *layerRun) (err error) {
	k := topKFor(wl)
	tr := lr.tr
	var cur atomic.Int64 // request id being replayed
	wrap := func(name string, h http.Handler, paths ...string) http.Handler {
		return http.HandlerFunc(func(w http.ResponseWriter, q *http.Request) {
			t0 := time.Now()
			h.ServeHTTP(w, q)
			for _, p := range paths {
				if strings.HasPrefix(q.URL.Path, p) {
					kind := ".write"
					if q.Method == http.MethodGet {
						kind = ".read"
					}
					if name == "dist.ship" {
						kind = ".apply"
					}
					tr.since(name+kind, int(cur.Load()), t0)
				}
			}
		})
	}
	f, err := dist.OpenFollower(filepath.Join(r.dir, "twins", "f0"), r.buildIndex, dist.FollowerOptions{})
	if err != nil {
		return err
	}
	defer func() {
		if cerr := f.Close(); err == nil {
			err = cerr
		}
	}()
	fts := httptest.NewServer(wrap("dist.ship", dist.NewFollowerServer(f, engine.Options{}, serve.Options{}, nil), "/repl/append"))
	defer fts.Close()
	ship := dist.NewShipper(fts.URL, dist.ShipperOptions{})
	var groups []dist.GroupConfig
	var engines []*engine.Engine
	defer func() {
		for _, e := range engines {
			if cerr := e.Close(); err == nil {
				err = cerr
			}
		}
	}()
	for gi, repl := range []engine.ReplSink{ship, nil} {
		e, m, err := r.openEngine("g"+strconv.Itoa(gi), k, repl)
		if err != nil {
			return err
		}
		engines = append(engines, e)
		ts := httptest.NewServer(wrap("dist.g"+strconv.Itoa(gi), serve.NewHandler(e, m, k, serve.Options{}), "/cycle/", "/edges"))
		defer ts.Close()
		cfg := dist.GroupConfig{Primary: ts.URL}
		if gi == 0 {
			cfg.Follower = fts.URL
		}
		groups = append(groups, cfg)
	}
	shardOf, stats, _ := engines[0].ShardTable()
	rt, err := dist.NewRouter(dist.BuildTable(shardOf, stats, len(groups)), groups, dist.RouterOptions{
		ProbeInterval: probeInterval, TableRefresh: tableRefresh,
	})
	if err != nil {
		return err
	}
	defer rt.Close()
	h := rt.Handler()
	for _, op := range ops {
		cur.Store(int64(op.id))
		hr := httpRequest(op)
		rec := httptest.NewRecorder()
		t0 := time.Now()
		h.ServeHTTP(rec, hr)
		tr.since(layerName("dist", op), op.id, t0)
		if rec.Code != http.StatusOK {
			lr.fail(fmt.Errorf("router twin: %s: status %d", hr.URL.Path, rec.Code))
		}
	}
	return nil
}

// concurrentOut is what the schedule-keeping replay measured.
type concurrentOut struct {
	reads []time.Duration
	waits int // reads that overlapped an in-flight write and took ≥ waitFloor
	lags  []time.Duration
}

// waitFloor separates a read that waited on the writer's grace period
// from an uncontended one, which costs about a microsecond in process.
const waitFloor = 20 * time.Microsecond

// concurrentTwin replays the ops against one engine with each of the
// workload's clients on its own goroutine, keeping the open-loop
// schedule, so reads wait behind write grace periods as they do when
// served.
func (r *runner) concurrentTwin(wl string, ops []tracedOp, lr *layerRun) error {
	e, _, err := r.openEngine("concurrent", topKFor(wl), nil)
	if err != nil {
		return err
	}
	type interval struct{ s, e time.Time }
	var (
		mu     sync.Mutex
		writes []interval
		reads  []interval
		wg     sync.WaitGroup
		failed atomic.Int64
	)
	byStream := map[int][]tracedOp{}
	for _, op := range ops {
		byStream[op.stream] = append(byStream[op.stream], op)
	}
	start := time.Now().Add(5 * time.Millisecond)
	ctx := context.Background()
	for _, sops := range byStream {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var lags []time.Duration
			var mine, mineW []interval
			for _, op := range sops {
				// As when served: only a release the client was idle for
				// measures the timer; an op already overdue queued behind
				// this client's previous op, which is the system's delay.
				due := start.Add(op.at)
				if wait := time.Until(due); wait > 0 && !op.closed {
					time.Sleep(wait)
					lags = append(lags, time.Since(due))
				}
				t0 := time.Now()
				var err error
				if op.kind == opRead {
					_, _, err = e.CycleCountCtx(ctx, op.a)
					mine = append(mine, interval{t0, time.Now()})
				} else {
					err = e.EnqueueEdgeCtx(ctx, engineOp(op).Kind, op.a, op.b)
					e.Flush()
					mineW = append(mineW, interval{t0, time.Now()})
				}
				if err != nil {
					failed.Add(1)
				}
			}
			mu.Lock()
			reads = append(reads, mine...)
			writes = append(writes, mineW...)
			lr.conc.lags = append(lr.conc.lags, lags...)
			mu.Unlock()
		}()
	}
	wg.Wait()
	if n := failed.Load(); n > 0 {
		lr.fail(fmt.Errorf("concurrent twin: %d ops failed", n))
	}
	sort.Slice(writes, func(i, j int) bool { return writes[i].s.Before(writes[j].s) })
	for _, rd := range reads {
		d := rd.e.Sub(rd.s)
		lr.conc.reads = append(lr.conc.reads, d)
		if d < waitFloor {
			continue
		}
		// Writes on one stream never overlap each other, so the write that
		// started last before the read ended is the only candidate.
		i := sort.Search(len(writes), func(i int) bool { return !writes[i].s.Before(rd.e) })
		if i > 0 && writes[i-1].e.After(rd.s) {
			lr.conc.waits++
		}
	}
	return e.Close()
}

// traced runs every layer twin over workload wl's traced op sequence and
// returns the per-layer metrics. Spans are written to r.spans.
func (r *runner) traced(ctx context.Context, wl string) (*result, error) {
	ops := r.tracedOps(wl)
	lr := &layerRun{tr: newTracer(), ops: len(ops)}
	steps := []struct {
		name string
		run  func() error
	}{
		{"wire", func() error { return r.wireTwin(ctx, wl, ops, lr) }},
		{"serve", func() error { return r.serveTwin(wl, ops, lr) }},
		{"engine", func() error { return r.engineTwin(wl, ops, lr) }},
		{"index", func() error { return r.indexTwin(wl, ops, lr) }},
		{"router", func() error { return r.routerTwin(wl, ops, lr) }},
		{"concurrent", func() error { return r.concurrentTwin(wl, ops, lr) }},
	}
	for _, s := range steps {
		if err := s.run(); err != nil {
			return nil, fmt.Errorf("%s twin: %w", s.name, err)
		}
		if err := os.RemoveAll(filepath.Join(r.dir, "twins")); err != nil {
			return nil, err
		}
	}
	linkLayers(lr.tr, topKFor(wl) > 0, lr.misses)
	if r.spans != "" {
		if err := lr.tr.write(r.spans); err != nil {
			return nil, err
		}
	}
	res := newResult(r, wl, true)
	res.Attempted = len(steps) * lr.ops
	res.Failed = lr.failed
	res.Errors = lr.errs
	layerMetrics(res, lr)
	return res, nil
}

// linkLayers sets the parent of each layer's spans to the layer above's
// span for the same request. A read reaches the index only when it misses
// the engine's result cache; the monitor rescores on the write path only
// when the daemon keeps a watchlist.
func linkLayers(tr *tracer, watch bool, misses map[int]bool) {
	for _, p := range [][2]string{
		{"serve.read", "wire.read"}, {"engine.read", "serve.read"},
		{"serve.write", "wire.write"}, {"engine.write", "serve.write"},
		{"wal.append", "engine.write"}, {"csc.write", "engine.write"},
		{"dist.g0.read", "dist.read"}, {"dist.g1.read", "dist.read"},
		{"dist.g0.write", "dist.write"}, {"dist.g1.write", "dist.write"},
		{"dist.ship.apply", "dist.g0.write"},
	} {
		tr.link(p[0], p[1])
	}
	if watch {
		tr.link("monitor.rescore", "engine.write")
	}
	tr.mu.Lock()
	defer tr.mu.Unlock()
	for req, ci := range tr.at["csc.read"] {
		if pi, ok := tr.at["engine.read"][req]; ok && misses[req] {
			tr.spans[ci].Parent = tr.spans[pi].ID
		}
	}
}

// layerMetrics derives the per-layer metrics from the spans and counts.
func layerMetrics(res *result, lr *layerRun) {
	tr := lr.tr
	us, ms := time.Microsecond, time.Millisecond
	one := func(name string, unit time.Duration) float64 { return median(tr.durs(name, unit)) }
	res.set("graph.parse_ms", one("graph.parse", ms), "ms")
	res.set("partition.scc_ms", one("partition.scc", ms), "ms")
	res.set("csc.build_ms", one("csc.build", ms), "ms")
	res.set("monitor.warm_ms", one("monitor.warm", ms), "ms")
	res.set("label.entries", float64(lr.counts.entries), "count")
	res.set("csc.shards", float64(lr.counts.shards), "count")
	res.set("csc.trivial_frac", float64(lr.counts.trivial)/float64(lr.counts.n), "frac")

	res.set("wire.read.us_p50", median(tr.self("wire.read", us, "serve.read")), "us")
	serveRead := tr.self("serve.read", us, "engine.read")
	res.set("serve.read.self_us_p50", median(serveRead), "us")
	res.set("serve.read.self_us_p99", quantile(serveRead, 0.99), "us")
	var engRead []float64
	for req := range tr.at["engine.read"] {
		s, _ := tr.get("engine.read", req)
		d := s.dur()
		if lr.misses[req] {
			if c, ok := tr.get("csc.read", req); ok {
				d -= c.dur()
			}
		}
		engRead = append(engRead, float64(d)/float64(us))
	}
	res.set("engine.read.self_us_p50", median(engRead), "us")
	res.set("engine.read.hit_frac", lr.hitFrac, "frac")
	res.set("engine.read.us_p99", quantile(durs(lr.conc.reads, us), 0.99), "us")
	res.set("engine.read.wait_frac", frac(lr.conc.waits, len(lr.conc.reads)), "frac")
	res.set("csc.read.us_p50", one("csc.read", us), "us")

	res.set("dist.read.self_us_p50", median(tr.self("dist.read", us, "dist.g0.read", "dist.g1.read")), "us")
	local := 0
	for req := range tr.at["dist.read"] {
		_, p0 := tr.get("dist.g0.read", req)
		_, p1 := tr.get("dist.g1.read", req)
		if !p0 && !p1 {
			local++
		}
	}
	res.set("dist.read.local_frac", frac(local, len(tr.at["dist.read"])), "frac")
	res.set("dist.write.self_ms_p50", median(tr.self("dist.write", ms, "dist.g0.write", "dist.g1.write")), "ms")
	res.set("dist.ship.apply_ms_p50", one("dist.ship.apply", ms), "ms")

	res.set("serve.write.self_us_p50", median(tr.self("serve.write", us, "engine.write")), "us")
	below := []string{"wal.append", "csc.write"}
	if res.watch {
		below = append(below, "monitor.rescore")
	}
	res.set("engine.write.self_ms_p50", median(tr.self("engine.write", ms, below...)), "ms")

	walUS := tr.durs("wal.append", us)
	res.set("wal.append_us_p50", median(walUS), "us")
	res.set("wal.append_us_p99", quantile(walUS, 0.99), "us")
	res.set("wal.snapshot_ms", one("wal.snapshot", ms), "ms")
	res.set("wal.bytes_per_op", float64(lr.walBytes)/float64(max(lr.writes, 1)), "B")
	res.set("wal.replay_ms", one("wal.replay", ms), "ms")

	cscMS := tr.durs("csc.write", ms)
	res.set("csc.write.ms_p50", median(cscMS), "ms")
	res.set("csc.write.ms_p99", quantile(cscMS, 0.99), "ms")
	res.set("csc.write.plan_ms_p50", one("csc.plan", ms), "ms")
	res.set("csc.write.rebuilds", float64(lr.rebuilds), "count")
	res.set("csc.write.dirty_per_batch", mean(lr.dirty), "count")

	p := lr.pll
	res.set("pll.delete.ms_p50", median(p.delMS), "ms")
	res.set("pll.delete.ms_p99", quantile(p.delMS, 0.99), "ms")
	res.set("pll.delete.visited_p50", median(p.visited), "count")
	res.set("pll.delete.entries_removed_p50", median(p.removed), "count")
	res.set("pll.delete.affected_hubs_p50", median(p.affectedHub), "count")
	res.set("pll.insert.ms_p50", median(p.insMS), "ms")
	res.set("monitor.rescore.us_p50", one("monitor.rescore", us), "us")

	res.lag(lr.conc.lags)
	res.set("gen.late_frac", res.Harness.LateFrac, "frac")
	res.set("gen.lag_p99_ms", res.Harness.LagP99MS, "ms")
}

func frac(a, b int) float64 {
	if b == 0 {
		return 0
	}
	return float64(a) / float64(b)
}
