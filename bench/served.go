package main

import (
	"context"
	"errors"
	"fmt"
	"path/filepath"
	"strconv"
	"time"

	"repro/internal/graph"
)

// Offered load of the open-loop streams, in units per second (a unit is
// one request or one transaction). lookup's readers and repair's writer
// run closed loop instead: their answered requests per second are the
// workload's capacity. The open-loop write streams run at about a fifth
// of what the daemons sustain on two vCPUs: a component rebuild or
// snapshot holds the writer for 80-100ms, and near saturation the
// transactions queued behind one put the median in the queue, where it
// swings from run to run.
const (
	txnRate        = 15.0   // txn-stream insert+delete transactions
	txnReadRate    = 1000.0 // txn-stream reads
	repairReadRate = 20.0   // repair reads
	routedTxnRate  = 5.0    // routed insert+delete pairs, each applied by three daemons
	routedReadRate = 1000.0 // routed reads
	topK           = 16     // cscd -k for the workloads with a watchlist
	rawCheckEvery  = 10     // txn-stream: check the first read of every 10th transaction
)

// tableRefresh and probeInterval are cscrouter's defaults: the router
// re-fetches the shard table at the first probe tick after tableRefresh.
// The routed workload's oracle check waits for one refresh, so that the
// router's own trivial-vertex answers have caught up with the writes.
const (
	tableRefresh  = 2 * time.Second
	probeInterval = 250 * time.Millisecond
)

// topo is one booted serving topology.
type topo struct {
	front   *child   // where the traffic goes: cscd, or the router
	restart *child   // the daemon recovery_s kills and restarts (single-daemon workloads)
	daemons []*child // primaries whose /stats edge count must match the oracle
	all     []*child // everything whose memory counts
}

func (t *topo) kill() {
	if t == nil {
		return
	}
	for _, c := range t.all {
		procs.kill(c)
	}
}

func (t *topo) replace(old, nc *child) {
	for _, list := range [][]*child{t.all, t.daemons} {
		for i, c := range list {
			if c == old {
				list[i] = nc
			}
		}
	}
	if t.front == old {
		t.front = nc
	}
	t.restart = nc
}

// boot starts workload wl's topology in a fresh store directory and
// returns it with the time from the first start to readiness.
func (r *runner) boot(ctx context.Context, wl string, k int) (*topo, time.Duration, error) {
	base := filepath.Join(r.dir, "boot"+strconv.Itoa(k))
	cscd := filepath.Join(r.bin, "cscd")
	n := r.l.g.NumVertices()
	args := func(name string, extra ...string) []string {
		return append([]string{"-data", filepath.Join(base, name), "-graph", r.graphFile}, extra...)
	}
	ports, err := freePorts(4)
	if err != nil {
		return nil, 0, err
	}
	t := &topo{}
	start := func(name, bin string, port int, a ...string) (*child, error) {
		c, err := procs.start(r.logs, fmt.Sprintf("boot%d-%s", k, name), bin, port, a...)
		if err == nil {
			t.all = append(t.all, c)
		}
		return c, err
	}
	ready := func(cs ...*child) error {
		for _, c := range cs {
			if err := waitReady(ctx, c, "/healthz?ready=1"); err != nil {
				return err
			}
			if err := verifyIdentity(c, n); err != nil {
				return err
			}
		}
		return nil
	}
	t0 := time.Now()
	if wl != "routed" {
		var extra []string
		if k := topKFor(wl); k > 0 {
			extra = []string{"-k", strconv.Itoa(k)}
		}
		c, err := start("cscd", cscd, ports[0], args("cscd", extra...)...)
		if err != nil {
			return t, 0, err
		}
		if err := waitReady(ctx, c, "/healthz?ready=1"); err != nil {
			return t, 0, err
		}
		d := time.Since(t0)
		t.front, t.restart, t.daemons = c, c, []*child{c}
		return t, d, verifyIdentity(c, n)
	}
	// routed: group 0 is a primary shipping its WAL to a follower, group 1
	// a lone primary, and the router in front of both.
	f0, err := start("f0", cscd, ports[1], args("f0", "-follower")...)
	if err != nil {
		return t, 0, err
	}
	p0, err := start("p0", cscd, ports[0], args("p0", "-replicate-to", f0.url)...)
	if err != nil {
		return t, 0, err
	}
	p1, err := start("p1", cscd, ports[2], args("p1")...)
	if err != nil {
		return t, 0, err
	}
	if err := ready(p0, f0, p1); err != nil {
		return t, 0, err
	}
	rt, err := start("router", filepath.Join(r.bin, "cscrouter"), ports[3],
		"-group", p0.url+","+f0.url, "-group", p1.url)
	if err != nil {
		return t, 0, err
	}
	if err := waitReady(ctx, rt, "/healthz?ready=1"); err != nil {
		return t, 0, err
	}
	d := time.Since(t0)
	t.front, t.daemons = rt, []*child{p0, p1}
	return t, d, verifyIdentity(rt, n)
}

// topKFor is the cscd -k of workload wl: the write-heavy single-daemon
// workloads keep a top-k watchlist, lookup (the write-path control) and
// the routed workers do not.
func topKFor(wl string) int {
	if wl == "txn-stream" || wl == "repair" {
		return topK
	}
	return 0
}

// plan builds workload wl's two streams, without connections. On lookup
// both read closed loop. Elsewhere stream 0 is the only writer (closed
// loop on repair) and stream 1 reads open loop.
func (r *runner) plan(wl string) []*stream {
	switch wl {
	case "lookup":
		return []*stream{r.reads(0, 0), r.reads(0, 1)}
	case "txn-stream":
		return []*stream{r.pairs(txnRate, true), r.reads(txnReadRate, 1)}
	case "repair":
		edges := r.l.repairEdges
		return []*stream{{unit: func(i int) []req {
			e := edges[i%len(edges)]
			return []req{{kind: opDelete, a: e[0], b: e[1]}, {kind: opInsert, a: e[0], b: e[1]}}
		}}, r.reads(repairReadRate, 1)}
	}
	return []*stream{r.pairs(routedTxnRate, false), r.reads(routedReadRate, 1)}
}

// reads is a stream of Zipf reads drawn from its own random source.
func (r *runner) reads(rate float64, source int64) *stream {
	z := newZipfReads(r.l.g.NumVertices(), r.seed, source)
	return &stream{rate: rate, unit: func(int) []req { return []req{{kind: opRead, a: z.next()}} }}
}

// pairs is a stream of insert+delete pairs of background edges, each
// followed by reads of the new edge's endpoints when withReads is set.
func (r *runner) pairs(rate float64, withReads bool) *stream {
	tg := newTxnGen(r.l, r.seed)
	return &stream{rate: rate, unit: func(i int) []req {
		ins, del := tg.next()
		u := []req{{kind: opInsert, a: ins[0], b: ins[1]}, {kind: opDelete, a: del[0], b: del[1]}}
		if withReads {
			u = append(u,
				req{kind: opRead, a: ins[0], check: i%rawCheckEvery == 0},
				req{kind: opRead, a: ins[1]})
		}
		return u
	}}
}

// recovers reports whether workload wl times recovery_s: the workloads
// whose single daemon takes a steady write stream.
func recovers(wl string) bool { return wl == "txn-stream" || wl == "repair" }

// served runs workload wl end to end against the real daemons and returns
// its end-to-end metrics.
func (r *runner) served(ctx context.Context, wl string) (*result, error) {
	res := newResult(r, wl, false)
	n := r.l.g.NumVertices()

	// Set-up: five boots from scratch into fresh stores — two before the
	// window, the one that serves it, and two at the end — so that their
	// median spans the run rather than one phase of the host's CPU speed.
	var setups []float64
	throwaway := func(k int) error {
		tk, d, err := r.boot(ctx, wl, k)
		tk.kill()
		if err != nil {
			return fmt.Errorf("boot %d: %w", k, err)
		}
		setups = append(setups, d.Seconds())
		return nil
	}
	for k := range 2 {
		if err := throwaway(k); err != nil {
			return nil, err
		}
	}
	t, d, err := r.boot(ctx, wl, 2)
	defer func() { t.kill() }()
	if err != nil {
		return nil, fmt.Errorf("boot 2: %w", err)
	}
	setups = append(setups, d.Seconds())
	var st daemonStats
	if err := getJSON(t.daemons[0].url+"/stats", &st); err != nil {
		return nil, err
	}

	a, b := newConn(t.front.url), newConn(t.front.url)
	defer a.close()
	defer b.close()
	window := r.plan(wl)
	window[0].conn, window[1].conn = a, b
	stop := make(chan struct{})
	type rssOut struct {
		mb  []float64
		err error
	}
	rssCh := make(chan rssOut, 1)
	go func() {
		mb, err := sampleRSS(t.all, stop)
		rssCh <- rssOut{mb, err}
	}()
	outs := runWindow(window, r.window)
	close(stop)
	rss := <-rssCh
	if rss.err != nil {
		return nil, rss.err
	}
	writer := outs[0] // on lookup a reader, whose write log is empty

	var readLat, writeLat, lags []time.Duration
	var answered int
	var elapsed time.Duration
	for i, o := range outs {
		readLat = append(readLat, o.reads...)
		writeLat = append(writeLat, o.writes...)
		lags = append(lags, o.lags...)
		res.attempt(o)
		if window[i].rate <= 0 {
			answered += len(o.reads) + o.writeOps
			elapsed = max(elapsed, o.elapsed)
		}
	}
	if wl == "routed" {
		// Let the router's table refresh catch up with the window's writes.
		time.Sleep(tableRefresh + 2*probeInterval)
	}
	final, errs := verifyRAW(r.l.g, writer.log, writer.checks)
	res.fail(errs...)
	var touched []int
	for _, w := range writer.log {
		touched = append(touched, w.a, w.b)
	}
	sample := newSampleCheck(final, r.l.oracleSample(r.seed, touched))
	res.fail(sample.run(a)...)
	res.fail(checkEdges(t.daemons, final)...)

	// Recovery: SIGKILL the daemon and restart it on the same store, at a
	// snapshot boundary so that every restart — in every run — replays
	// the same short WAL tail; every acked write must survive each one.
	var recov []float64
	if recovers(wl) {
		if err := padToSnapshot(a, t.restart, final); err != nil {
			return nil, fmt.Errorf("padding to a snapshot: %w", err)
		}
		for range restarts {
			old := t.restart
			nc, d, err := procs.reboot(ctx, r.logs, old, "/healthz?ready=1", n)
			if nc != nil {
				t.replace(old, nc)
			}
			if err != nil {
				return nil, fmt.Errorf("restart %s: %w", old.name, err)
			}
			recov = append(recov, d.Seconds())
			c := newConn(nc.url)
			res.fail(sample.run(c)...)
			c.close()
			res.fail(checkEdges([]*child{nc}, final)...)
		}
	}

	t.kill()
	for k := 3; k < 5; k++ {
		if err := throwaway(k); err != nil {
			return nil, err
		}
	}

	res.lag(lags)
	rl := durs(readLat, time.Microsecond)
	res.set("setup_s", median(setups), "s")
	// The mean, not the median: snapshots and garbage collection swing
	// the resident set between two levels, and the median of such samples
	// jumps between them from run to run.
	res.set("server_rss_mb", mean(rss.mb), "MB")
	res.set("index_bytes", float64(st.LabelBytes), "B")
	res.diag("read_p50_us", quantile(rl, 0.50), "us")
	res.diag("read_p99_us", quantile(rl, 0.99), "us")
	switch wl { // capacity: the closed-loop streams' answered requests per second
	case "lookup":
		res.diag("read_qps", float64(answered)/elapsed.Seconds(), "1/s")
	case "repair":
		res.diag("write_ops_per_s", float64(answered)/elapsed.Seconds(), "1/s")
	}
	if len(writeLat) > 0 {
		wlat := durs(writeLat, time.Millisecond)
		res.diag("write_p50_ms", quantile(wlat, 0.50), "ms")
		res.diag("write_p95_ms", quantile(wlat, 0.95), "ms")
	}
	if len(recov) > 0 {
		res.diag("recovery_s", median(recov), "s")
	}
	return res, nil
}

// diagnostics are the served run's timings, which -compare reports
// without a bound. They are not benchmark metrics: on a shared 2-vCPU
// host none holds a 10% bound from run to run (README.md, Noise).
var diagnostics = []metricDef{
	{Name: "read_qps", Unit: "1/s", Better: "higher"},
	{Name: "write_ops_per_s", Unit: "1/s", Better: "higher"},
	{Name: "read_p50_us", Unit: "us", Better: "lower"},
	{Name: "read_p99_us", Unit: "us", Better: "lower"},
	{Name: "write_p50_ms", Unit: "ms", Better: "lower"},
	{Name: "write_p95_ms", Unit: "ms", Better: "lower"},
	{Name: "recovery_s", Unit: "s", Better: "lower"},
}

// restarts is how many recoveries a run times and checks.
const restarts = 3

// padToSnapshot sends insert+delete pairs of one edge that cannot close a
// cycle until target writes its next periodic snapshot. The pairs leave
// the edge set as it was.
func padToSnapshot(c *conn, target *child, g *graph.Digraph) error {
	u, v := -1, -1
	for w := range g.NumVertices() {
		if g.InDegree(w) == 0 && g.OutDegree(w) > 0 {
			u = w // a source: no path returns to it
			break
		}
	}
	for w := range g.NumVertices() {
		if u >= 0 && g.OutDegree(w) == 0 && g.InDegree(w) > 0 && !g.HasEdge(u, w) {
			v = w
			break
		}
	}
	if u < 0 || v < 0 {
		return errors.New("no source and sink to pad with")
	}
	var st daemonStats
	if err := getJSON(target.url+"/stats", &st); err != nil {
		return err
	}
	snaps := st.Snapshots
	for range 256 {
		for _, k := range []opKind{opInsert, opDelete} {
			if _, err := c.do(req{kind: k, a: u, b: v}); err != nil {
				return err
			}
		}
		if err := getJSON(target.url+"/stats", &st); err != nil {
			return err
		}
		if st.Snapshots > snaps {
			return nil
		}
	}
	return fmt.Errorf("%s took no snapshot after 512 writes", target.name)
}

// checkEdges compares each daemon's edge count with the oracle graph's.
func checkEdges(daemons []*child, g *graph.Digraph) []error {
	var errs []error
	for _, c := range daemons {
		var st daemonStats
		if err := getJSON(c.url+"/stats", &st); err != nil {
			errs = append(errs, err)
			continue
		}
		if st.Edges != g.NumEdges() {
			errs = append(errs, fmt.Errorf("%s holds %d edges, oracle %d: an acked write was lost", c.name, st.Edges, g.NumEdges()))
		}
	}
	return errs
}
