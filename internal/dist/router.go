package dist

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"sync/atomic"
	"time"

	"repro/internal/obs"
	"repro/internal/serve"
)

// GroupConfig names one worker group's endpoints: the primary cscd and
// its optional follower (base URLs, no trailing slash).
type GroupConfig struct {
	Primary  string `json:"primary"`
	Follower string `json:"follower,omitempty"`
}

// RouterOptions configures NewRouter. The zero value gives serving
// defaults.
type RouterOptions struct {
	// ProbeInterval is the health-probe cadence per group (default
	// 250ms).
	ProbeInterval time.Duration
	// ProbeTimeout bounds one probe request (default 1s).
	ProbeTimeout time.Duration
	// ProbeMisses is how many consecutive failed probes of a group's
	// active endpoint trigger failover to its follower (default 3).
	ProbeMisses int
	// RequestTimeout bounds one proxied attempt (default 2s).
	RequestTimeout time.Duration
	// RetryMax is how many extra attempts each endpoint gets after its
	// first fails with a network error or 5xx (default 1).
	RetryMax int
	// RetryBackoff is the pause before each retry, doubling per attempt
	// (default 25ms).
	RetryBackoff time.Duration
	// TableRefresh is how often the router re-fetches the shard table
	// from a live worker (default 2s). Writes can merge components and
	// turn boot-time-trivial vertices cyclic; the refresh bounds how long
	// the router's local zero-cycle answers for them can lag, the same
	// way follower reads are bounded-stale.
	TableRefresh time.Duration
	// Client performs proxied requests and probes (default: dedicated;
	// deadlines come from the timeouts above).
	Client *http.Client
	// Metrics registers the cscd_router_* families (nil: none).
	Metrics *obs.Registry
}

func (o *RouterOptions) fill() {
	if o.ProbeInterval <= 0 {
		o.ProbeInterval = 250 * time.Millisecond
	}
	if o.ProbeTimeout <= 0 {
		o.ProbeTimeout = time.Second
	}
	if o.ProbeMisses <= 0 {
		o.ProbeMisses = 3
	}
	if o.RequestTimeout <= 0 {
		o.RequestTimeout = 2 * time.Second
	}
	if o.RetryMax < 0 {
		o.RetryMax = 0
	} else if o.RetryMax == 0 {
		o.RetryMax = 1
	}
	if o.RetryBackoff <= 0 {
		o.RetryBackoff = 25 * time.Millisecond
	}
	if o.TableRefresh <= 0 {
		o.TableRefresh = 2 * time.Second
	}
	if o.Client == nil {
		o.Client = &http.Client{}
	}
}

// group is one worker group's routing state. active flips from primary
// (0) to follower (1) exactly once, at failover — the old primary is
// never failed back to automatically, since it stopped at an unknown
// sequence number and would serve a silently rewound graph.
type group struct {
	cfg         GroupConfig
	active      atomic.Int32
	primaryUp   atomic.Bool
	followerUp  atomic.Bool
	primarySeq  atomic.Uint64
	followerSeq atomic.Uint64
	misses      int // probe goroutine only
}

func (g *group) endpoints() []string {
	if g.active.Load() == 1 {
		return []string{g.cfg.Follower}
	}
	if g.cfg.Follower != "" {
		// Primary first; an unpromoted follower still answers stale reads
		// when the primary hiccups.
		return []string{g.cfg.Primary, g.cfg.Follower}
	}
	return []string{g.cfg.Primary}
}

// activeURL is the endpoint probes watch and writes target.
func (g *group) activeURL() string {
	if g.active.Load() == 1 {
		return g.cfg.Follower
	}
	return g.cfg.Primary
}

// Router fans reads to the worker group owning each vertex's shard and
// broadcasts writes to every group, with per-request deadlines, bounded
// retries with backoff, and probe-driven failover to followers. It is
// deliberately thin: no index, no labels — just the routing table, the
// group health state, and an HTTP client.
type Router struct {
	table   atomic.Pointer[Table]
	groups  []*group
	opts    RouterOptions
	handler http.Handler
	start   time.Time
	ids     *serve.RequestIDs

	requests  *obs.Counter
	trivial   *obs.Counter
	retries   *obs.Counter
	failovers *obs.Counter
	noReplica *obs.Counter
	proxyNS   *obs.Histogram

	stopOnce  func()
	stop      chan struct{}
	probeDone chan struct{}
}

// NewRouter builds a router over a placement table and the worker groups
// it references, and starts the health-probe loop. The table must have
// been built for exactly len(groups) groups.
func NewRouter(table *Table, groups []GroupConfig, opts RouterOptions) (*Router, error) {
	if table == nil {
		return nil, fmt.Errorf("dist: router needs a routing table")
	}
	if len(groups) == 0 {
		return nil, fmt.Errorf("dist: router needs at least one worker group")
	}
	if table.Groups != len(groups) {
		return nil, fmt.Errorf("dist: table placed %d groups but %d configured", table.Groups, len(groups))
	}
	opts.fill()
	r := &Router{
		opts: opts, start: time.Now(),
		ids:      serve.NewRequestIDs(),
		requests: &obs.Counter{}, trivial: &obs.Counter{},
		retries: &obs.Counter{}, failovers: &obs.Counter{},
		noReplica: &obs.Counter{},
		proxyNS:   obs.NewHistogram(),
		stop:      make(chan struct{}),
		probeDone: make(chan struct{}),
	}
	r.table.Store(table)
	for _, cfg := range groups {
		r.groups = append(r.groups, &group{cfg: cfg})
	}
	var once atomic.Bool
	r.stopOnce = func() {
		if once.CompareAndSwap(false, true) {
			close(r.stop)
		}
	}
	if reg := opts.Metrics; reg != nil {
		reg.CounterFunc("cscd_router_requests_total", "requests proxied to workers", r.requests.Load)
		reg.CounterFunc("cscd_router_trivial_local_total", "trivial-vertex reads answered locally without a proxy hop", r.trivial.Load)
		reg.CounterFunc("cscd_router_retries_total", "proxied attempts retried after a network error or 5xx", r.retries.Load)
		reg.CounterFunc("cscd_router_failovers_total", "groups failed over from primary to promoted follower", r.failovers.Load)
		reg.CounterFunc("cscd_router_no_replica_total", "requests failed because no replica of the owning group was reachable", r.noReplica.Load)
		r.proxyNS = reg.Histogram("cscd_router_proxy_seconds", "proxied request latency including retries")
		reg.Collect("cscd_router_worker_up", "1 when the worker endpoint answered the last health probe", "worker", func(emit func(string, float64)) {
			for i, g := range r.groups {
				emit(strconv.Itoa(i)+"/primary", boolGauge(g.primaryUp.Load()))
				if g.cfg.Follower != "" {
					emit(strconv.Itoa(i)+"/follower", boolGauge(g.followerUp.Load()))
				}
			}
		})
		reg.Collect("cscd_router_replication_lag_batches", "batches the group's follower trails its primary by", "group", func(emit func(string, float64)) {
			for i, g := range r.groups {
				if g.cfg.Follower == "" {
					continue
				}
				p, f := g.primarySeq.Load(), g.followerSeq.Load()
				lag := 0.0
				if p > f {
					lag = float64(p - f)
				}
				emit(strconv.Itoa(i), lag)
			}
		})
		reg.Collect("cscd_router_group_failed_over", "1 after the group failed over to its follower", "group", func(emit func(string, float64)) {
			for i, g := range r.groups {
				emit(strconv.Itoa(i), float64(g.active.Load()))
			}
		})
	}
	mux := http.NewServeMux()
	mux.HandleFunc("GET /cycle/{v}", r.cycle)
	mux.HandleFunc("POST /edges", r.edges)
	mux.HandleFunc("DELETE /edges", r.edges)
	mux.HandleFunc("GET /top", r.top)
	mux.HandleFunc("GET /stats", r.stats)
	mux.HandleFunc("GET /healthz", r.healthz)
	mux.HandleFunc("GET /cluster/table", r.clusterTable)
	mux.HandleFunc("GET /metrics", r.metrics)
	r.handler = r.withRequestID(mux)
	go r.probeLoop()
	return r, nil
}

func boolGauge(b bool) float64 {
	if b {
		return 1
	}
	return 0
}

// Handler returns the router's HTTP surface.
func (r *Router) Handler() http.Handler { return r.handler }

// requestIDKey keys a client request's id in its context.
type requestIDKey struct{}

// withRequestID gives every client request one id (serve.RequestIDs),
// returns it on the router's response, and hands it to the handlers,
// which set it on every proxied read and on each group's leg of a
// broadcast write, so the workers log the request under the same id.
func (r *Router) withRequestID(h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		id := r.ids.Assign(w, req)
		h.ServeHTTP(w, req.WithContext(context.WithValue(req.Context(), requestIDKey{}, id)))
	})
}

// requestID is the id withRequestID assigned to req.
func requestID(req *http.Request) string {
	id, _ := req.Context().Value(requestIDKey{}).(string)
	return id
}

// Close stops the probe loop.
func (r *Router) Close() error {
	r.stopOnce()
	<-r.probeDone
	return nil
}

// Failovers reports how many groups have failed over.
func (r *Router) Failovers() uint64 { return r.failovers.Load() }

// probeLoop watches every group: the active endpoint's liveness decides
// failover, and both endpoints' sequence numbers feed the replication
// lag gauge. One goroutine probes all groups each tick — cluster sizes
// here are small and a hung worker costs one bounded ProbeTimeout. The
// first round runs at once, so a router over live workers is ready
// without waiting out a ProbeInterval; failover still takes ProbeMisses
// consecutive misses.
func (r *Router) probeLoop() {
	defer close(r.probeDone)
	tick := time.NewTicker(r.opts.ProbeInterval)
	defer tick.Stop()
	lastRefresh := time.Now()
	for {
		for gi, g := range r.groups {
			r.probeGroup(gi, g)
		}
		if time.Since(lastRefresh) >= r.opts.TableRefresh {
			lastRefresh = time.Now()
			r.refreshTable()
		}
		select {
		case <-r.stop:
			return
		case <-tick.C:
		}
	}
}

// refreshTable re-fetches the shard table from the first live active
// endpoint (every group holds the full index, so any one is
// authoritative) and swaps it in atomically. Failure keeps the current
// table — routing degrades to bounded staleness, never to no table.
func (r *Router) refreshTable() {
	for _, g := range r.groups {
		up := g.primaryUp.Load()
		if g.active.Load() == 1 {
			up = g.followerUp.Load()
		}
		if !up {
			continue
		}
		tbl, err := FetchTable(g.activeURL(), len(r.groups), nil)
		if err != nil {
			continue
		}
		r.table.Store(tbl)
		return
	}
}

func (r *Router) probeGroup(gi int, g *group) {
	if seq, ok := r.probe(g.cfg.Primary + "/stats"); ok {
		g.primaryUp.Store(true)
		g.primarySeq.Store(seq)
	} else {
		g.primaryUp.Store(false)
	}
	if g.cfg.Follower != "" {
		if seq, ok := r.probe(g.cfg.Follower + "/repl/status"); ok {
			g.followerUp.Store(true)
			g.followerSeq.Store(seq)
		} else {
			g.followerUp.Store(false)
		}
	}
	activeUp := g.primaryUp.Load()
	if g.active.Load() == 1 {
		activeUp = g.followerUp.Load()
	}
	if activeUp {
		g.misses = 0
		return
	}
	g.misses++
	if g.active.Load() != 0 || g.misses < r.opts.ProbeMisses ||
		g.cfg.Follower == "" || !g.followerUp.Load() {
		return
	}
	// Primary missed ProbeMisses consecutive probes and the follower is
	// alive: promote it (replay-to-tip on the follower side) and repoint
	// the group. The promote call gets a generous deadline — it covers
	// the replay.
	ctx, cancel := context.WithTimeout(context.Background(), 10*r.opts.ProbeTimeout)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, g.cfg.Follower+"/repl/promote", nil)
	if err != nil {
		return
	}
	resp, err := r.opts.Client.Do(req)
	if err != nil {
		return
	}
	io.Copy(io.Discard, io.LimitReader(resp.Body, 4096))
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return
	}
	g.active.Store(1)
	g.misses = 0
	r.failovers.Add(1)
}

// probe fetches a JSON endpoint and extracts its "seq" field.
func (r *Router) probe(url string) (seq uint64, ok bool) {
	ctx, cancel := context.WithTimeout(context.Background(), r.opts.ProbeTimeout)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, url, nil)
	if err != nil {
		return 0, false
	}
	resp, err := r.opts.Client.Do(req)
	if err != nil {
		return 0, false
	}
	defer resp.Body.Close()
	body, _ := io.ReadAll(io.LimitReader(resp.Body, 1<<20))
	if resp.StatusCode != http.StatusOK {
		return 0, false
	}
	var st struct {
		Seq uint64 `json:"seq"`
	}
	_ = json.Unmarshal(body, &st)
	return st.Seq, true
}

// forward proxies one request body/method/path to the group's endpoints
// in order, retrying each RetryMax times with doubling backoff on
// network errors and 5xx. A non-5xx response — including a worker's 4xx
// or 429 — is the answer and is copied through verbatim. Returns false
// when every endpoint and retry failed.
func (r *Router) forward(w http.ResponseWriter, g *group, id, method, pathAndQuery string, body []byte) bool {
	t0 := time.Now()
	defer func() { r.proxyNS.ObserveSince(t0) }()
	r.requests.Add(1)
	for _, base := range g.endpoints() {
		backoff := r.opts.RetryBackoff
		for attempt := 0; attempt <= r.opts.RetryMax; attempt++ {
			if attempt > 0 {
				r.retries.Add(1)
				time.Sleep(backoff)
				backoff *= 2
			}
			status, hdr, respBody, err := r.attempt(base, id, method, pathAndQuery, body)
			if err != nil || status >= 500 {
				continue
			}
			if ct := hdr.Get("Content-Type"); ct != "" {
				w.Header().Set("Content-Type", ct)
			}
			if ra := hdr.Get("Retry-After"); ra != "" {
				w.Header().Set("Retry-After", ra)
			}
			w.WriteHeader(status)
			_, _ = w.Write(respBody)
			return true
		}
	}
	return false
}

func (r *Router) attempt(base, id, method, pathAndQuery string, body []byte) (int, http.Header, []byte, error) {
	ctx, cancel := context.WithTimeout(context.Background(), r.opts.RequestTimeout)
	defer cancel()
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequestWithContext(ctx, method, base+pathAndQuery, rd)
	if err != nil {
		return 0, nil, nil, err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	if id != "" {
		req.Header.Set(serve.RequestIDHeader, id)
	}
	resp, err := r.opts.Client.Do(req)
	if err != nil {
		return 0, nil, nil, err
	}
	defer resp.Body.Close()
	respBody, err := io.ReadAll(io.LimitReader(resp.Body, 16<<20))
	if err != nil {
		return 0, nil, nil, err
	}
	return resp.StatusCode, resp.Header, respBody, nil
}

func (r *Router) cycle(w http.ResponseWriter, req *http.Request) {
	v, err := strconv.Atoi(req.PathValue("v"))
	if err != nil {
		serve.WriteError(w, http.StatusBadRequest, serve.CodeBadVertex, 0, "vertex %q is not an integer", req.PathValue("v"))
		return
	}
	t := r.table.Load()
	if v < 0 || v >= t.Vertices {
		serve.WriteError(w, http.StatusBadRequest, serve.CodeBadVertex, 0, "vertex %d out of range [0,%d)", v, t.Vertices)
		return
	}
	gid, trivial := t.GroupFor(v)
	if trivial {
		// Trivial vertices have no labels on any worker: the answer is
		// structurally zero cycles, served from the routing tier itself.
		r.trivial.Add(1)
		writeJSON(w, http.StatusOK, serve.CycleJSON{Vertex: v})
		return
	}
	if gid < 0 {
		r.noReplica.Add(1)
		serve.WriteError(w, http.StatusServiceUnavailable, serve.CodeNoReplica, 1, "vertex %d's shard has no assigned worker group", v)
		return
	}
	path := "/cycle/" + strconv.Itoa(v)
	if q := req.URL.RawQuery; q != "" {
		path += "?" + q
	}
	if !r.forward(w, r.groups[gid], requestID(req), http.MethodGet, path, nil) {
		r.noReplica.Add(1)
		serve.WriteError(w, http.StatusServiceUnavailable, serve.CodeNoReplica, 1, "no replica of worker group %d reachable", gid)
	}
}

// edges broadcasts the batch to every worker group: all groups hold the
// full index, so every group must see every edge. The response is the
// last group's on success. A group answering 4xx/429/503 short-circuits
// with that response — the client fixes or retries the whole broadcast,
// which is idempotent because workers coalesce redundant ops. A group
// with no reachable replica yields 503 no_replica.
func (r *Router) edges(w http.ResponseWriter, req *http.Request) {
	body, err := io.ReadAll(http.MaxBytesReader(w, req.Body, 16<<20))
	if err != nil {
		serve.WriteError(w, http.StatusBadRequest, serve.CodeBadBody, 0, "bad body: %v", err)
		return
	}
	path := "/edges"
	if q := req.URL.RawQuery; q != "" {
		path += "?" + q
	}
	id := requestID(req)
	for gi, g := range r.groups {
		last := gi == len(r.groups)-1
		if last {
			if !r.forward(w, g, id, req.Method, path, body) {
				r.noReplica.Add(1)
				serve.WriteError(w, http.StatusServiceUnavailable, serve.CodeNoReplica, 1, "no replica of worker group %d reachable", gi)
			}
			return
		}
		status, _, respBody, ferr := r.broadcastOne(g, id, req.Method, path, body)
		if ferr != nil {
			r.noReplica.Add(1)
			serve.WriteError(w, http.StatusServiceUnavailable, serve.CodeNoReplica, 1, "no replica of worker group %d reachable", gi)
			return
		}
		if status >= 400 {
			w.Header().Set("Content-Type", "application/json")
			w.WriteHeader(status)
			_, _ = w.Write(respBody)
			return
		}
	}
}

// broadcastOne delivers a write to one group with the same
// endpoint/retry schedule forward uses, returning the response instead
// of copying it out.
func (r *Router) broadcastOne(g *group, id, method, pathAndQuery string, body []byte) (int, http.Header, []byte, error) {
	r.requests.Add(1)
	var lastErr error = fmt.Errorf("no endpoints")
	for _, base := range g.endpoints() {
		backoff := r.opts.RetryBackoff
		for attempt := 0; attempt <= r.opts.RetryMax; attempt++ {
			if attempt > 0 {
				r.retries.Add(1)
				time.Sleep(backoff)
				backoff *= 2
			}
			status, hdr, respBody, err := r.attempt(base, id, method, pathAndQuery, body)
			if err != nil || status >= 500 {
				if err == nil {
					err = fmt.Errorf("status %d", status)
				}
				lastErr = err
				continue
			}
			return status, hdr, respBody, nil
		}
	}
	return 0, nil, nil, lastErr
}

// top forwards to group 0's active endpoint — every group applies every
// write, so any worker's top-k is the global one.
func (r *Router) top(w http.ResponseWriter, req *http.Request) {
	if !r.forward(w, r.groups[0], requestID(req), http.MethodGet, "/top", nil) {
		r.noReplica.Add(1)
		serve.WriteError(w, http.StatusServiceUnavailable, serve.CodeNoReplica, 1, "no replica of worker group 0 reachable")
	}
}

// RouterGroupJSON is one group's health in /stats, /healthz and
// /cluster/table responses.
type RouterGroupJSON struct {
	Group       int    `json:"group"`
	Primary     string `json:"primary"`
	Follower    string `json:"follower,omitempty"`
	Active      string `json:"active"` // "primary" | "follower"
	PrimaryUp   bool   `json:"primary_up"`
	FollowerUp  bool   `json:"follower_up,omitempty"`
	PrimarySeq  uint64 `json:"primary_seq"`
	FollowerSeq uint64 `json:"follower_seq,omitempty"`
	LagBatches  uint64 `json:"lag_batches"`
}

func (r *Router) groupsJSON() []RouterGroupJSON {
	out := make([]RouterGroupJSON, 0, len(r.groups))
	for i, g := range r.groups {
		gj := RouterGroupJSON{
			Group: i, Primary: g.cfg.Primary, Follower: g.cfg.Follower,
			Active:     "primary",
			PrimaryUp:  g.primaryUp.Load(),
			FollowerUp: g.followerUp.Load(),
			PrimarySeq: g.primarySeq.Load(), FollowerSeq: g.followerSeq.Load(),
		}
		if g.active.Load() == 1 {
			gj.Active = "follower"
		}
		if gj.PrimarySeq > gj.FollowerSeq {
			gj.LagBatches = gj.PrimarySeq - gj.FollowerSeq
		}
		out = append(out, gj)
	}
	return out
}

func (r *Router) stats(w http.ResponseWriter, req *http.Request) {
	writeJSON(w, http.StatusOK, map[string]any{
		"router":         true,
		"groups":         r.groupsJSON(),
		"requests":       r.requests.Load(),
		"trivial_local":  r.trivial.Load(),
		"retries":        r.retries.Load(),
		"failovers":      r.failovers.Load(),
		"no_replica":     r.noReplica.Load(),
		"uptime_seconds": time.Since(r.start).Seconds(),
	})
}

// healthz reports the router's view of the cluster: ok when every group
// has a reachable active endpoint, degraded otherwise. ?ready=1 turns
// degraded into 503 so load balancers drain a router that cannot answer
// for part of the vertex space.
func (r *Router) healthz(w http.ResponseWriter, req *http.Request) {
	status := "ok"
	for _, g := range r.groups {
		up := g.primaryUp.Load()
		if g.active.Load() == 1 {
			up = g.followerUp.Load()
		} else if !up && g.followerUp.Load() {
			// Primary down but follower still answering stale reads.
			status = "degraded"
			continue
		}
		if !up {
			status = "degraded"
		}
	}
	code := http.StatusOK
	if ready, _ := strconv.ParseBool(req.URL.Query().Get("ready")); ready && status != "ok" {
		code = http.StatusServiceUnavailable
	}
	writeJSON(w, code, map[string]any{"status": status, "groups": r.groupsJSON()})
}

func (r *Router) clusterTable(w http.ResponseWriter, req *http.Request) {
	writeJSON(w, http.StatusOK, map[string]any{
		"table":  r.table.Load(),
		"groups": r.groupsJSON(),
	})
}

func (r *Router) metrics(w http.ResponseWriter, req *http.Request) {
	reg := r.opts.Metrics
	if reg == nil {
		serve.WriteError(w, http.StatusNotFound, serve.CodeNotFound, 0, "metrics disabled")
		return
	}
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	_ = reg.WritePrometheus(w)
}
