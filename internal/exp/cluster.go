package exp

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"sync"
	"time"

	"repro/internal/bfscount"
	"repro/internal/csc"
	"repro/internal/dist"
	"repro/internal/engine"
	"repro/internal/graph"
	"repro/internal/obs"
	"repro/internal/serve"
)

// ClusterThroughputArm is one worker-count configuration of the cluster
// read experiment: concurrent readers driving GET /cycle/{v} through a
// router over real HTTP worker backends.
type ClusterThroughputArm struct {
	Groups  int     `json:"groups"`
	Readers int     `json:"readers"`
	Reads   int     `json:"reads"`
	WallNS  int64   `json:"wall_ns"`
	QPS     float64 `json:"qps"`
	P50NS   int64   `json:"read_p50_ns"`
	P99NS   int64   `json:"read_p99_ns"`
}

// ClusterRow is one family's row of the replicated-cluster experiment
// (`cscbench -exp cluster`, the CLUSTER-* rows of BENCH_*.json): read
// throughput through the router at one vs three worker groups, and the
// failover drill — primary killed under load, blackout window until the
// router's promoted follower takes writes again, and a full
// acked-writes reconcile against the BFS oracle.
//
// The throughput arms share one process and one GOMAXPROCS pool, so
// ReadSpeedup measures routing overhead and placement spread, not the
// linear scaling a real multi-host deployment would see; it is reported
// as measured, not gated.
type ClusterRow struct {
	Family string               `json:"family"`
	N      int                  `json:"n"`
	M      int                  `json:"m"`
	Shards int                  `json:"shards"`
	One    ClusterThroughputArm `json:"one_group"`
	Three  ClusterThroughputArm `json:"three_groups"`
	// ReadSpeedup = three-group QPS / one-group QPS.
	ReadSpeedup float64 `json:"read_speedup"`

	// Failover drill figures. AckedWrites counts edge inserts the router
	// acknowledged before the primary was killed; LostAckedWrites counts
	// sampled vertices whose post-promotion answer disagreed with the
	// oracle replaying those writes (must be 0).
	AckedWrites        int    `json:"acked_writes"`
	LostAckedWrites    int    `json:"lost_acked_writes"`
	FailoverBlackoutNS int64  `json:"failover_blackout_ns"`
	Failovers          uint64 `json:"failovers"`
}

// ringsGraph builds the cluster family: k disjoint chorded rings of h
// vertices each — k non-trivial SCCs for the placement to spread, no
// trivial vertices, so every read takes the proxy path.
func ringsGraph(k, h, chords int, seed int64) *graph.Digraph {
	g := graph.New(k * h)
	r := rand.New(rand.NewSource(seed))
	for ring := 0; ring < k; ring++ {
		base := ring * h
		for i := 0; i < h; i++ {
			mustAdd(g, base+i, base+(i+1)%h)
		}
		for c := 0; c < chords; {
			u, v := base+r.Intn(h), base+r.Intn(h)
			if u == v || g.HasEdge(u, v) {
				continue
			}
			mustAdd(g, u, v)
			c++
		}
	}
	return g
}

func clusterParams(s Scale) (rings, h, chords, readers, readsPerReader, drillWrites int) {
	switch s {
	case Tiny:
		return 6, 40, 40, 4, 300, 18
	case Small:
		return 8, 80, 120, 4, 600, 30
	default:
		return 12, 120, 240, 8, 1200, 48
	}
}

// clusterWorker is one in-process cscd stand-in: its own sharded index,
// engine, and real HTTP listener.
type clusterWorker struct {
	e   *engine.Engine
	srv *httptest.Server
}

func newClusterWorker(g *graph.Digraph, opts engine.Options) clusterWorker {
	x, _ := csc.BuildSharded(g.Clone(), csc.Options{Workers: Workers})
	e := engine.New(x, opts)
	return clusterWorker{e: e, srv: httptest.NewServer(serve.Handler(e, nil, 0))}
}

func (w clusterWorker) close() {
	w.srv.Close()
	if err := w.e.Close(); err != nil {
		panic(err)
	}
}

// clusterThroughputArm measures read QPS through a router fronting
// nGroups worker groups (primaries only — replication is the drill's
// business). Reads enter at the router handler; the router→worker hop
// is real HTTP.
func clusterThroughputArm(g *graph.Digraph, nGroups, readers, readsPerReader int) ClusterThroughputArm {
	workers := make([]clusterWorker, nGroups)
	cfgs := make([]dist.GroupConfig, nGroups)
	for i := range workers {
		workers[i] = newClusterWorker(g, engine.Options{FlushInterval: -1})
		cfgs[i] = dist.GroupConfig{Primary: workers[i].srv.URL}
	}
	defer func() {
		for _, w := range workers {
			w.close()
		}
	}()

	shardOf, stats, _ := workers[0].e.ShardTable()
	r, err := dist.NewRouter(dist.BuildTable(shardOf, stats, nGroups), cfgs, dist.RouterOptions{
		ProbeInterval: time.Hour, // static healthy cluster: probes are noise
	})
	if err != nil {
		panic(err)
	}
	defer r.Close()
	h := r.Handler()
	n := g.NumVertices()

	var wg sync.WaitGroup
	hists := make([]*obs.Histogram, readers)
	t0 := time.Now()
	for ri := 0; ri < readers; ri++ {
		hists[ri] = obs.NewHistogram()
		wg.Add(1)
		go func(ri int) {
			defer wg.Done()
			v := ri
			for i := 0; i < readsPerReader; i++ {
				rec := httptest.NewRecorder()
				rt0 := time.Now()
				h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, fmt.Sprintf("/cycle/%d", v%n), nil))
				hists[ri].ObserveSince(rt0)
				if rec.Code != http.StatusOK {
					panic(fmt.Sprintf("exp: cluster read of %d: status %d body %s", v%n, rec.Code, rec.Body))
				}
				v += 7 // odd stride: walk every ring
			}
		}(ri)
	}
	wg.Wait()
	wall := time.Since(t0)

	var all obs.HistSnapshot
	for _, hist := range hists {
		all.Merge(hist.Snapshot())
	}
	arm := ClusterThroughputArm{
		Groups:  nGroups,
		Readers: readers,
		Reads:   readers * readsPerReader,
		WallNS:  wall.Nanoseconds(),
		P50NS:   all.Quantile(0.50),
		P99NS:   all.Quantile(0.99),
	}
	if wall > 0 {
		arm.QPS = float64(arm.Reads) / wall.Seconds()
	}
	return arm
}

// clusterFailoverDrill runs the kill-a-worker protocol outside the test
// suite so its figures land in BENCH_*.json: acked chord inserts through
// the router, WAL shipping to a follower, primary killed, blackout
// measured until the promoted follower takes the next write, and every
// sampled vertex reconciled against the BFS oracle over acked writes.
func clusterFailoverDrill(g *graph.Digraph, ringH, drillWrites int) (acked, lost int, blackoutNS int64, failovers uint64) {
	dir, err := os.MkdirTemp("", "csccluster")
	if err != nil {
		panic(err)
	}
	defer os.RemoveAll(dir)
	boot := func() (csc.Counter, error) {
		x, _ := csc.BuildSharded(g.Clone(), csc.Options{Workers: Workers})
		return x, nil
	}
	f, err := dist.OpenFollower(dir, boot, dist.FollowerOptions{})
	if err != nil {
		panic(err)
	}
	defer f.Close()
	fsrv := httptest.NewServer(dist.NewFollowerServer(f, engine.Options{FlushInterval: -1}, serve.Options{}, nil))
	defer fsrv.Close()

	ship := dist.NewShipper(fsrv.URL, dist.ShipperOptions{RetryInterval: 5 * time.Millisecond})
	prim := newClusterWorker(g, engine.Options{FlushInterval: -1, Replication: ship})
	primSrv := prim.srv
	down := newKillSwitch(primSrv)
	defer prim.close()

	shardOf, stats, _ := prim.e.ShardTable()
	r, err := dist.NewRouter(dist.BuildTable(shardOf, stats, 1),
		[]dist.GroupConfig{{Primary: down.URL(), Follower: fsrv.URL}}, dist.RouterOptions{
			ProbeInterval: 5 * time.Millisecond,
			ProbeTimeout:  time.Second,
			ProbeMisses:   2,
			RetryBackoff:  time.Millisecond,
		})
	if err != nil {
		panic(err)
	}
	defer r.Close()
	h := r.Handler()

	// Acked writes: fresh chords inside existing rings (SCC membership
	// never changes, so the boot-time table stays exact).
	oracle := g.Clone()
	rnd := rand.New(rand.NewSource(77))
	n := g.NumVertices()
	post := func(u, v int) int {
		body, _ := json.Marshal(serve.EdgesRequest{Edges: [][2]int{{u, v}}})
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/edges?flush=1", bytes.NewReader(body)))
		return rec.Code
	}
	for acked < drillWrites {
		u, v := rnd.Intn(n), rnd.Intn(n)
		if u == v || u/ringH != v/ringH || oracle.HasEdge(u, v) {
			continue
		}
		if code := post(u, v); code != http.StatusOK {
			panic(fmt.Sprintf("exp: cluster drill write (%d,%d): status %d", u, v, code))
		}
		mustAdd(oracle, u, v)
		acked++
	}
	waitUntil("replication to drain", func() bool { return ship.Lag() == 0 && f.Seq() == prim.e.Seq() })

	// Kill the primary and measure the write blackout: wall-clock from
	// the kill to the first insert the promoted follower acknowledges.
	down.Kill()
	killedAt := time.Now()
	var resumeU, resumeV int
	for {
		resumeU, resumeV = rnd.Intn(n), rnd.Intn(n)
		if resumeU != resumeV && resumeU/ringH == resumeV/ringH && !oracle.HasEdge(resumeU, resumeV) {
			break
		}
	}
	deadline := time.Now().Add(15 * time.Second)
	for {
		if code := post(resumeU, resumeV); code == http.StatusOK {
			blackoutNS = time.Since(killedAt).Nanoseconds()
			mustAdd(oracle, resumeU, resumeV)
			acked++
			break
		}
		if time.Now().After(deadline) {
			panic("exp: cluster writes never resumed after failover")
		}
		time.Sleep(2 * time.Millisecond)
	}
	failovers = r.Failovers()

	// Reconcile: every sampled vertex must answer exactly what a BFS over
	// the acked-writes oracle computes.
	for v := 0; v < n; v += 7 {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, fmt.Sprintf("/cycle/%d", v), nil))
		if rec.Code != http.StatusOK {
			lost++
			continue
		}
		var out serve.CycleJSON
		if err := json.Unmarshal(rec.Body.Bytes(), &out); err != nil {
			panic(err)
		}
		wl, wc := bfscount.CycleCount(oracle, v)
		gl, gc := -1, uint64(0)
		if out.Exists {
			gl, gc = out.Length, out.Count
		}
		if wl == bfscount.NoCycle {
			wl = -1
		}
		if gl != wl || (wl != -1 && gc != wc) {
			lost++
		}
	}
	return acked, lost, blackoutNS, failovers
}

// killSwitch fronts a worker server; Kill makes every subsequent
// connection die the way a dead process's would.
type killSwitch struct {
	srv  *httptest.Server
	dead chan struct{}
	once sync.Once
}

func newKillSwitch(backend *httptest.Server) *killSwitch {
	k := &killSwitch{dead: make(chan struct{})}
	k.srv = httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		select {
		case <-k.dead:
			panic(http.ErrAbortHandler)
		default:
		}
		backend.Config.Handler.ServeHTTP(w, r)
	}))
	return k
}

func (k *killSwitch) URL() string { return k.srv.URL }
func (k *killSwitch) Kill()       { k.once.Do(func() { close(k.dead) }) }

func waitUntil(what string, pred func() bool) {
	deadline := time.Now().Add(10 * time.Second)
	for !pred() {
		if time.Now().After(deadline) {
			panic("exp: cluster drill timed out waiting for " + what)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// Cluster runs the replicated-cluster experiment: the read-throughput
// comparison at one vs three worker groups, then the failover drill.
func Cluster(s Scale) []ClusterRow {
	rings, h, chords, readers, readsPerReader, drillWrites := clusterParams(s)
	g := ringsGraph(rings, h, chords, 23)
	row := ClusterRow{
		Family: "rings",
		N:      g.NumVertices(),
		M:      g.NumEdges(),
		Shards: rings,
	}
	row.One = clusterThroughputArm(g, 1, readers, readsPerReader)
	row.Three = clusterThroughputArm(g, 3, readers, readsPerReader)
	if row.One.QPS > 0 {
		row.ReadSpeedup = row.Three.QPS / row.One.QPS
	}
	row.AckedWrites, row.LostAckedWrites, row.FailoverBlackoutNS, row.Failovers =
		clusterFailoverDrill(g, h, drillWrites)
	return []ClusterRow{row}
}

// WriteCluster renders the cluster experiment as a prose table.
func WriteCluster(w io.Writer, rows []ClusterRow) error {
	for _, r := range rows {
		if _, err := fmt.Fprintf(w, "%s (n=%d m=%d, %d shards)\n", r.Family, r.N, r.M, r.Shards); err != nil {
			return err
		}
		if _, err := fmt.Fprintf(w, "  %-8s %7s %9s | %12s %10s %10s\n",
			"groups", "readers", "reads", "qps", "p50", "p99"); err != nil {
			return err
		}
		for _, a := range []ClusterThroughputArm{r.One, r.Three} {
			if _, err := fmt.Fprintf(w, "  %-8d %7d %9d | %12.0f %10s %10s\n",
				a.Groups, a.Readers, a.Reads, a.QPS,
				time.Duration(a.P50NS), time.Duration(a.P99NS)); err != nil {
				return err
			}
		}
		if _, err := fmt.Fprintf(w, "  read speedup (3 vs 1, shared GOMAXPROCS): %.2fx\n", r.ReadSpeedup); err != nil {
			return err
		}
		if _, err := fmt.Fprintf(w, "  failover: %d acked writes, %d lost, blackout %s, %d failover(s)\n\n",
			r.AckedWrites, r.LostAckedWrites, time.Duration(r.FailoverBlackoutNS), r.Failovers); err != nil {
			return err
		}
	}
	return nil
}
