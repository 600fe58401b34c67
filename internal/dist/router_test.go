package dist

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// fakeWorker is a scripted cscd stand-in: it answers /cycle/{v} with its
// own name, /stats with a fixed seq, and records request paths.
type fakeWorker struct {
	name     string
	seq      uint64
	srv      *httptest.Server
	hits     atomic.Int64
	edgeHits atomic.Int64
	fail     atomic.Bool // 500 every request when set

	idMu sync.Mutex
	ids  []string // X-Request-Id of every /cycle and /edges request, in order
}

// requestIDs returns the X-Request-Id headers received so far.
func (w *fakeWorker) requestIDs() []string {
	w.idMu.Lock()
	defer w.idMu.Unlock()
	return append([]string(nil), w.ids...)
}

func newFakeWorker(name string, seq uint64) *fakeWorker {
	w := &fakeWorker{name: name, seq: seq}
	w.srv = httptest.NewServer(http.HandlerFunc(func(rw http.ResponseWriter, r *http.Request) {
		if w.fail.Load() {
			http.Error(rw, "boom", http.StatusInternalServerError)
			return
		}
		if strings.HasPrefix(r.URL.Path, "/cycle/") || r.URL.Path == "/edges" {
			w.idMu.Lock()
			w.ids = append(w.ids, r.Header.Get("X-Request-Id"))
			w.idMu.Unlock()
		}
		switch {
		case strings.HasPrefix(r.URL.Path, "/cycle/"):
			w.hits.Add(1)
			rw.Header().Set("Content-Type", "application/json")
			fmt.Fprintf(rw, `{"vertex":%s,"worker":%q}`, strings.TrimPrefix(r.URL.Path, "/cycle/"), w.name)
		case r.URL.Path == "/edges":
			w.edgeHits.Add(1)
			io.Copy(io.Discard, r.Body)
			fmt.Fprintf(rw, `{"enqueued":1,"worker":%q}`, w.name)
		case r.URL.Path == "/stats" || r.URL.Path == "/repl/status":
			fmt.Fprintf(rw, `{"seq":%d}`, w.seq)
		default:
			http.NotFound(rw, r)
		}
	}))
	return w
}

func (w *fakeWorker) Close() { w.srv.Close() }

// testTable: vertices 0,1 → slot 0 → group 0; vertex 2 → slot 1 →
// group 1; vertex 3 trivial.
func testTable(groups int) *Table {
	return BuildTable([]int32{0, 0, 1, -1}, stats(100, 50), groups)
}

func routerGet(t *testing.T, r *Router, path string) (int, map[string]any) {
	t.Helper()
	rec := httptest.NewRecorder()
	r.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodGet, path, nil))
	var body map[string]any
	_ = json.Unmarshal(rec.Body.Bytes(), &body)
	return rec.Code, body
}

// Reads route to the group owning the vertex's shard, trivial vertices
// answer locally with zero proxy hops, out-of-range is a 400, and writes
// broadcast to every group.
func TestRouterRoutesAndBroadcasts(t *testing.T) {
	w0 := newFakeWorker("w0", 5)
	defer w0.Close()
	w1 := newFakeWorker("w1", 5)
	defer w1.Close()

	tbl := testTable(2)
	r, err := NewRouter(tbl, []GroupConfig{{Primary: w0.srv.URL}, {Primary: w1.srv.URL}}, RouterOptions{
		ProbeInterval: time.Hour, // probes irrelevant here
	})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()

	// Vertices 0 and 2 live in different groups: each read must land on
	// its owner, whichever group that is.
	_, b0 := routerGet(t, r, "/cycle/0")
	_, b2 := routerGet(t, r, "/cycle/2")
	if b0["worker"] == nil || b2["worker"] == nil || b0["worker"] == b2["worker"] {
		t.Fatalf("reads not partitioned: %v vs %v", b0["worker"], b2["worker"])
	}

	status, body := routerGet(t, r, "/cycle/3")
	if status != http.StatusOK || body["exists"] == true {
		t.Fatalf("trivial vertex: status %d body %v", status, body)
	}
	if got := w0.hits.Load() + w1.hits.Load(); got != 2 {
		t.Fatalf("trivial vertex hit a worker: %d proxied reads, want 2", got)
	}

	status, body = routerGet(t, r, "/cycle/99")
	if status != http.StatusBadRequest || body["code"] != "bad_vertex" {
		t.Fatalf("out-of-range: status %d body %v", status, body)
	}
	status, body = routerGet(t, r, "/cycle/zzz")
	if status != http.StatusBadRequest || body["code"] != "bad_vertex" {
		t.Fatalf("non-integer: status %d body %v", status, body)
	}

	rec := httptest.NewRecorder()
	req := httptest.NewRequest(http.MethodPost, "/edges", strings.NewReader(`{"edges":[[0,1]]}`))
	r.Handler().ServeHTTP(rec, req)
	if rec.Code != http.StatusOK {
		t.Fatalf("broadcast write: status %d body %s", rec.Code, rec.Body)
	}
	if w0.edgeHits.Load() != 1 || w1.edgeHits.Load() != 1 {
		t.Fatalf("write not broadcast: w0=%d w1=%d", w0.edgeHits.Load(), w1.edgeHits.Load())
	}
}

// A failing primary falls through to the follower within the same
// request (bounded retries, then next endpoint); with every replica
// down the router answers 503 with the machine-readable no_replica code.
func TestRouterRetryFallbackAndNoReplica(t *testing.T) {
	prim := newFakeWorker("prim", 9)
	defer prim.Close()
	fol := newFakeWorker("fol", 9)
	defer fol.Close()
	prim.fail.Store(true)

	r, err := NewRouter(testTable(1), []GroupConfig{{Primary: prim.srv.URL, Follower: fol.srv.URL}}, RouterOptions{
		ProbeInterval:  time.Hour,
		RequestTimeout: time.Second,
		RetryBackoff:   time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()

	status, body := routerGet(t, r, "/cycle/0")
	if status != http.StatusOK || body["worker"] != "fol" {
		t.Fatalf("fallback read: status %d body %v", status, body)
	}

	fol.fail.Store(true)
	status, body = routerGet(t, r, "/cycle/0")
	if status != http.StatusServiceUnavailable || body["code"] != "no_replica" {
		t.Fatalf("all replicas down: status %d body %v", status, body)
	}
	rec := httptest.NewRecorder()
	r.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/edges", strings.NewReader(`{"edges":[[0,1]]}`)))
	var ebody map[string]any
	_ = json.Unmarshal(rec.Body.Bytes(), &ebody)
	if rec.Code != http.StatusServiceUnavailable || ebody["code"] != "no_replica" {
		t.Fatalf("broadcast with group down: status %d body %v", rec.Code, ebody)
	}
}

// Probe-driven failover: when the primary stops answering probes and the
// follower is alive, the router promotes the follower, repoints the
// group, counts the failover, and keeps answering reads.
func TestRouterFailsOverToFollower(t *testing.T) {
	prim := newFakeWorker("prim", 3)
	fol := newFakeWorker("fol", 3)
	defer fol.Close()

	var promotes atomic.Int64
	folFront := httptest.NewServer(http.HandlerFunc(func(rw http.ResponseWriter, r *http.Request) {
		if r.URL.Path == "/repl/promote" {
			promotes.Add(1)
			fmt.Fprint(rw, `{"seq":3,"promoted":true}`)
			return
		}
		fol.srv.Config.Handler.ServeHTTP(rw, r)
	}))
	defer folFront.Close()

	r, err := NewRouter(testTable(1), []GroupConfig{{Primary: prim.srv.URL, Follower: folFront.URL}}, RouterOptions{
		ProbeInterval: 5 * time.Millisecond,
		ProbeTimeout:  200 * time.Millisecond,
		ProbeMisses:   2,
		RetryBackoff:  time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()

	waitFor(t, "probes to see both endpoints up", func() bool {
		_, body := routerGet(t, r, "/healthz")
		return body["status"] == "ok"
	})

	prim.Close() // the primary dies
	waitFor(t, "failover", func() bool { return r.Failovers() == 1 })
	if promotes.Load() == 0 {
		t.Fatal("failover without a promote call")
	}

	status, body := routerGet(t, r, "/cycle/0")
	if status != http.StatusOK || body["worker"] != "fol" {
		t.Fatalf("post-failover read: status %d body %v", status, body)
	}
	// No auto-failback, and no second failover.
	time.Sleep(30 * time.Millisecond)
	if r.Failovers() != 1 {
		t.Fatalf("failovers %d, want exactly 1", r.Failovers())
	}
	status, body = routerGet(t, r, "/healthz?ready=1")
	if status != http.StatusOK {
		t.Fatalf("cluster should be ready on the promoted follower: %d %v", status, body)
	}
}

// The first probe round runs when the router starts, not one
// ProbeInterval later: over live workers /healthz?ready=1 turns 200
// at once even with an hour between probes.
func TestRouterReadyWithoutWaitingForTick(t *testing.T) {
	prim := newFakeWorker("prim", 4)
	defer prim.Close()
	fol := newFakeWorker("fol", 4)
	defer fol.Close()
	solo := newFakeWorker("solo", 4)
	defer solo.Close()

	r, err := NewRouter(testTable(2), []GroupConfig{{Primary: prim.srv.URL, Follower: fol.srv.URL}, {Primary: solo.srv.URL}}, RouterOptions{
		ProbeInterval: time.Hour,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()

	deadline := time.Now().Add(time.Second)
	for {
		status, body := routerGet(t, r, "/healthz?ready=1")
		if status == http.StatusOK {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("not ready 1s after start: %d %v", status, body)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// The router gives every client request one X-Request-Id: the client's
// own when valid, a minted one otherwise. It sets the id on the proxied
// read and on every group's leg of a broadcast write, and returns it on
// its own response, trivial-vertex answers included.
func TestRouterForwardsRequestID(t *testing.T) {
	w0 := newFakeWorker("w0", 5)
	defer w0.Close()
	w1 := newFakeWorker("w1", 5)
	defer w1.Close()
	r, err := NewRouter(testTable(2), []GroupConfig{{Primary: w0.srv.URL}, {Primary: w1.srv.URL}}, RouterOptions{
		ProbeInterval: time.Hour,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	// do sends one request and returns the id on the router's response.
	do := func(method, path, id string) string {
		t.Helper()
		var body io.Reader
		if method == http.MethodPost {
			body = strings.NewReader(`{"edges":[[0,1]]}`)
		}
		req := httptest.NewRequest(method, path, body)
		if id != "" {
			req.Header.Set("X-Request-Id", id)
		}
		rec := httptest.NewRecorder()
		r.Handler().ServeHTTP(rec, req)
		if rec.Code != http.StatusOK {
			t.Fatalf("%s %s: status %d body %s", method, path, rec.Code, rec.Body)
		}
		return rec.Header().Get("X-Request-Id")
	}
	// since returns the ids a worker received after its first n reads
	// and writes.
	since := func(w *fakeWorker, n int) []string { return w.requestIDs()[n:] }

	// A valid client id reaches the owning worker verbatim.
	n0, n1 := len(w0.requestIDs()), len(w1.requestIDs())
	if got := do(http.MethodGet, "/cycle/0", "client-7.a_b"); got != "client-7.a_b" {
		t.Fatalf("read: response id %q, want the client's", got)
	}
	seen := append(since(w0, n0), since(w1, n1)...)
	if len(seen) != 1 || seen[0] != "client-7.a_b" {
		t.Fatalf("read: workers saw ids %q, want exactly the client's", seen)
	}

	// No client id: one minted id on the response and on both legs of the
	// broadcast.
	n0, n1 = len(w0.requestIDs()), len(w1.requestIDs())
	id := do(http.MethodPost, "/edges", "")
	if id == "" {
		t.Fatal("write: router minted no id")
	}
	if g0, g1 := since(w0, n0), since(w1, n1); len(g0) != 1 || len(g1) != 1 || g0[0] != id || g1[0] != id {
		t.Fatalf("write: legs carried %q and %q, want %q on each", g0, g1, id)
	}

	// An invalid client id is replaced, not forwarded.
	n0, n1 = len(w0.requestIDs()), len(w1.requestIDs())
	bad := "no spaces allowed"
	id = do(http.MethodGet, "/cycle/2", bad)
	if id == "" || id == bad {
		t.Fatalf("invalid client id: response id %q", id)
	}
	if seen := append(since(w0, n0), since(w1, n1)...); len(seen) != 1 || seen[0] != id {
		t.Fatalf("invalid client id: workers saw %q, want the minted %q", seen, id)
	}

	// A trivial vertex is answered by the router itself, still with an id.
	if id := do(http.MethodGet, "/cycle/3", ""); id == "" {
		t.Fatal("trivial read: no id on the router's response")
	}
}
