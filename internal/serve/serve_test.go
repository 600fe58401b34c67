package serve_test

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/csc"
	"repro/internal/engine"
	"repro/internal/faultstore"
	"repro/internal/graph"
	"repro/internal/serve"
)

func newServer(t *testing.T, n int, k int, dir string) (*engine.Engine, *httptest.Server) {
	t.Helper()
	var e *engine.Engine
	opts := engine.Options{FlushInterval: -1}
	if dir != "" {
		var err error
		e, err = engine.Open(dir, func() (csc.Counter, error) {
			x, _ := csc.BuildSharded(graph.New(n), csc.Options{})
			return x, nil
		}, opts)
		if err != nil {
			t.Fatal(err)
		}
	} else {
		x, _ := csc.BuildSharded(graph.New(n), csc.Options{})
		e = engine.New(x, opts)
	}
	w := e.WatchTopK(k)
	srv := httptest.NewServer(serve.Handler(e, w, k))
	t.Cleanup(srv.Close)
	return e, srv
}

func do(t *testing.T, method, url string, body any) (int, map[string]json.RawMessage) {
	t.Helper()
	var rd *bytes.Reader
	if body != nil {
		b, err := json.Marshal(body)
		if err != nil {
			t.Fatal(err)
		}
		rd = bytes.NewReader(b)
	} else {
		rd = bytes.NewReader(nil)
	}
	req, err := http.NewRequest(method, url, rd)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var out map[string]json.RawMessage
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, out
}

func TestServeEndToEnd(t *testing.T) {
	_, srv := newServer(t, 10, 3, "")

	// Healthy from the start.
	if code, _ := do(t, "GET", srv.URL+"/healthz", nil); code != 200 {
		t.Fatalf("healthz %d", code)
	}

	// Stream a triangle plus a chord, flushed for read-your-writes.
	code, body := do(t, "POST", srv.URL+"/edges?flush=1", serve.EdgesRequest{
		Edges: [][2]int{{0, 1}, {1, 2}, {2, 0}, {2, 1}},
	})
	if code != 200 {
		t.Fatalf("post edges: %d %v", code, body)
	}
	var enq int
	_ = json.Unmarshal(body["enqueued"], &enq)
	if enq != 4 {
		t.Fatalf("enqueued %d, want 4", enq)
	}

	// Query the cycle.
	code, body = do(t, "GET", srv.URL+"/cycle/0", nil)
	if code != 200 {
		t.Fatalf("cycle: %d", code)
	}
	var exists bool
	var length int
	_ = json.Unmarshal(body["exists"], &exists)
	_ = json.Unmarshal(body["length"], &length)
	if !exists || length != 3 {
		t.Fatalf("cycle/0 = %v", body)
	}

	// Top-k sees the 2-cycle vertices first (1 and 2 sit on cycles of
	// length 2 via the chord).
	code, body = do(t, "GET", srv.URL+"/top", nil)
	if code != 200 {
		t.Fatalf("top: %d", code)
	}
	var top []serve.CycleJSON
	_ = json.Unmarshal(body["top"], &top)
	if len(top) != 3 {
		t.Fatalf("top has %d rows, want 3: %v", len(top), top)
	}
	if top[0].Length != 2 {
		t.Fatalf("top[0] should be a 2-cycle vertex: %+v", top[0])
	}

	// Deletion via DELETE /edges.
	code, _ = do(t, "DELETE", srv.URL+"/edges?flush=1", serve.EdgesRequest{Edges: [][2]int{{2, 1}}})
	if code != 200 {
		t.Fatalf("delete edges: %d", code)
	}
	_, body = do(t, "GET", srv.URL+"/cycle/1", nil)
	_ = json.Unmarshal(body["length"], &length)
	if length != 3 {
		t.Fatalf("after chord deletion vertex 1 should be on the triangle, got %v", body)
	}

	// Bounded query: vertex 1 sits on the length-3 triangle only, so a
	// maxlen=2 screen reports no cycle while maxlen=3 reports it.
	_, body = do(t, "GET", srv.URL+"/cycle/1?maxlen=2", nil)
	exists = true
	_ = json.Unmarshal(body["exists"], &exists)
	if exists {
		t.Fatalf("maxlen=2 should screen out the triangle: %v", body)
	}
	_, body = do(t, "GET", srv.URL+"/cycle/1?maxlen=3", nil)
	_ = json.Unmarshal(body["exists"], &exists)
	_ = json.Unmarshal(body["length"], &length)
	if !exists || length != 3 {
		t.Fatalf("maxlen=3 should keep the triangle: %v", body)
	}
	if code, _ := do(t, "GET", srv.URL+"/cycle/1?maxlen=zero", nil); code != 400 {
		t.Fatalf("bad maxlen accepted: %d", code)
	}

	// Bad inputs.
	if code, _ := do(t, "GET", srv.URL+"/cycle/999", nil); code != 400 {
		t.Fatalf("out-of-range vertex: %d", code)
	}
	if code, _ := do(t, "GET", srv.URL+"/cycle/notanumber", nil); code != 400 {
		t.Fatalf("non-integer vertex: %d", code)
	}
	code, body = do(t, "POST", srv.URL+"/edges", serve.EdgesRequest{Edges: [][2]int{{5, 5}, {0, 99}}})
	if code != 200 {
		t.Fatalf("rejected edges post: %d", code)
	}
	var rejected []serve.EdgeError
	_ = json.Unmarshal(body["rejected"], &rejected)
	if len(rejected) != 2 {
		t.Fatalf("rejected %v, want self-loop and range errors", rejected)
	}

	// Stats counts what happened.
	_, body = do(t, "GET", srv.URL+"/stats", nil)
	var applied uint64
	_ = json.Unmarshal(body["ops_applied"], &applied)
	if applied != 5 {
		t.Fatalf("stats ops_applied = %s, want 5", body["ops_applied"])
	}
}

// A daemon killed without shutdown must come back serving the exact same
// answers from snapshot+WAL.
func TestServeRecoveryAcrossRestart(t *testing.T) {
	dir := t.TempDir()
	e1, srv1 := newServer(t, 12, 3, dir)

	r := rand.New(rand.NewSource(3))
	var edges [][2]int
	for len(edges) < 20 {
		u, v := r.Intn(12), r.Intn(12)
		if u != v {
			edges = append(edges, [2]int{u, v})
		}
	}
	if code, _ := do(t, "POST", srv1.URL+"/edges?flush=1", serve.EdgesRequest{Edges: edges}); code != 200 {
		t.Fatal("post failed")
	}
	want := make([]string, 12)
	for v := 0; v < 12; v++ {
		_, body := do(t, "GET", srv1.URL+fmt.Sprintf("/cycle/%d", v), nil)
		want[v] = fmt.Sprint(body)
	}
	srv1.Close()
	// "Kill" the daemon: Close persists nothing new (no final snapshot;
	// the WAL fsyncs before each apply) — it only releases the store
	// lock, as process death would.
	if err := e1.Close(); err != nil {
		t.Fatal(err)
	}

	_, srv2 := newServer(t, 12, 3, dir)
	for v := 0; v < 12; v++ {
		_, body := do(t, "GET", srv2.URL+fmt.Sprintf("/cycle/%d", v), nil)
		if got := fmt.Sprint(body); got != want[v] {
			t.Fatalf("vertex %d after restart: %s, want %s", v, got, want[v])
		}
	}
}

// The HTTP surface under concurrent clients (meaningful with -race).
func TestServeConcurrentClients(t *testing.T) {
	_, srv := newServer(t, 30, 3, "")
	var wg sync.WaitGroup
	for c := 0; c < 4; c++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			r := rand.New(rand.NewSource(seed))
			for i := 0; i < 30; i++ {
				switch r.Intn(3) {
				case 0:
					u, v := r.Intn(30), r.Intn(30)
					if u == v {
						continue
					}
					kind := "POST"
					if r.Intn(2) == 0 {
						kind = "DELETE"
					}
					do(t, kind, srv.URL+"/edges", serve.EdgesRequest{Edges: [][2]int{{u, v}}})
				case 1:
					do(t, "GET", srv.URL+fmt.Sprintf("/cycle/%d", r.Intn(30)), nil)
				default:
					do(t, "GET", srv.URL+"/top", nil)
				}
			}
		}(int64(c))
	}
	wg.Wait()
}

// TestMalformedRequests is the table-driven sweep of every route's input
// validation: malformed vertex ids (non-numeric, negative, overflowing,
// out of range) and malformed ?maxlen= must come back 400 with a JSON
// error body — never a 500, a panic, or a 404 that clients would retry
// as "not yet there" — and routes with inputs intact answer their normal
// codes. Each request must also land one access-log line carrying the
// response status.
func TestMalformedRequests(t *testing.T) {
	g := graph.New(8)
	for _, e := range [][2]int{{0, 1}, {1, 2}, {2, 0}} {
		if err := g.AddEdge(e[0], e[1]); err != nil {
			t.Fatal(err)
		}
	}
	x, _ := csc.BuildSharded(g, csc.Options{})
	e := engine.New(x, engine.Options{FlushInterval: -1})
	t.Cleanup(func() { e.Close() })

	var logBuf bytes.Buffer
	var logMu sync.Mutex
	srv := httptest.NewServer(serve.NewHandler(e, nil, 0, serve.Options{
		AccessLog: lockedWriter{mu: &logMu, w: &logBuf},
	}))
	t.Cleanup(srv.Close)

	cases := []struct {
		name     string
		method   string
		path     string
		body     any
		want     int
		wantCode string // machine-readable error code on ≥400 responses
	}{
		{"cycle ok", "GET", "/cycle/0", nil, 200, ""},
		{"cycle bounded ok", "GET", "/cycle/0?maxlen=3", nil, 200, ""},
		{"cycle non-numeric", "GET", "/cycle/notanumber", nil, 400, serve.CodeBadVertex},
		{"cycle float", "GET", "/cycle/1.5", nil, 400, serve.CodeBadVertex},
		{"cycle negative", "GET", "/cycle/-1", nil, 400, serve.CodeBadVertex},
		{"cycle out of range", "GET", "/cycle/8", nil, 400, serve.CodeBadVertex},
		{"cycle far out of range", "GET", "/cycle/999999", nil, 400, serve.CodeBadVertex},
		{"cycle overflow", "GET", "/cycle/99999999999999999999", nil, 400, serve.CodeBadVertex},
		{"maxlen non-numeric", "GET", "/cycle/0?maxlen=abc", nil, 400, serve.CodeBadMaxLen},
		{"maxlen zero", "GET", "/cycle/0?maxlen=0", nil, 400, serve.CodeBadMaxLen},
		{"maxlen negative", "GET", "/cycle/0?maxlen=-2", nil, 400, serve.CodeBadMaxLen},
		{"maxlen overflow", "GET", "/cycle/0?maxlen=99999999999999999999", nil, 400, serve.CodeBadMaxLen},
		{"maxlen on bad vertex", "GET", "/cycle/-5?maxlen=abc", nil, 400, serve.CodeBadVertex},
		{"edges bad json", "POST", "/edges", "not json", 400, serve.CodeBadBody},
		{"edges delete bad json", "DELETE", "/edges", "not json", 400, serve.CodeBadBody},
		{"top without watch", "GET", "/top", nil, 404, serve.CodeNotFound},
		{"stats", "GET", "/stats", nil, 200, ""},
		{"healthz", "GET", "/healthz", nil, 200, ""},
		{"metrics without registry", "GET", "/metrics", nil, 404, serve.CodeNotFound},
		{"trace without ring", "GET", "/debug/trace", nil, 404, serve.CodeNotFound},
	}
	for _, tc := range cases {
		var rd *bytes.Reader
		if s, ok := tc.body.(string); ok {
			rd = bytes.NewReader([]byte(s)) // raw, deliberately not JSON-encoded
		} else {
			rd = bytes.NewReader(nil)
		}
		req, err := http.NewRequest(tc.method, srv.URL+tc.path, rd)
		if err != nil {
			t.Fatal(err)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		var body map[string]json.RawMessage
		if derr := json.NewDecoder(resp.Body).Decode(&body); derr != nil {
			t.Errorf("%s: non-JSON response body: %v", tc.name, derr)
		}
		resp.Body.Close()
		if resp.StatusCode != tc.want {
			t.Errorf("%s: status %d, want %d (%v)", tc.name, resp.StatusCode, tc.want, body)
		}
		if resp.StatusCode >= 400 {
			if _, ok := body["error"]; !ok {
				t.Errorf("%s: %d response carries no error field: %v", tc.name, resp.StatusCode, body)
			}
			var code string
			_ = json.Unmarshal(body["code"], &code)
			if code != tc.wantCode {
				t.Errorf("%s: machine-readable code %q, want %q", tc.name, code, tc.wantCode)
			}
		}
	}

	// Every request above must have produced an access line with its
	// status — error responses included. The log write happens after the
	// handler returns, so poll briefly for the tail to land.
	deadline := time.Now().Add(2 * time.Second)
	var lines []string
	for {
		logMu.Lock()
		lines = strings.Split(strings.TrimSpace(logBuf.String()), "\n")
		logMu.Unlock()
		if len(lines) >= len(cases) || time.Now().After(deadline) {
			break
		}
		time.Sleep(5 * time.Millisecond)
	}
	if len(lines) != len(cases) {
		t.Fatalf("access log has %d lines, want %d", len(lines), len(cases))
	}
	for i, tc := range cases {
		var line struct {
			Status int    `json:"status"`
			Method string `json:"method"`
		}
		if err := json.Unmarshal([]byte(lines[i]), &line); err != nil {
			t.Fatalf("access line %d is not JSON: %v (%q)", i, err, lines[i])
		}
		if line.Status != tc.want || line.Method != tc.method {
			t.Errorf("%s: access line records %s %d, want %s %d",
				tc.name, line.Method, line.Status, tc.method, tc.want)
		}
	}
}

// Overload answers must carry the same machine-readable shape as the
// validation errors: 429 under the reject policy comes back with code
// "overloaded", a Retry-After header, and the enqueued prefix.
func TestOverloadedErrorShape(t *testing.T) {
	g := graph.New(6)
	x, _ := csc.BuildSharded(g, csc.Options{})
	e := engine.New(x, engine.Options{
		FlushInterval: -1,
		MailboxSize:   1,
		Admission:     engine.AdmitReject,
	})
	entered := make(chan struct{})
	release := make(chan struct{})
	var once sync.Once
	e.OnBatch(func([]engine.Op, []int) {
		once.Do(func() {
			close(entered)
			<-release
		})
	})
	t.Cleanup(func() {
		close(release)
		e.Close()
	})
	srv := httptest.NewServer(serve.Handler(e, nil, 0))
	t.Cleanup(srv.Close)

	// First batch occupies the writer (parked in the hook), second fills
	// the 1-slot mailbox, third must bounce with 429.
	if code, _ := do(t, "POST", srv.URL+"/edges", serve.EdgesRequest{Edges: [][2]int{{0, 1}}}); code != 200 {
		t.Fatalf("first enqueue: %d", code)
	}
	<-entered
	if code, _ := do(t, "POST", srv.URL+"/edges", serve.EdgesRequest{Edges: [][2]int{{1, 2}}}); code != 200 {
		t.Fatalf("second enqueue: %d", code)
	}
	body, _ := json.Marshal(serve.EdgesRequest{Edges: [][2]int{{2, 3}}})
	resp, err := http.Post(srv.URL+"/edges", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var out serve.EdgesResponse
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatalf("non-JSON 429 body: %v", err)
	}
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("status %d, want 429 (%+v)", resp.StatusCode, out)
	}
	if out.Code != serve.CodeOverloaded || out.RetryAfterSeconds < 1 || out.Error == "" {
		t.Fatalf("429 shape: %+v", out)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("429 without a Retry-After header")
	}
}

// Read-only degradation (durability lost) must answer 503 with code
// "read_only" and a Retry-After, not a bare error string.
func TestReadOnlyErrorShape(t *testing.T) {
	fio := faultstore.New()
	bootstrap := func() (csc.Counter, error) {
		x, _ := csc.BuildSharded(graph.New(6), csc.Options{})
		return x, nil
	}
	e, err := engine.OpenIO(t.TempDir(), fio, bootstrap, engine.Options{FlushInterval: -1, WALRetry: 0})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = e.Close() })
	srv := httptest.NewServer(serve.Handler(e, nil, 0))
	t.Cleanup(srv.Close)

	// The disk breaks; the next applied batch degrades the engine.
	fio.Inject(faultstore.Fault{Point: faultstore.WALWrite, Err: faultstore.ErrInjected})
	if code, _ := do(t, "POST", srv.URL+"/edges?flush=1", serve.EdgesRequest{Edges: [][2]int{{0, 1}}}); code != 200 {
		t.Fatalf("degrading batch enqueue: %d", code)
	}
	body, _ := json.Marshal(serve.EdgesRequest{Edges: [][2]int{{1, 2}}})
	resp, err := http.Post(srv.URL+"/edges", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var out serve.EdgesResponse
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatalf("non-JSON 503 body: %v", err)
	}
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("status %d, want 503 (%+v)", resp.StatusCode, out)
	}
	if out.Code != serve.CodeReadOnly || out.RetryAfterSeconds < 1 {
		t.Fatalf("503 shape: %+v", out)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("503 without a Retry-After header")
	}
	// Reads keep serving while degraded.
	if code, _ := do(t, "GET", srv.URL+"/cycle/0", nil); code != 200 {
		t.Fatalf("read while read-only: %d", code)
	}
	// /healthz reports the mode: liveness stays 200, readiness turns 503.
	for _, probe := range []struct {
		path string
		code int
	}{{"/healthz", 200}, {"/healthz?ready=1", 503}} {
		resp, err := http.Get(srv.URL + probe.path)
		if err != nil {
			t.Fatal(err)
		}
		var h serve.HealthJSON
		err = json.NewDecoder(resp.Body).Decode(&h)
		resp.Body.Close()
		if err != nil {
			t.Fatalf("%s: %v", probe.path, err)
		}
		if code := resp.StatusCode; code != probe.code || h.Status != "degraded" || !h.ReadOnly || h.Err == "" {
			t.Fatalf("%s while read-only: %d %+v, want %d degraded with the error", probe.path, resp.StatusCode, h, probe.code)
		}
	}
}

// lockedWriter serializes test reads of the access-log buffer against
// the handler's writes.
type lockedWriter struct {
	mu *sync.Mutex
	w  io.Writer
}

func (l lockedWriter) Write(p []byte) (int, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.w.Write(p)
}
