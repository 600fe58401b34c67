package serve_test

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"regexp"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/csc"
	"repro/internal/engine"
	"repro/internal/graph"
	"repro/internal/obs"
	"repro/internal/serve"
)

// syncBuffer is a goroutine-safe access-log sink.
type syncBuffer struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (b *syncBuffer) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.Write(p)
}

func (b *syncBuffer) String() string {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.String()
}

// obsServer builds a sharded engine with metrics and the full
// observability handler over it.
func obsServer(t *testing.T, opts serve.Options) (*engine.Engine, *httptest.Server, *obs.Registry) {
	t.Helper()
	g := graph.New(8)
	for k := 0; k < 8; k++ {
		if err := g.AddEdge(k, (k+1)%8); err != nil {
			t.Fatal(err)
		}
	}
	x, _ := csc.BuildSharded(g, csc.Options{})
	reg := obs.New()
	e := engine.New(x, engine.Options{FlushInterval: -1, Metrics: reg})
	t.Cleanup(func() { e.Close() })
	w := e.WatchTopK(3)
	srv := httptest.NewServer(serve.NewHandler(e, w, 3, opts))
	t.Cleanup(srv.Close)
	return e, srv, reg
}

func get(t *testing.T, url string) (int, string) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, string(body)
}

// checkExposition validates Prometheus text format invariants: unique
// family names, every sample line under a seen family, cumulative
// histogram buckets monotone with _count equal to the +Inf bucket. The
// same checks cmd/promcheck runs in CI.
func checkExposition(t *testing.T, text string) {
	t.Helper()
	seen := map[string]bool{}
	type histState struct {
		last    uint64
		lastLE  float64
		inf     uint64
		hasInf  bool
		count   uint64
		hasCnt  bool
		samples int
	}
	hists := map[string]*histState{} // name+labels (minus le)
	sc := bufio.NewScanner(strings.NewReader(text))
	var curFam string
	for sc.Scan() {
		line := sc.Text()
		if line == "" {
			continue
		}
		if strings.HasPrefix(line, "# TYPE ") {
			parts := strings.Fields(line)
			if len(parts) != 4 {
				t.Fatalf("bad TYPE line %q", line)
			}
			name := parts[2]
			if seen[name] {
				t.Fatalf("duplicate family %q", name)
			}
			seen[name] = true
			curFam = name
			continue
		}
		if strings.HasPrefix(line, "#") {
			continue
		}
		name := line
		if i := strings.IndexAny(line, "{ "); i >= 0 {
			name = line[:i]
		}
		base := strings.TrimSuffix(strings.TrimSuffix(strings.TrimSuffix(name, "_bucket"), "_sum"), "_count")
		if curFam == "" || (name != curFam && base != curFam) {
			t.Fatalf("sample %q outside its family (current %q)", line, curFam)
		}
		if strings.HasSuffix(name, "_bucket") {
			key, le, val := parseBucket(t, line)
			h := hists[key]
			if h == nil {
				h = &histState{lastLE: -1}
				hists[key] = h
			}
			if val < h.last {
				t.Fatalf("non-monotone buckets at %q: %d < %d", line, val, h.last)
			}
			if le != le { // NaN guard; le is +Inf for the last bucket
				t.Fatalf("bad le in %q", line)
			}
			if le <= h.lastLE {
				t.Fatalf("non-increasing le at %q", line)
			}
			h.last, h.lastLE = val, le
			h.samples++
			if le > 1e300 {
				h.inf, h.hasInf = val, true
			}
		}
		if strings.HasSuffix(name, "_count") && !strings.Contains(line, "le=") {
			f := strings.Fields(line)
			v, err := strconv.ParseUint(f[len(f)-1], 10, 64)
			if err != nil {
				t.Fatalf("bad count %q", line)
			}
			key := strings.TrimSuffix(name, "_count") + labelsOf(line)
			if h := hists[key]; h != nil {
				h.count, h.hasCnt = v, true
			}
		}
	}
	for key, h := range hists {
		if !h.hasInf {
			t.Fatalf("histogram %q has no +Inf bucket", key)
		}
		if h.hasCnt && h.count != h.inf {
			t.Fatalf("histogram %q: _count %d != +Inf bucket %d", key, h.count, h.inf)
		}
	}
}

func parseBucket(t *testing.T, line string) (key string, le float64, val uint64) {
	t.Helper()
	name := line[:strings.Index(line, "{")]
	rest := line[strings.Index(line, "{")+1 : strings.LastIndex(line, "}")]
	var labels []string
	for _, l := range strings.Split(rest, ",") {
		if strings.HasPrefix(l, "le=") {
			raw := strings.Trim(strings.TrimPrefix(l, "le="), `"`)
			if raw == "+Inf" {
				le = math.Inf(1)
			} else {
				var err error
				le, err = strconv.ParseFloat(raw, 64)
				if err != nil {
					t.Fatalf("bad le %q in %q", raw, line)
				}
			}
			continue
		}
		labels = append(labels, l)
	}
	sort.Strings(labels)
	f := strings.Fields(line)
	v, err := strconv.ParseUint(f[len(f)-1], 10, 64)
	if err != nil {
		t.Fatalf("bad bucket value %q", line)
	}
	return strings.TrimSuffix(name, "_bucket") + "{" + strings.Join(labels, ",") + "}", le, v
}

func labelsOf(line string) string {
	i := strings.Index(line, "{")
	if i < 0 {
		return "{}"
	}
	return line[i : strings.LastIndex(line, "}")+1]
}

// TestMetricsEndpoint: /metrics serves a valid exposition carrying the
// engine, WAL-less, and HTTP-route families, and its counters match
// /stats exactly.
func TestMetricsEndpoint(t *testing.T) {
	_, srv, _ := obsServer(t, serve.Options{})

	if code, _ := get(t, srv.URL+"/cycle/0"); code != 200 {
		t.Fatal("cycle query failed")
	}
	if code, _ := get(t, srv.URL+"/cycle/1"); code != 200 {
		t.Fatal("cycle query failed")
	}
	code, body := get(t, srv.URL+"/metrics")
	if code != 200 {
		t.Fatalf("/metrics %d: %s", code, body)
	}
	checkExposition(t, body)
	for _, want := range []string{
		"cscd_queries_total",
		"cscd_query_join_seconds_bucket",
		"cscd_http_request_seconds_bucket{route=\"GET /cycle/{v}\"",
		"cscd_shard_entries",
	} {
		if !strings.Contains(body, want) {
			t.Errorf("/metrics missing %q", want)
		}
	}

	// No drift: scrape again and compare the query counter, the
	// serving-state sizes, the graph footprint and the label sizes against
	// /stats. The 8-ring is one shard, so the cache and the scoreboard
	// both hold its 8 vertices, the graphs held are at least the CSR
	// arrays of the ring, its shard subgraph and its 16-vertex
	// conversion, and the label store holds some but not more than the
	// logical label bytes.
	_, statsBody := get(t, srv.URL+"/stats")
	var st struct {
		Queries       uint64 `json:"queries"`
		CacheSlots    int    `json:"cache_slots"`
		TopKTracked   int    `json:"top_k_tracked"`
		GraphBytes    int    `json:"graph_bytes"`
		LabelBytes    int    `json:"label_bytes"`
		ResidentBytes int    `json:"label_resident_bytes"`
	}
	if err := json.Unmarshal([]byte(statsBody), &st); err != nil {
		t.Fatal(err)
	}
	if st.CacheSlots != 8 || st.TopKTracked != 8 {
		t.Fatalf("/stats sizes: cache_slots %d top_k_tracked %d, want 8 and 8", st.CacheSlots, st.TopKTracked)
	}
	if csr := 2 * 4 * ((9 + 8) + (9 + 8) + (17 + 16)); st.GraphBytes < csr {
		t.Fatalf("/stats graph_bytes %d, want at least the %d bytes of CSR arrays", st.GraphBytes, csr)
	}
	if st.ResidentBytes <= 0 || st.ResidentBytes > st.LabelBytes {
		t.Fatalf("/stats label_resident_bytes %d, want in (0, label_bytes %d]", st.ResidentBytes, st.LabelBytes)
	}
	_, body = get(t, srv.URL+"/metrics")
	for _, want := range []string{
		fmt.Sprintf("cscd_queries_total %d", st.Queries),
		fmt.Sprintf("cscd_cache_slots %d", st.CacheSlots),
		fmt.Sprintf("cscd_top_k_tracked %d", st.TopKTracked),
		fmt.Sprintf("cscd_graph_bytes %d", st.GraphBytes),
		fmt.Sprintf("cscd_label_bytes %d", st.LabelBytes),
		fmt.Sprintf("cscd_label_resident_bytes %d", st.ResidentBytes),
	} {
		if !strings.Contains(body, want) {
			t.Errorf("metrics/stats drift: /metrics lacks %q", want)
		}
	}

	// The runtime families read runtime/metrics: a heap in use, a heap
	// goal, and a cycle counter that a forced collection advances.
	sample := func(body, name string) float64 {
		t.Helper()
		m := regexp.MustCompile(`(?m)^` + name + ` (\S+)$`).FindStringSubmatch(body)
		if m == nil {
			t.Fatalf("/metrics lacks %s", name)
		}
		v, err := strconv.ParseFloat(m[1], 64)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		return v
	}
	inuse, goal := sample(body, "cscd_heap_inuse_bytes"), sample(body, "cscd_heap_goal_bytes")
	if inuse <= 0 || goal <= 0 {
		t.Errorf("heap in use %v, heap goal %v: want both positive", inuse, goal)
	}
	cycles := sample(body, "cscd_gc_cycles_total")
	runtime.GC()
	_, body = get(t, srv.URL+"/metrics")
	if after := sample(body, "cscd_gc_cycles_total"); after <= cycles {
		t.Errorf("cscd_gc_cycles_total %v after runtime.GC, was %v", after, cycles)
	}
}

// TestRequestIDAdoptedOrMinted: a valid inbound X-Request-Id is adopted
// and echoed; a missing, oversized or badly charactered one is replaced
// by a minted id.
func TestRequestIDAdoptedOrMinted(t *testing.T) {
	minted := regexp.MustCompile(`^[0-9a-f]{8}-[0-9]{6,}$`)
	_, srv, _ := obsServer(t, serve.Options{})
	idOf := func(sent string) string {
		t.Helper()
		req, err := http.NewRequest(http.MethodGet, srv.URL+"/cycle/0", nil)
		if err != nil {
			t.Fatal(err)
		}
		if sent != "" {
			req.Header.Set("X-Request-Id", sent)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		return resp.Header.Get("X-Request-Id")
	}
	for _, ok := range []string{"a", "client.req_42-x", strings.Repeat("z", 64)} {
		if got := idOf(ok); got != ok {
			t.Errorf("valid id %q not adopted: got %q", ok, got)
		}
	}
	for _, bad := range []string{"", strings.Repeat("z", 65), "has space", "semi;colon", "ünï"} {
		got := idOf(bad)
		if got == bad || !minted.MatchString(got) {
			t.Errorf("invalid id %q: response id %q, want a minted one", bad, got)
		}
	}
}

// TestDebugTrace: /debug/trace serves the batch timelines as JSON.
func TestDebugTrace(t *testing.T) {
	e, srv, _ := obsServer(t, serve.Options{})
	if err := e.Insert(3, 0); err != nil {
		t.Fatal(err)
	}
	e.Flush()

	code, body := get(t, srv.URL+"/debug/trace")
	if code != 200 {
		t.Fatalf("/debug/trace %d: %s", code, body)
	}
	var traces []obs.BatchTrace
	if err := json.Unmarshal([]byte(body), &traces); err != nil {
		t.Fatal(err)
	}
	if len(traces) == 0 {
		t.Fatal("no traces")
	}
	tr := traces[len(traces)-1]
	if tr.Kind != "batch" || len(tr.Stages) != 6 || tr.TotalNS <= 0 {
		t.Fatalf("bad trace %+v", tr)
	}
}

// TestAccessLogAndSlowQuery: each request logs one JSON line with the
// expected fields, and a query over the (tiny) slow threshold is flagged
// with its vertex.
func TestAccessLogAndSlowQuery(t *testing.T) {
	var logBuf syncBuffer
	_, srv, _ := obsServer(t, serve.Options{AccessLog: &logBuf, SlowQuery: time.Nanosecond})

	if code, _ := get(t, srv.URL+"/cycle/2"); code != 200 {
		t.Fatal("cycle query failed")
	}
	if code, _ := get(t, srv.URL+"/stats"); code != 200 {
		t.Fatal("stats failed")
	}

	lines := strings.Split(strings.TrimSpace(logBuf.String()), "\n")
	if len(lines) != 2 {
		t.Fatalf("expected 2 access lines, got %d: %s", len(lines), logBuf.String())
	}
	var first struct {
		Method    string  `json:"method"`
		Path      string  `json:"path"`
		Route     string  `json:"route"`
		Status    int     `json:"status"`
		DurMS     float64 `json:"duration_ms"`
		RequestID string  `json:"request_id"`
		Slow      bool    `json:"slow"`
		Vertex    string  `json:"vertex"`
	}
	if err := json.Unmarshal([]byte(lines[0]), &first); err != nil {
		t.Fatal(err)
	}
	if first.Method != "GET" || first.Path != "/cycle/2" || first.Status != 200 ||
		first.RequestID == "" || first.DurMS <= 0 {
		t.Fatalf("bad access line: %+v", first)
	}
	// Every /cycle read exceeds a 1ns threshold: flagged slow with vertex.
	if !first.Slow || first.Vertex != "2" {
		t.Fatalf("slow query not flagged: %+v", first)
	}
	var second struct {
		Route string `json:"route"`
		Slow  bool   `json:"slow"`
	}
	if err := json.Unmarshal([]byte(lines[1]), &second); err != nil {
		t.Fatal(err)
	}
	if second.Route != "GET /stats" || second.Slow {
		t.Fatalf("bad second line: %+v", second)
	}
}

// TestPprofMount: pprof serves only when opted in.
func TestPprofMount(t *testing.T) {
	_, srvOff, _ := obsServer(t, serve.Options{})
	if code, _ := get(t, srvOff.URL+"/debug/pprof/"); code != 404 {
		t.Fatalf("pprof mounted without opt-in: %d", code)
	}
	_, srvOn, _ := obsServer(t, serve.Options{Pprof: true})
	if code, body := get(t, srvOn.URL+"/debug/pprof/goroutine?debug=1"); code != 200 ||
		!strings.Contains(body, "goroutine") {
		t.Fatalf("pprof not serving: %d", code)
	}
}
