package serve

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/pprof"
	"os"
	"strings"
	"sync/atomic"
	"time"

	"repro/internal/engine"
	"repro/internal/monitor"
	"repro/internal/obs"
)

// Observability surface of the HTTP layer:
//
//	GET /metrics      Prometheus text exposition of the engine registry,
//	                  plus the per-route request-latency histograms this
//	                  layer records
//	GET /debug/trace  recent batch-lifecycle traces as JSON, oldest
//	                  first
//	GET /debug/pprof  the standard pprof handlers, mounted only with
//	                  Options.Pprof
//
// and, behind Options.AccessLog, one JSON line per request: timestamp,
// request id, method, path, matched route, status, duration, and bytes
// written. A /cycle query slower than Options.SlowQuery is additionally
// flagged slow with its vertex — to the access log when one is
// configured, to stderr otherwise.

// Options configures the optional observability of NewHandler. The zero
// value mounts /metrics and /debug/trace (they serve 404 when the engine
// has no registry / trace ring) and nothing else.
type Options struct {
	// AccessLog receives one JSON line per completed request. Nil
	// disables access logging. Writes are serialized by the handler.
	AccessLog io.Writer
	// SlowQuery flags /cycle reads at or above this duration: the access
	// line is marked slow and carries the queried vertex, and the line is
	// emitted even without AccessLog (to stderr). 0 disables.
	SlowQuery time.Duration
	// Pprof mounts net/http/pprof under /debug/pprof/.
	Pprof bool
}

// NewHandler mounts the serving API plus the observability surface over
// an engine. The per-route latency histograms register into the
// engine's metrics registry, so build at most one handler per engine.
func NewHandler(e *engine.Engine, watch *monitor.TopK, k int, opts Options) http.Handler {
	s := &server{
		e: e, watch: watch, k: k, start: time.Now(), opts: opts,
		slowOut: opts.AccessLog,
		ids:     NewRequestIDs(),
	}
	if s.slowOut == nil {
		s.slowOut = os.Stderr
	}
	mux := http.NewServeMux()
	routes := map[string]http.HandlerFunc{
		"GET /cycle/{v}":      s.cycle,
		"GET /top":            s.top,
		"POST /edges":         s.edges(engine.OpInsert),
		"DELETE /edges":       s.edges(engine.OpDelete),
		"GET /stats":          s.stats,
		"GET /healthz":        s.healthz,
		"GET /cluster/shards": s.clusterShards,
		"GET /metrics":        s.metrics,
		"GET /debug/trace":    s.traces,
	}
	if reg := e.Metrics(); reg != nil {
		vec := reg.HistogramVec("cscd_http_request_seconds", "HTTP request latency by matched route", "route")
		s.routeNS = make(map[string]*obs.Histogram, len(routes))
		for pattern := range routes {
			s.routeNS[pattern] = vec.With(pattern)
		}
		if watch != nil {
			reg.GaugeFunc("cscd_top_k_tracked", "vertices the top-k scoreboard holds a score for (those on a cycle)", func() float64 {
				return float64(watch.Tracked())
			})
		}
	}
	for pattern, h := range routes {
		mux.HandleFunc(pattern, h)
	}
	if opts.Pprof {
		// Index serves every /debug/pprof/{heap,goroutine,...} profile
		// itself; only the four special handlers need their own routes.
		mux.HandleFunc("GET /debug/pprof/", pprof.Index)
		mux.HandleFunc("GET /debug/pprof/cmdline", pprof.Cmdline)
		mux.HandleFunc("GET /debug/pprof/profile", pprof.Profile)
		mux.HandleFunc("GET /debug/pprof/symbol", pprof.Symbol)
		mux.HandleFunc("GET /debug/pprof/trace", pprof.Trace)
	}
	if opts.AccessLog == nil && opts.SlowQuery <= 0 && s.routeNS == nil {
		return mux // nothing to observe per-request
	}
	return s.instrument(mux)
}

// metrics serves the engine registry in Prometheus text exposition
// format 0.0.4. 404 when the engine was built without a registry.
func (s *server) metrics(w http.ResponseWriter, r *http.Request) {
	reg := s.e.Metrics()
	if reg == nil {
		WriteError(w, http.StatusNotFound, CodeNotFound, 0, "metrics disabled (engine has no registry)")
		return
	}
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	_ = reg.WritePrometheus(w)
}

// traces serves the recent batch-lifecycle traces, oldest first. 404
// when tracing is disabled.
func (s *server) traces(w http.ResponseWriter, r *http.Request) {
	tr := s.e.Traces()
	if tr == nil {
		WriteError(w, http.StatusNotFound, CodeNotFound, 0, "batch tracing disabled")
		return
	}
	writeJSON(w, http.StatusOK, tr)
}

// RequestIDHeader carries a request's id (see RequestIDs).
const RequestIDHeader = "X-Request-Id"

// RequestIDs assigns each request its id: the inbound X-Request-Id when
// it is 1–64 characters of [A-Za-z0-9._-], which is safe to log and
// forward verbatim, and otherwise a fresh id minted from a per-process
// prefix and a counter. The worker's handler and the router each hold
// one, so an id the router assigns is the one the worker logs.
type RequestIDs struct {
	boot string
	n    atomic.Uint64
}

// NewRequestIDs returns an id source whose minted ids carry a prefix
// taken from the clock, so restarts do not reuse ids.
func NewRequestIDs() *RequestIDs {
	return &RequestIDs{boot: fmt.Sprintf("%08x", uint32(time.Now().UnixNano()))}
}

// Assign returns r's id and sets it on the response.
func (g *RequestIDs) Assign(w http.ResponseWriter, r *http.Request) string {
	id := r.Header.Get(RequestIDHeader)
	if !validRequestID(id) {
		id = fmt.Sprintf("%s-%06d", g.boot, g.n.Add(1))
	}
	w.Header().Set(RequestIDHeader, id)
	return id
}

func validRequestID(id string) bool {
	if len(id) == 0 || len(id) > 64 {
		return false
	}
	for i := 0; i < len(id); i++ {
		switch c := id[i]; {
		case 'a' <= c && c <= 'z', 'A' <= c && c <= 'Z', '0' <= c && c <= '9', c == '.', c == '_', c == '-':
		default:
			return false
		}
	}
	return true
}

// accessLine is one JSON access-log record.
type accessLine struct {
	Time      string  `json:"time"`
	RequestID string  `json:"request_id"`
	Method    string  `json:"method"`
	Path      string  `json:"path"`
	Route     string  `json:"route,omitempty"`
	Status    int     `json:"status"`
	DurMS     float64 `json:"duration_ms"`
	Bytes     int64   `json:"bytes"`
	Slow      bool    `json:"slow,omitempty"`
	Vertex    string  `json:"vertex,omitempty"`
}

// statusWriter captures the response status and size for the access log.
type statusWriter struct {
	http.ResponseWriter
	status int
	bytes  int64
}

func (w *statusWriter) WriteHeader(code int) {
	w.status = code
	w.ResponseWriter.WriteHeader(code)
}

func (w *statusWriter) Write(p []byte) (int, error) {
	n, err := w.ResponseWriter.Write(p)
	w.bytes += int64(n)
	return n, err
}

// instrument wraps the mux with the per-request observability: route
// latency histogram, access log line, slow-query flagging.
func (s *server) instrument(mux *http.ServeMux) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		t0 := time.Now()
		id := s.ids.Assign(w, r)
		sw := &statusWriter{ResponseWriter: w, status: http.StatusOK}
		mux.ServeHTTP(sw, r)
		dur := time.Since(t0)
		_, route := mux.Handler(r)
		if h, ok := s.routeNS[route]; ok {
			h.Observe(dur.Nanoseconds())
		}
		slow := s.opts.SlowQuery > 0 && dur >= s.opts.SlowQuery &&
			strings.HasPrefix(r.URL.Path, "/cycle/")
		if s.opts.AccessLog == nil && !slow {
			return
		}
		line := accessLine{
			Time:      t0.UTC().Format(time.RFC3339Nano),
			RequestID: id,
			Method:    r.Method,
			Path:      r.URL.Path,
			Route:     route,
			Status:    sw.status,
			DurMS:     float64(dur.Microseconds()) / 1000,
			Bytes:     sw.bytes,
		}
		if slow {
			line.Slow = true
			line.Vertex = strings.TrimPrefix(r.URL.Path, "/cycle/")
		}
		out := s.opts.AccessLog
		if out == nil {
			out = s.slowOut
		}
		buf, err := json.Marshal(line)
		if err != nil {
			return
		}
		buf = append(buf, '\n')
		s.logMu.Lock()
		_, _ = out.Write(buf)
		s.logMu.Unlock()
	})
}
