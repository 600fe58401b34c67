// Package serve is the HTTP+JSON surface of the serving engine: the
// cscd daemon and the cyclehub.Engine.Handler facade both mount it. All
// handlers are safe under arbitrary concurrency — queries enter reader
// epochs, mutations go through the engine's mailbox.
//
// Routes:
//
//	GET    /cycle/{v}     SCCnt query for one vertex (?maxlen=L bounds
//	                      the answer to cycles of length ≤ L via the
//	                      bounded join kernel)
//	GET    /top           current top-k ranking (requires a watch)
//	POST   /edges         enqueue a batch of insertions
//	DELETE /edges         enqueue a batch of deletions
//	GET    /stats         engine counters + uptime
//	GET    /healthz       health: ok | degraded | overloaded
//
// Edge batches are {"edges": [[a,b], ...]}; add ?flush=1 to wait until
// the batch is applied (read-your-writes). Responses carry per-edge
// rejections for out-of-range or self-loop pairs; redundant ops are
// accepted and coalesced away by the engine.
//
// Every handler is bounded by its request context: a query or enqueue
// against a wedged writer returns when the client's deadline passes
// instead of holding the connection forever. Overload maps to 429 and
// read-only degradation to 503, both with Retry-After, so well-behaved
// clients back off instead of piling on. /healthz is liveness by
// default — it always answers 200 with a machine-readable status, since
// a degraded-but-serving process must not be restarted into a worse
// outage — and becomes a readiness probe with ?ready=1, answering 503
// for any non-ok status so load balancers drain the instance.
package serve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"sync"
	"time"

	"repro/internal/bfscount"
	"repro/internal/engine"
	"repro/internal/monitor"
	"repro/internal/obs"
)

// CycleJSON is the /cycle/{v} response body.
type CycleJSON struct {
	Vertex int    `json:"vertex"`
	Exists bool   `json:"exists"`
	Length int    `json:"length,omitempty"`
	Count  uint64 `json:"count,omitempty"`
	// Stale marks an answer served by a replication follower that may not
	// have caught up to its primary's tip yet — a freshly promoted
	// follower keeps serving flagged answers until replay closes the gap.
	Stale bool `json:"stale,omitempty"`
}

// ErrorJSON is the machine-readable error body every non-2xx response
// carries: a human-readable message plus a stable code clients can
// switch on, and — on backpressure statuses (429/503) — the same
// retry-after the header advertises, so programmatic clients need not
// parse headers. The cluster router (internal/dist) serves the identical
// shape via WriteError.
type ErrorJSON struct {
	Error             string `json:"error"`
	Code              string `json:"code"`
	RetryAfterSeconds int    `json:"retry_after_seconds,omitempty"`
}

// Error codes shared by the daemon and the cluster router.
const (
	CodeBadVertex     = "bad_vertex"     // non-integer / out-of-range vertex id
	CodeBadMaxLen     = "bad_maxlen"     // malformed ?maxlen=
	CodeBadBody       = "bad_body"       // unparseable request body
	CodeNotFound      = "not_found"      // disabled surface (top without -k, metrics without registry)
	CodeOverloaded    = "overloaded"     // mailbox full under the reject admission policy
	CodeReadOnly      = "read_only"      // durability-lost read-only degraded mode
	CodeWriterTimeout = "writer_timeout" // request deadline passed waiting on the writer
	CodeNoReplica     = "no_replica"     // router: no reachable replica for the owning worker
	CodePromoted      = "promoted"       // follower: replication stream severed by promotion
)

// WriteError writes the uniform ErrorJSON body. retryAfter > 0 also sets
// the Retry-After header — 429/503 must always pass it so well-behaved
// clients back off instead of piling on.
func WriteError(w http.ResponseWriter, status int, code string, retryAfter int, format string, args ...any) {
	if retryAfter > 0 {
		w.Header().Set("Retry-After", strconv.Itoa(retryAfter))
	}
	writeJSON(w, status, ErrorJSON{
		Error:             fmt.Sprintf(format, args...),
		Code:              code,
		RetryAfterSeconds: retryAfter,
	})
}

// TopJSON is the /top response body.
type TopJSON struct {
	K   int         `json:"k"`
	Top []CycleJSON `json:"top"`
}

// EdgesRequest is the /edges request body.
type EdgesRequest struct {
	Edges [][2]int `json:"edges"`
}

// EdgeError is one rejected edge in an EdgesResponse.
type EdgeError struct {
	Edge  [2]int `json:"edge"`
	Error string `json:"error"`
}

// EdgesResponse is the /edges response body. On a 429/503 the ErrorJSON
// fields (error, code, retry_after_seconds) are set — the same
// machine-readable shape every other error response carries — and
// Enqueued counts the prefix that made it in before admission cut the
// batch off.
type EdgesResponse struct {
	Enqueued          int         `json:"enqueued"`
	Rejected          []EdgeError `json:"rejected,omitempty"`
	Flushed           bool        `json:"flushed,omitempty"`
	Error             string      `json:"error,omitempty"`
	Code              string      `json:"code,omitempty"`
	RetryAfterSeconds int         `json:"retry_after_seconds,omitempty"`
}

// HealthJSON is the /healthz response body.
type HealthJSON struct {
	// Status is ok, degraded (read-only durability loss or a sticky
	// durability error), or overloaded (mailbox full).
	Status     string `json:"status"`
	ReadOnly   bool   `json:"read_only,omitempty"`
	QueueDepth int    `json:"queue_depth"`
	MailboxCap int    `json:"mailbox_cap"`
	Err        string `json:"error,omitempty"`
}

// StatsJSON is the /stats response body.
type StatsJSON struct {
	engine.Stats
	TopK int `json:"top_k,omitempty"`
	// TopKTracked is how many vertices the top-k scoreboard holds a
	// score for: those on a cycle.
	TopKTracked   int     `json:"top_k_tracked,omitempty"`
	UptimeSeconds float64 `json:"uptime_seconds"`
}

// Handler mounts the serving API over an engine with default options.
// watch may be nil, in which case /top answers 404. k is only echoed in
// /stats.
func Handler(e *engine.Engine, watch *monitor.TopK, k int) http.Handler {
	return NewHandler(e, watch, k, Options{})
}

type server struct {
	e     *engine.Engine
	watch *monitor.TopK
	k     int
	start time.Time
	opts  Options

	// Observability state (obs.go): per-route latency histograms on the
	// engine's registry, the serialized access-log writer, and the
	// request-id generator.
	routeNS map[string]*obs.Histogram
	logMu   sync.Mutex
	slowOut io.Writer
	ids     *RequestIDs
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(v)
}

func (s *server) cycle(w http.ResponseWriter, r *http.Request) {
	v, err := strconv.Atoi(r.PathValue("v"))
	if err != nil {
		WriteError(w, http.StatusBadRequest, CodeBadVertex, 0, "vertex %q is not an integer", r.PathValue("v"))
		return
	}
	// Out-of-range ids (negative included) are malformed requests, not
	// missing resources: the vertex space is fixed and known, so 400 —
	// clients retrying a 404 as "not yet there" would spin forever.
	if v < 0 || v >= s.e.NumVertices() {
		WriteError(w, http.StatusBadRequest, CodeBadVertex, 0, "vertex %d out of range [0,%d)", v, s.e.NumVertices())
		return
	}
	var l int
	var c uint64
	if raw := r.URL.Query().Get("maxlen"); raw != "" {
		maxLen, perr := strconv.Atoi(raw)
		if perr != nil || maxLen < 1 {
			WriteError(w, http.StatusBadRequest, CodeBadMaxLen, 0, "maxlen %q is not a positive integer", raw)
			return
		}
		l, c, err = s.e.CycleCountBoundedCtx(r.Context(), v, maxLen)
	} else {
		l, c, err = s.e.CycleCountCtx(r.Context(), v)
	}
	if err != nil {
		WriteError(w, http.StatusServiceUnavailable, CodeWriterTimeout, 1, "query gave up waiting for the writer: %v", err)
		return
	}
	out := CycleJSON{Vertex: v}
	if l != bfscount.NoCycle {
		out.Exists = true
		out.Length = l
		out.Count = c
	}
	writeJSON(w, http.StatusOK, out)
}

func (s *server) top(w http.ResponseWriter, r *http.Request) {
	if s.watch == nil {
		WriteError(w, http.StatusNotFound, CodeNotFound, 0, "top-k watch not enabled (start with -k)")
		return
	}
	scores := s.watch.Top()
	out := TopJSON{K: s.k, Top: make([]CycleJSON, 0, len(scores))}
	for _, sc := range scores {
		out.Top = append(out.Top, CycleJSON{
			Vertex: sc.Vertex, Exists: true, Length: sc.Length, Count: sc.Count,
		})
	}
	writeJSON(w, http.StatusOK, out)
}

func (s *server) edges(kind engine.OpKind) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		var req EdgesRequest
		// Bound the body so one hostile POST cannot buffer gigabytes into
		// the daemon; 16 MiB is ~1M edges per request, far beyond any sane
		// batch.
		if err := json.NewDecoder(http.MaxBytesReader(w, r.Body, 16<<20)).Decode(&req); err != nil {
			WriteError(w, http.StatusBadRequest, CodeBadBody, 0, "bad body: %v", err)
			return
		}
		overloadResp := func(status int, code string, retryAfter int, resp EdgesResponse) {
			resp.Code = code
			resp.RetryAfterSeconds = retryAfter
			w.Header().Set("Retry-After", strconv.Itoa(retryAfter))
			writeJSON(w, status, resp)
		}
		var resp EdgesResponse
		for _, eg := range req.Edges {
			err := s.e.EnqueueEdgeCtx(r.Context(), kind, eg[0], eg[1])
			switch {
			case err == nil:
				resp.Enqueued++
			case errors.Is(err, engine.ErrOverloaded):
				// Writer saturated under the reject policy: cut the batch
				// off and tell the client to back off. Enqueued reports the
				// prefix that made it in.
				resp.Error = err.Error()
				overloadResp(http.StatusTooManyRequests, CodeOverloaded, 1, resp)
				return
			case errors.Is(err, engine.ErrReadOnly):
				resp.Error = err.Error()
				overloadResp(http.StatusServiceUnavailable, CodeReadOnly, 5, resp)
				return
			case errors.Is(err, context.DeadlineExceeded), errors.Is(err, context.Canceled):
				// Block policy, mailbox full past the request's deadline.
				resp.Error = "writer saturated: " + err.Error()
				overloadResp(http.StatusServiceUnavailable, CodeWriterTimeout, 1, resp)
				return
			default:
				resp.Rejected = append(resp.Rejected, EdgeError{Edge: eg, Error: err.Error()})
			}
		}
		if flush, _ := strconv.ParseBool(r.URL.Query().Get("flush")); flush {
			s.e.Flush()
			resp.Flushed = true
		}
		writeJSON(w, http.StatusOK, resp)
	}
}

// ShardTableJSON is the GET /cluster/shards response: the vertex→shard
// table plus per-shard footprint stats — everything a cluster
// coordinator needs to compute a size-balanced placement and everything
// a router needs to route reads (internal/dist fetches this at boot).
type ShardTableJSON struct {
	Vertices int         `json:"vertices"`
	Seq      uint64      `json:"seq"`
	ShardOf  []int32     `json:"shard_of"` // per vertex; -1 = trivial (answers zero cycles locally)
	Shards   []ShardJSON `json:"shards"`
}

// ShardJSON is one live shard's footprint in a ShardTableJSON.
type ShardJSON struct {
	Slot       int `json:"slot"`
	Vertices   int `json:"vertices"`
	Entries    int `json:"entries"`
	LabelBytes int `json:"label_bytes"`
}

func (s *server) clusterShards(w http.ResponseWriter, r *http.Request) {
	shardOf, stats, _ := s.e.ShardTable()
	out := ShardTableJSON{
		Vertices: len(shardOf),
		Seq:      s.e.Seq(),
		ShardOf:  shardOf,
		Shards:   make([]ShardJSON, 0, len(stats)),
	}
	for _, st := range stats {
		out.Shards = append(out.Shards, ShardJSON{
			Slot:       st.Slot,
			Vertices:   st.Vertices,
			Entries:    st.Entries,
			LabelBytes: st.LabelBytes,
		})
	}
	writeJSON(w, http.StatusOK, out)
}

func (s *server) stats(w http.ResponseWriter, r *http.Request) {
	st := StatsJSON{
		Stats:         s.e.Stats(),
		TopK:          s.k,
		UptimeSeconds: time.Since(s.start).Seconds(),
	}
	if s.watch != nil {
		st.TopKTracked = s.watch.Tracked()
	}
	writeJSON(w, http.StatusOK, st)
}

func (s *server) healthz(w http.ResponseWriter, r *http.Request) {
	st := s.e.Stats()
	h := HealthJSON{
		Status:     "ok",
		ReadOnly:   st.ReadOnly,
		QueueDepth: st.QueueDepth,
		MailboxCap: st.MailboxCap,
		Err:        st.Err,
	}
	switch {
	case st.ReadOnly || st.Err != "":
		h.Status = "degraded"
	case st.QueueDepth >= st.MailboxCap:
		h.Status = "overloaded"
	}
	code := http.StatusOK
	if ready, _ := strconv.ParseBool(r.URL.Query().Get("ready")); ready && h.Status != "ok" {
		code = http.StatusServiceUnavailable
	}
	writeJSON(w, code, h)
}
