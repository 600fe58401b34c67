package obs

import (
	"sync"
	"time"
)

// Stage is one timed step of a batch's lifecycle.
type Stage struct {
	Name  string `json:"name"`
	DurNS int64  `json:"dur_ns"`
}

// BatchTrace is one entry of the batch-lifecycle trace ring: everything
// that happened to one applied batch, with per-stage durations. The
// /debug/trace endpoint serves the ring's recent entries as JSON.
type BatchTrace struct {
	// Seq is the batch's sequence number.
	Seq uint64 `json:"seq"`
	// Kind is "batch", the one kind of entry: a mailbox batch.
	Kind string `json:"kind"`
	// Start is when the writer began processing (wall clock).
	Start time.Time `json:"start"`
	// Raw is the mailbox op count before coalescing; Ops the net batch
	// size actually applied.
	Raw int `json:"raw_ops,omitempty"`
	Ops int `json:"ops,omitempty"`
	// Shards lists the shard slots the batch streamed into or rebuilt.
	Shards []int `json:"shards,omitempty"`
	// WaitNS is how long the first op of the batch sat in the mailbox
	// before the writer started on it (the enqueue stage).
	WaitNS int64 `json:"wait_ns,omitempty"`
	// Stages are the writer-side steps in order: coalesce, wal, plan,
	// apply, rebuild, hooks (ship after wal when replicating).
	Stages []Stage `json:"stages"`
	// TotalNS is the whole entry's wall-clock.
	TotalNS int64 `json:"total_ns"`
}

// Ring is a fixed-size ring buffer of batch traces, written by the
// engine's writer goroutine (one entry per batch — cold path) and read
// by /debug/trace. A nil Ring drops entries.
type Ring struct {
	mu   sync.Mutex
	buf  []BatchTrace
	next uint64 // total entries ever added
}

// NewRing returns a ring keeping the last n entries (n clamps up to 1).
func NewRing(n int) *Ring {
	if n < 1 {
		n = 1
	}
	return &Ring{buf: make([]BatchTrace, 0, n)}
}

// Add appends one trace, evicting the oldest once full.
func (r *Ring) Add(t BatchTrace) {
	if r == nil {
		return
	}
	r.mu.Lock()
	if len(r.buf) < cap(r.buf) {
		r.buf = append(r.buf, t)
	} else {
		r.buf[r.next%uint64(cap(r.buf))] = t
	}
	r.next++
	r.mu.Unlock()
}

// Snapshot returns the retained traces, oldest first.
func (r *Ring) Snapshot() []BatchTrace {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]BatchTrace, 0, len(r.buf))
	if len(r.buf) < cap(r.buf) {
		return append(out, r.buf...)
	}
	at := r.next % uint64(cap(r.buf))
	out = append(out, r.buf[at:]...)
	return append(out, r.buf[:at]...)
}

// Len reports how many traces are retained.
func (r *Ring) Len() int {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return len(r.buf)
}
