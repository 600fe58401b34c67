package main

import (
	"bufio"
	"encoding/json"
	"os"
	"sort"
	"sync"
	"time"
)

// span is one timed call into a layer's public entry point. Spans of one
// request share request_id; parent is the span of the layer above for
// the same request (0 for none).
type span struct {
	Req    int    `json:"request_id"`
	ID     int    `json:"span"`
	Parent int    `json:"parent"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

func (s span) dur() time.Duration { return time.Duration(s.End - s.Start) }

// tracer keeps spans in memory until the run ends. Request id 0 holds the
// set-up spans; ops are numbered from 1.
type tracer struct {
	mu    sync.Mutex
	t0    time.Time
	spans []span
	// at[name][req] is the index of that layer's span for the request.
	at map[string]map[int]int
}

func newTracer() *tracer {
	return &tracer{t0: time.Now(), at: map[string]map[int]int{}}
}

// add records a span and returns its id.
func (t *tracer) add(name string, req, parent int, start, end time.Time) int {
	t.mu.Lock()
	defer t.mu.Unlock()
	id := len(t.spans) + 1
	t.spans = append(t.spans, span{
		Req: req, ID: id, Parent: parent, Name: name,
		Start: start.Sub(t.t0).Nanoseconds(), End: end.Sub(t.t0).Nanoseconds(),
	})
	if t.at[name] == nil {
		t.at[name] = map[int]int{}
	}
	t.at[name][req] = id - 1
	return id
}

// since records a span that started at start and ends now.
func (t *tracer) since(name string, req int, start time.Time) int {
	return t.add(name, req, 0, start, time.Now())
}

func (t *tracer) get(name string, req int) (span, bool) {
	t.mu.Lock()
	defer t.mu.Unlock()
	i, ok := t.at[name][req]
	if !ok {
		return span{}, false
	}
	return t.spans[i], true
}

// link sets the parent of every child span whose request also has a
// parent-layer span. Layers replay on separate twins, so a parent's
// interval does not contain its child's; the link is by request id.
func (t *tracer) link(child, parent string) {
	t.mu.Lock()
	defer t.mu.Unlock()
	for req, ci := range t.at[child] {
		if pi, ok := t.at[parent][req]; ok {
			t.spans[ci].Parent = t.spans[pi].ID
		}
	}
}

// durs returns every duration of a layer, in the given unit.
func (t *tracer) durs(name string, unit time.Duration) []float64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	var out []float64
	for _, i := range t.at[name] {
		out = append(out, float64(t.spans[i].dur())/float64(unit))
	}
	return out
}

// self returns, for every request of layer name, its duration minus the
// summed durations of the given child layers' spans for the same request.
func (t *tracer) self(name string, unit time.Duration, children ...string) []float64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	var out []float64
	for req, i := range t.at[name] {
		d := t.spans[i].dur()
		for _, c := range children {
			if ci, ok := t.at[c][req]; ok {
				d -= t.spans[ci].dur()
			}
		}
		out = append(out, float64(d)/float64(unit))
	}
	return out
}

// write stores the spans as JSON lines, ordered by id.
func (t *tracer) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	spans := append([]span(nil), t.spans...)
	sort.Slice(spans, func(i, j int) bool { return spans[i].ID < spans[j].ID })
	for _, s := range spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
