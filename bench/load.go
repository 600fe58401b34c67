package main

import (
	"bytes"
	"fmt"
	"net/http"
	"strconv"
	"sync"
	"time"
)

type opKind uint8

const (
	opRead opKind = iota
	opInsert
	opDelete
)

// req is one request of a workload: a read of vertex a, or the insertion
// or deletion of edge (a,b) with flush=1 (acknowledged once applied).
type req struct {
	kind  opKind
	a, b  int
	check bool // verify this read-after-write answer against the oracle
}

// conn is one keep-alive HTTP connection to the system under test. A
// workload opens at most two, one per stream.
type conn struct {
	c    *http.Client
	base string
	buf  bytes.Buffer
}

func newConn(base string) *conn {
	tr := &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1, DisableCompression: true}
	return &conn{c: &http.Client{Transport: tr, Timeout: 30 * time.Second}, base: base}
}

func (c *conn) close() { c.c.CloseIdleConnections() }

var (
	writeOK = []byte(`"flushed":true`)
	methods = [...]string{opInsert: http.MethodPost, opDelete: http.MethodDelete}
)

// do sends one request and returns the response body, valid until the
// next call. A transport error, a non-200 status or an unflushed write is
// an error.
func (c *conn) do(r req) ([]byte, error) {
	var hr *http.Request
	var err error
	if r.kind == opRead {
		hr, err = http.NewRequest(http.MethodGet, c.base+"/cycle/"+strconv.Itoa(r.a), nil)
	} else {
		body := fmt.Sprintf(`{"edges":[[%d,%d]]}`, r.a, r.b)
		hr, err = http.NewRequest(methods[r.kind], c.base+"/edges?flush=1", bytes.NewBufferString(body))
	}
	if err != nil {
		return nil, err
	}
	resp, err := c.c.Do(hr)
	if err != nil {
		return nil, err
	}
	c.buf.Reset()
	_, err = c.buf.ReadFrom(resp.Body)
	resp.Body.Close()
	switch {
	case err != nil:
		return nil, err
	case resp.StatusCode != http.StatusOK:
		return nil, fmt.Errorf("%s: status %d: %s", hr.URL.Path, resp.StatusCode, bytes.TrimSpace(c.buf.Bytes()))
	case r.kind != opRead && !bytes.Contains(c.buf.Bytes(), writeOK):
		return nil, fmt.Errorf("%s: write not flushed: %s", hr.URL.Path, bytes.TrimSpace(c.buf.Bytes()))
	}
	return c.buf.Bytes(), nil
}

// stream is one client of a workload: it issues units of work (a unit is
// one request, or a transaction of several sent back to back) on its own
// connection, open loop at rate units per second, or closed loop with
// rate 0. Open-loop rates stay at or below 1000 per second: on a small
// VM the Go timer cannot sleep less than about a millisecond, and a
// faster pacer would release units in bursts.
type stream struct {
	conn *conn
	rate float64
	unit func(i int) []req
}

// rawCheck is a read-after-write answer to verify once the window is
// over: the answer for vertex v given after the first `after` acked
// writes of the stream.
type rawCheck struct {
	after int
	v     int
	body  []byte
}

// streamOut is what one stream measured.
type streamOut struct {
	reads             []time.Duration
	writes            []time.Duration // one per unit that wrote
	writeOps          int             // acknowledged write requests
	attempted, failed int
	lags              []time.Duration // how late the client woke for each unit it was idle for
	log               []req           // acked writes, in order
	checks            []rawCheck
	elapsed           time.Duration // from the window's start to the last answer
	errs              []string      // the first few failures, for the report
}

func (o *streamOut) fail(err error) {
	o.failed++
	if len(o.errs) < 5 {
		o.errs = append(o.errs, err.Error())
	}
}

// send issues one unit. A read's latency counts from its own send, or
// from released when it opens the unit. A unit's writes form one
// transaction, timed from released to the last write's acknowledgement.
func (s *stream) send(o *streamOut, units []req, released time.Time) {
	var wrote bool
	for k, r := range units {
		t0 := released
		if k > 0 {
			t0 = time.Now()
		}
		o.attempted++
		body, err := s.conn.do(r)
		if err != nil {
			o.fail(err)
			continue
		}
		if r.kind == opRead {
			o.reads = append(o.reads, time.Since(t0))
			if r.check {
				o.checks = append(o.checks, rawCheck{after: len(o.log), v: r.a, body: append([]byte(nil), body...)})
			}
			continue
		}
		o.writeOps++
		o.log = append(o.log, r)
		wrote = true
	}
	if wrote {
		o.writes = append(o.writes, time.Since(released))
	}
}

// run sends unit i at start + i/rate until end and returns once its last
// unit has been answered. A unit counts as released when it was due, or,
// if the client was idle and slept until then, when it woke: a stall in
// the system delays every unit queued behind it, while the timer's own
// lateness is reported apart, as lags.
func (s *stream) run(start, end time.Time) *streamOut {
	o := &streamOut{}
	if s.rate <= 0 {
		time.Sleep(time.Until(start))
		for i := 0; time.Now().Before(end); i++ {
			s.send(o, s.unit(i), time.Now())
		}
		o.elapsed = time.Since(start)
		return o
	}
	for i := 0; ; i++ {
		due := start.Add(time.Duration(float64(i) / s.rate * float64(time.Second)))
		if !due.Before(end) {
			break
		}
		released := due
		if wait := time.Until(due); wait > 0 {
			time.Sleep(wait)
			released = time.Now()
			o.lags = append(o.lags, released.Sub(due))
		}
		s.send(o, s.unit(i), released)
	}
	o.elapsed = time.Since(start)
	return o
}

// runWindow runs the streams concurrently for d and returns their results
// in order.
func runWindow(streams []*stream, d time.Duration) []*streamOut {
	start := time.Now().Add(5 * time.Millisecond)
	end := start.Add(d)
	outs := make([]*streamOut, len(streams))
	var wg sync.WaitGroup
	for i, s := range streams {
		wg.Add(1)
		go func() {
			defer wg.Done()
			outs[i] = s.run(start, end)
		}()
	}
	wg.Wait()
	return outs
}
