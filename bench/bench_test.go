package main

import (
	"bufio"
	"context"
	"encoding/json"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

// TestSmoke runs all four workloads and the traced run on the 2k-vertex
// ledger with 2 s windows: every metric BENCHMARK.json names must come
// out with its unit, every oracle check must pass, spans must nest by
// request id, and no layer may take longer than the layer above it.
func TestSmoke(t *testing.T) {
	if testing.Short() || raceEnabled {
		t.Skip("boots real daemons for ~20s; skipped under -short and -race")
	}
	dir := t.TempDir()
	for _, b := range []string{"cscd", "cscrouter"} {
		out, err := exec.Command("go", "build", "-o", filepath.Join(dir, b), "repro/cmd/"+b).CombinedOutput()
		if err != nil {
			t.Fatalf("build %s: %v\n%s", b, err, out)
		}
	}
	cfg, err := readConfig("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	r := &runner{
		sc: scales["smoke"], seed: 1, window: 2 * time.Second,
		bin: dir, dir: filepath.Join(dir, "run"), logs: filepath.Join(dir, "run", "logs"),
	}
	if err := os.MkdirAll(r.logs, 0o755); err != nil {
		t.Fatal(err)
	}
	r.l = buildLedger(r.sc, r.seed)
	if r.graphFile, err = r.l.writeGraph(r.dir); err != nil {
		t.Fatal(err)
	}
	defer procs.killAll()
	ctx := context.Background()

	for _, wl := range workloads {
		res, err := r.served(ctx, wl)
		if err != nil {
			t.Fatalf("%s: %v", wl, err)
		}
		if res.Failed != 0 || res.Attempted == 0 {
			t.Errorf("%s: %d of %d failed: %v", wl, res.Failed, res.Attempted, res.Errors)
		}
		checkMetrics(t, wl, cfg.EndToEnd, res)
	}
	for _, wl := range workloads {
		r.spans = filepath.Join(dir, wl+".jsonl")
		res, err := r.traced(ctx, wl)
		if err != nil {
			t.Fatalf("%s traced: %v", wl, err)
		}
		if res.Failed != 0 {
			t.Errorf("%s traced: %d failed: %v", wl, res.Failed, res.Errors)
		}
		checkMetrics(t, wl, cfg.PerLayer, res)
		checkSpans(t, wl, r.spans)
	}
}

// checkMetrics asserts that res carries exactly the defined metrics, each
// with its unit, and that no end-to-end value is zero.
func checkMetrics(t *testing.T, wl string, defs []metricDef, res *result) {
	t.Helper()
	if len(res.Metrics) != len(defs) {
		t.Errorf("%s: %d metrics, BENCHMARK.json defines %d", wl, len(res.Metrics), len(defs))
	}
	for _, d := range defs {
		m, ok := res.Metrics[d.Name]
		switch {
		case !ok:
			t.Errorf("%s: metric %s missing", wl, d.Name)
		case m.Unit != d.Unit:
			t.Errorf("%s: metric %s in %q, want %q", wl, d.Name, m.Unit, d.Unit)
		case d.Bound > 0 && m.Value <= 0:
			t.Errorf("%s: end-to-end metric %s = %v", wl, d.Name, m.Value)
		}
	}
}

// checkSpans reads a span file and checks that every parent is a span of
// the same request, that a child overlapping its parent in time (the two
// ran on one twin) lies inside it, and that, per (child, parent) layer
// pair, the child's median duration is at most the parent's plus 10%,
// or plus a jitter floor if that is larger. On the write path the floor
// is 0.5ms: at smoke scale a write span is a fraction of a millisecond, a
// median rests on a few dozen writes, and two twins' fsyncs differ by
// hundreds of µs. Read spans cost microseconds, so their floor is 5µs.
func checkSpans(t *testing.T, wl, path string) {
	t.Helper()
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	byID := map[int]span{}
	var all []span
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		var s span
		if err := json.Unmarshal(sc.Bytes(), &s); err != nil {
			t.Fatalf("%s: bad span line %q: %v", wl, sc.Text(), err)
		}
		byID[s.ID] = s
		all = append(all, s)
	}
	if len(all) == 0 {
		t.Fatalf("%s: no spans", wl)
	}
	type pair struct{ child, parent string }
	durs := map[pair][2][]float64{}
	for _, s := range all {
		if s.End < s.Start {
			t.Errorf("%s: span %d ends before it starts", wl, s.ID)
		}
		if s.Parent == 0 {
			continue
		}
		p, ok := byID[s.Parent]
		if !ok || p.Req != s.Req {
			t.Errorf("%s: span %d (%s, request %d) has parent %d outside its request", wl, s.ID, s.Name, s.Req, s.Parent)
			continue
		}
		if s.Start < p.End && p.Start < s.End && (s.Start < p.Start || s.End > p.End) {
			t.Errorf("%s: span %d (%s) overlaps its parent %d (%s) without nesting in it", wl, s.ID, s.Name, p.ID, p.Name)
		}
		k := pair{s.Name, p.Name}
		d := durs[k]
		d[0] = append(d[0], float64(s.dur()))
		d[1] = append(d[1], float64(p.dur()))
		durs[k] = d
	}
	if len(durs) == 0 {
		t.Errorf("%s: no nested spans", wl)
	}
	for k, d := range durs {
		floor := 500 * time.Microsecond
		if strings.HasSuffix(k.parent, ".read") {
			floor = 5 * time.Microsecond
		}
		if c, p := median(d[0]), median(d[1]); c > p+max(0.1*p, float64(floor)) {
			t.Errorf("%s: %s (median %v) takes longer than its parent %s (median %v)",
				wl, k.child, time.Duration(c), k.parent, time.Duration(p))
		}
	}
}
