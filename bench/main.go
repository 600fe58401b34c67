// Command cyclebench is the end-to-end benchmark of the cycle-counting
// service. It generates a fixed 10^5-vertex ledger graph, boots the real
// cscd and cscrouter binaries as child processes (WAL on), and drives one
// of four workloads, seeded by -seed, over loopback HTTP from this single
// process on at most two connections, checking answers against the BFS
// oracle. With -trace 1 it instead replays the workload's op sequence in
// process against each layer's public entry point and reports per-layer
// costs. -compare judges two sets of result records against the bounds in
// BENCHMARK.json. See README.md for the workloads and metrics.
//
// Run it through run.sh, which builds the binaries first:
//
//	bash bench/run.sh --workload repair --seed 1 --seconds 10 --trace 0
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"slices"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"
)

var workloads = []string{"lookup", "txn-stream", "repair", "routed"}

// runner holds what every workload of one invocation shares.
type runner struct {
	sc        scaleSpec
	seed      int64
	window    time.Duration
	bin       string // directory holding cscd and cscrouter
	dir       string // this invocation's scratch directory
	logs      string // daemon logs
	spans     string // where the traced run writes its spans ("" = nowhere)
	l         *ledger
	graphFile string
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// harness describes the load generator itself; a run whose sends left
// late is not a valid measurement of the system.
type harness struct {
	LateFrac float64 `json:"late_frac"`
	LagP99MS float64 `json:"lag_p99_ms"`
	Valid    bool    `json:"valid"`
}

// result is one workload's record, as appended to the -json file.
type result struct {
	Workload   string                 `json:"workload"`
	Seed       int64                  `json:"seed"`
	Scale      string                 `json:"scale"`
	Seconds    float64                `json:"seconds"`
	Trace      bool                   `json:"trace"`
	Correct    bool                   `json:"correct"`
	Attempted  int                    `json:"attempted"`
	Failed     int                    `json:"failed"`
	Metrics    map[string]metricValue `json:"metrics"`
	Diag       map[string]metricValue `json:"diagnostics,omitempty"`
	Harness    harness                `json:"harness"`
	Errors     []string               `json:"errors,omitempty"`
	GoMaxProcs int                    `json:"gomaxprocs"`
	CPU        string                 `json:"cpu"`
	Time       string                 `json:"time"`

	watch bool
}

func newResult(r *runner, wl string, trace bool) *result {
	return &result{
		Workload: wl, Seed: r.seed, Scale: r.sc.name, Seconds: r.window.Seconds(), Trace: trace,
		Metrics: map[string]metricValue{}, GoMaxProcs: runtime.GOMAXPROCS(0), CPU: cpuModel(),
		Time: time.Now().UTC().Format(time.RFC3339), watch: topKFor(wl) > 0,
	}
}

func (res *result) set(name string, v float64, unit string) {
	res.Metrics[name] = metricValue{v, unit}
}

// diag records a number that is reported but not one of the benchmark's
// metrics.
func (res *result) diag(name string, v float64, unit string) {
	if res.Diag == nil {
		res.Diag = map[string]metricValue{}
	}
	res.Diag[name] = metricValue{v, unit}
}

func (res *result) attempt(o *streamOut) {
	res.Attempted += o.attempted
	res.Failed += o.failed
	res.Errors = append(res.Errors, o.errs...)
}

// fail counts oracle mismatches and failed checks.
func (res *result) fail(errs ...error) {
	res.Failed += len(errs)
	for _, err := range errs {
		if len(res.Errors) < 10 {
			res.Errors = append(res.Errors, err.Error())
		}
	}
}

// lateAfter is how late a send may leave before it makes the run
// invalid, and lateShare the share of sends allowed to.
const (
	lateAfter = 5 * time.Millisecond
	lateShare = 0.01
)

func (res *result) lag(lags []time.Duration) {
	late := 0
	for _, l := range lags {
		if l > lateAfter {
			late++
		}
	}
	res.Harness = harness{
		LateFrac: frac(late, len(lags)),
		LagP99MS: quantile(durs(lags, time.Millisecond), 0.99),
	}
	res.Harness.Valid = res.Harness.LateFrac <= lateShare
}

// summary is the last line of standard output.
type summary struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

func cpuModel() string {
	b, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return runtime.GOARCH
	}
	for _, line := range strings.Split(string(b), "\n") {
		if rest, ok := strings.CutPrefix(line, "model name"); ok {
			return strings.TrimSpace(strings.TrimPrefix(strings.TrimSpace(rest), ":"))
		}
	}
	return runtime.GOARCH
}

func main() {
	os.Exit(run(os.Args[1:]))
}

func run(args []string) int {
	fs := flag.NewFlagSet("cyclebench", flag.ContinueOnError)
	var (
		workload = fs.String("workload", "all", "workload to run: "+strings.Join(workloads, ", ")+", or all")
		seed     = fs.Int64("seed", 1, "seed of every op sequence the workloads send (the graph is fixed)")
		seconds  = fs.Float64("seconds", 0, "measured window per workload (default: 20, or 2 at -scale smoke)")
		trace    = fs.Int("trace", 0, "1: report per-layer metrics from the traced replay instead of the served run")
		spans    = fs.String("spans", "", "with -trace 1: write the spans as JSON lines to this file (default: trace.jsonl in -work)")
		scale    = fs.String("scale", "medium", "ledger size: medium (10^5 vertices) or smoke (2k, for tests)")
		jsonOut  = fs.String("json", "", "append one JSON record per workload to this file")
		compare  = fs.Bool("compare", false, "compare two -json files: cyclebench -compare PARENT.json CHANGE.json")
		config   = fs.String("config", "BENCHMARK.json", "benchmark definition holding the metric bounds (for -compare)")
		bin      = fs.String("bin", ".bench_build/bin", "directory holding the cscd and cscrouter binaries")
		work     = fs.String("work", ".bench_build/run", "scratch directory for stores, logs and spans")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *compare {
		if fs.NArg() != 2 {
			fmt.Fprintln(os.Stderr, "cyclebench: -compare needs PARENT.json CHANGE.json")
			return 2
		}
		return runCompare(*config, fs.Arg(0), fs.Arg(1))
	}
	sc, ok := scales[*scale]
	if !ok {
		fmt.Fprintf(os.Stderr, "cyclebench: unknown scale %q\n", *scale)
		return 2
	}
	wls := workloads
	if *workload != "all" {
		wls = []string{*workload}
		if !slices.Contains(workloads, *workload) {
			fmt.Fprintf(os.Stderr, "cyclebench: unknown workload %q (want %s)\n", *workload, strings.Join(workloads, ", "))
			return 2
		}
	}
	if *trace != 0 && *trace != 1 {
		fmt.Fprintln(os.Stderr, "cyclebench: -trace takes 0 or 1")
		return 2
	}
	window := time.Duration(*seconds * float64(time.Second))
	if window <= 0 {
		window = 20 * time.Second
		if sc.name == "smoke" {
			window = 2 * time.Second
		}
	}

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	go sigCleanup(sig)
	defer procs.killAll()

	r := &runner{
		sc: sc, seed: *seed, window: window, bin: *bin,
	}
	for _, b := range []string{"cscd", "cscrouter"} {
		if _, err := os.Stat(filepath.Join(r.bin, b)); err != nil {
			fmt.Fprintf(os.Stderr, "cyclebench: %v (build with run.sh)\n", err)
			return 1
		}
	}
	r.dir = filepath.Join(*work, fmt.Sprintf("%s-seed%d-%d", sc.name, *seed, os.Getpid()))
	r.logs = filepath.Join(r.dir, "logs")
	if err := os.MkdirAll(r.logs, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "cyclebench:", err)
		return 1
	}
	if *trace == 1 {
		r.spans = *spans
		if r.spans == "" {
			r.spans = filepath.Join(*work, "trace.jsonl")
		}
	}
	code, err := r.all(wls, *trace == 1, *jsonOut)
	if err != nil {
		fmt.Fprintf(os.Stderr, "cyclebench: %v (daemon logs kept in %s)\n", err, r.logs)
		return 1
	}
	if code == 0 {
		_ = os.RemoveAll(r.dir)
	}
	return code
}

// all runs the workloads and prints one summary line per workload, the
// last one last.
func (r *runner) all(wls []string, trace bool, jsonOut string) (int, error) {
	t0 := time.Now()
	r.l = buildLedger(r.sc, r.seed)
	var err error
	if r.graphFile, err = r.l.writeGraph(r.dir); err != nil {
		return 1, err
	}
	fmt.Fprintf(os.Stderr, "cyclebench: ledger seed %d: %d vertices, %d edges, %d repair edges (%.2fs)\n",
		r.seed, r.l.g.NumVertices(), r.l.g.NumEdges(), len(r.l.repairEdges), time.Since(t0).Seconds())
	ctx := context.Background()
	code := 0
	spans := r.spans
	for _, wl := range wls {
		var res *result
		if trace {
			if len(wls) > 1 { // one span file per workload: request ids restart at 1
				ext := filepath.Ext(spans)
				r.spans = strings.TrimSuffix(spans, ext) + "-" + wl + ext
			}
			res, err = r.traced(ctx, wl)
		} else {
			res, err = r.served(ctx, wl)
		}
		if err != nil {
			return 1, fmt.Errorf("%s: %w", wl, err)
		}
		res.Correct = res.Failed == 0
		if !res.Correct {
			code = 1
		}
		report(res)
		if jsonOut != "" {
			if err := appendJSON(jsonOut, res); err != nil {
				return 1, err
			}
		}
	}
	return code, nil
}

// report prints the metrics for people on standard error and the summary
// line on standard output.
func report(res *result) {
	fmt.Fprintf(os.Stderr, "== %s (seed %d, %s, %.0fs window, trace=%v): correct=%v attempted=%d failed=%d\n",
		res.Workload, res.Seed, res.Scale, res.Seconds, res.Trace, res.Correct, res.Attempted, res.Failed)
	names := make([]string, 0, len(res.Metrics))
	for name := range res.Metrics {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		m := res.Metrics[name]
		fmt.Fprintf(os.Stderr, "   %-34s %14s %s\n", name, strconv.FormatFloat(m.Value, 'g', 6, 64), m.Unit)
	}
	if !res.Harness.Valid {
		fmt.Fprintf(os.Stderr, "   harness: %.1f%% of sends left over %v late: not a valid measurement\n",
			100*res.Harness.LateFrac, lateAfter)
	}
	for _, e := range res.Errors {
		fmt.Fprintln(os.Stderr, "   error:", e)
	}
	line, _ := json.Marshal(summary{res.Correct, res.Attempted, res.Failed, res.Metrics})
	fmt.Println(string(line))
}

func appendJSON(path string, res *result) error {
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return err
	}
	line, err := json.Marshal(res)
	if err == nil {
		_, err = f.Write(append(line, '\n'))
	}
	return errors.Join(err, f.Close())
}
