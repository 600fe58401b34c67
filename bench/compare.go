package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"slices"
	"sort"
	"strings"
)

// benchConfig is the part of BENCHMARK.json -compare reads.
type benchConfig struct {
	EndToEnd []metricDef `json:"end_to_end"`
	PerLayer []metricDef `json:"per_layer"`
}

type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

func readConfig(path string) (*benchConfig, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var c benchConfig
	if err := json.Unmarshal(b, &c); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &c, nil
}

// readRecords loads a -json file. Served runs whose load generator fell
// behind measured the harness, not the system: they are dropped and
// counted. Incorrect runs are kept; runCompare judges them.
func readRecords(path string) ([]*result, int, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, 0, err
	}
	defer f.Close()
	var out []*result
	dropped := 0
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 1<<16), 1<<24)
	for sc.Scan() {
		if strings.TrimSpace(sc.Text()) == "" {
			continue
		}
		var r result
		if err := json.Unmarshal(sc.Bytes(), &r); err != nil {
			return nil, 0, fmt.Errorf("%s: %w", path, err)
		}
		if !r.Trace && !r.Harness.Valid {
			dropped++
			continue
		}
		out = append(out, &r)
	}
	return out, dropped, sc.Err()
}

// sides holds one (metric, workload)'s values from each file, and its
// pairs: a parent and a change run of the same seed, matched in order.
type sides struct {
	parent, change []float64
	pairs          [][2]float64 // {parent, change}
}

func collect(parent, change []*result, name string) sides {
	var s sides
	bySeed := map[int64][]float64{}
	get := func(r *result) (metricValue, bool) {
		if m, ok := r.Metrics[name]; ok {
			return m, true
		}
		m, ok := r.Diag[name]
		return m, ok
	}
	for _, r := range parent {
		if m, ok := get(r); ok {
			s.parent = append(s.parent, m.Value)
			bySeed[r.Seed] = append(bySeed[r.Seed], m.Value)
		}
	}
	for _, r := range change {
		m, ok := get(r)
		if !ok {
			continue
		}
		s.change = append(s.change, m.Value)
		if q := bySeed[r.Seed]; len(q) > 0 {
			s.pairs = append(s.pairs, [2]float64{q[0], m.Value})
			bySeed[r.Seed] = q[1:]
		}
	}
	return s
}

// verdict applies the comparison rules to one (metric, workload) pair and
// returns it with the change's pair wins.
//
//   - A spread (parent IQR over parent median) wider than the bound makes
//     the pair unresolved, unless every change run beats every parent
//     run (improved) or loses to every one (regressed).
//   - A change median worse than the parent's by more than the bound is
//     a regression.
//   - A gain needs the change to win at least 9 in 10 pairs (ties count
//     for neither) and the medians to differ by more than the parent's
//     IQR.
//
// Metrics without a bound (per-layer) are never regressions; counts that
// must repeat exactly are compared pair by pair for identity instead.
func verdict(def metricDef, s sides, bounded bool) (string, int) {
	better := func(x, y float64) bool { // x better than y
		if def.Better == "lower" {
			return x < y
		}
		return x > y
	}
	wins, same := 0, true
	for _, p := range s.pairs {
		if better(p[1], p[0]) {
			wins++
		}
		same = same && p[0] == p[1]
	}
	if def.Unit == "count" && !bounded {
		if same {
			return "identical", wins
		}
		return "changed", wins
	}
	pm, cm := median(append([]float64(nil), s.parent...)), median(append([]float64(nil), s.change...))
	q1, q3 := quartiles(s.parent)
	iqr := q3 - q1
	worse := (cm - pm) / math.Abs(pm)
	if def.Better != "lower" {
		worse = -worse
	}
	allBetter, allWorse := true, true
	for _, c := range s.change {
		for _, p := range s.parent {
			allBetter = allBetter && better(c, p)
			allWorse = allWorse && better(p, c)
		}
	}
	n := float64(len(s.pairs))
	apart := n > 0 && math.Abs(cm-pm) > iqr
	switch {
	case bounded && pm != 0 && iqr/math.Abs(pm) > def.Bound:
		switch {
		case allBetter:
			return "improved", wins
		case allWorse:
			return "regressed", wins
		}
		return "unresolved", wins
	case bounded && worse > def.Bound:
		return "regressed", wins
	case apart && float64(wins) >= 0.9*n && better(cm, pm):
		return "improved", wins
	case apart && !bounded && float64(len(s.pairs)-wins) >= 0.9*n && better(pm, cm):
		return "worse", wins
	}
	return "unchanged", wins
}

// correctness sums a side's runs of one workload.
type correctness struct{ runs, incorrect, failed, attempted int }

func tally(rs []*result) (c correctness, ok []*result) {
	for _, r := range rs {
		c.runs++
		c.failed += r.Failed
		c.attempted += r.Attempted
		if !r.Correct {
			c.incorrect++
			continue
		}
		ok = append(ok, r)
	}
	return c, ok
}

func (c correctness) String() string {
	return fmt.Sprintf("%d/%d runs incorrect, %d/%d ops failed", c.incorrect, c.runs, c.failed, c.attempted)
}

// runCompare prints one row per (metric, workload) and exits non-zero if
// any change run was incorrect, any end-to-end metric regressed or any
// exact count changed. A run with a failed op is incorrect, so a rise in
// failed/attempted over the parent always fails the comparison. Metrics
// are compared over the correct runs of each side.
func runCompare(configPath, parentPath, changePath string) int {
	cfg, err := readConfig(configPath)
	if err != nil {
		fmt.Fprintln(os.Stderr, "cyclebench:", err)
		return 2
	}
	parent, pd, err := readRecords(parentPath)
	if err != nil {
		fmt.Fprintln(os.Stderr, "cyclebench:", err)
		return 2
	}
	change, cd, err := readRecords(changePath)
	if err != nil {
		fmt.Fprintln(os.Stderr, "cyclebench:", err)
		return 2
	}
	if pd+cd > 0 {
		fmt.Printf("dropped %d parent and %d change runs: the load generator fell behind\n", pd, cd)
	}
	type key struct {
		wl    string
		trace bool
	}
	group := func(rs []*result) map[key][]*result {
		m := map[key][]*result{}
		for _, r := range rs {
			k := key{r.Workload, r.Trace}
			m[k] = append(m[k], r)
		}
		return m
	}
	pg, cg := group(parent), group(change)
	var keys []key
	for k := range pg {
		if _, ok := cg[k]; ok {
			keys = append(keys, k)
		}
	}
	sort.Slice(keys, func(i, j int) bool {
		if keys[i].trace != keys[j].trace {
			return !keys[i].trace
		}
		return keys[i].wl < keys[j].wl
	})
	code := 0
	fmt.Printf("%-11s %-34s %12s %12s %8s %6s  %s\n", "workload", "metric", "parent_p50", "change_p50", "spread", "wins", "verdict")
	for _, k := range keys {
		pc, parentOK := tally(pg[k])
		cc, changeOK := tally(cg[k])
		v := "correct"
		if cc.incorrect > 0 {
			v, code = "INCORRECT", 1
		}
		fmt.Printf("%-11s %-34s parent: %s; change: %s  %s\n", k.wl, "correctness", pc, cc, v)
		// Only the end-to-end metrics carry a bound; a record holds either
		// those and the diagnostics (served) or the per-layer metrics.
		defs := slices.Concat(cfg.EndToEnd, cfg.PerLayer, diagnostics)
		for i, def := range defs {
			s := collect(parentOK, changeOK, def.Name)
			if len(s.parent) == 0 || len(s.change) == 0 {
				continue
			}
			v, wins := verdict(def, s, i < len(cfg.EndToEnd))
			if v == "regressed" || v == "changed" {
				code = 1
			}
			pm, cm := median(append([]float64(nil), s.parent...)), median(append([]float64(nil), s.change...))
			q1, q3 := quartiles(s.parent)
			spread := 0.0
			if pm != 0 {
				spread = (q3 - q1) / math.Abs(pm)
			}
			fmt.Printf("%-11s %-34s %12.4g %12.4g %7.1f%% %3d/%-2d  %s\n",
				k.wl, def.Name, pm, cm, 100*spread, wins, len(s.pairs), v)
		}
	}
	return code
}
