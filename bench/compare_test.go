package main

import (
	"os"
	"path/filepath"
	"testing"
)

// TestCompareFailsOnIncorrectChange checks that one incorrect change run
// fails the comparison even when the change's metrics read better.
func TestCompareFailsOnIncorrectChange(t *testing.T) {
	dir := t.TempDir()
	cfg := filepath.Join(dir, "BENCHMARK.json")
	if err := os.WriteFile(cfg, []byte(`{"end_to_end":[{"name":"ops_per_s","unit":"1/s","better":"higher","bound":0.1}]}`), 0o644); err != nil {
		t.Fatal(err)
	}
	write := func(name string, incorrectSeed int64, ops float64) string {
		path := filepath.Join(dir, name)
		for seed := int64(1); seed <= 10; seed++ {
			r := &result{
				Workload: "lookup", Seed: seed, Correct: true, Attempted: 100, Harness: harness{Valid: true},
				Metrics: map[string]metricValue{"ops_per_s": {ops + float64(seed), "1/s"}},
			}
			if seed == incorrectSeed {
				r.Correct, r.Failed = false, 1
			}
			if err := appendJSON(path, r); err != nil {
				t.Fatal(err)
			}
		}
		return path
	}
	parent := write("parent.json", 0, 100)
	if code := runCompare(cfg, parent, write("same.json", 0, 100)); code != 0 {
		t.Errorf("identical correct runs: exit %d, want 0", code)
	}
	if code := runCompare(cfg, parent, write("faster.json", 0, 150)); code != 0 {
		t.Errorf("faster correct runs: exit %d, want 0", code)
	}
	if code := runCompare(cfg, parent, write("broken.json", 3, 150)); code != 1 {
		t.Errorf("faster runs, one incorrect: exit %d, want 1", code)
	}
}
