package engine

import (
	"bytes"
	"fmt"
	"math"
	"strconv"
	"strings"
	"testing"

	"repro/internal/csc"
	"repro/internal/graph"
	"repro/internal/obs"
)

// TestMetricsExposition: the /metrics families are served and agree with
// Stats — the scrape reads the same counter words, so the values must
// match exactly once the engine is quiescent.
func TestMetricsExposition(t *testing.T) {
	reg := obs.New()
	x, _ := csc.BuildSharded(twoSixRings(t), csc.Options{})
	e := New(x, Options{FlushInterval: -1, Metrics: reg})
	defer e.Close()

	if err := e.Delete(0, 1); err != nil {
		t.Fatal(err)
	}
	if err := e.Insert(0, 1); err != nil {
		t.Fatal(err)
	}
	e.Flush()
	for v := 0; v < 5; v++ {
		e.CycleCount(v)
		e.CycleCount(v) // second read is a cache hit
	}

	var buf bytes.Buffer
	if err := reg.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	st := e.Stats()
	for _, want := range []string{
		fmt.Sprintf("cscd_queries_total %d", st.Queries),
		fmt.Sprintf("cscd_cache_hits_total %d", st.CacheHits),
		fmt.Sprintf("cscd_ops_applied_total %d", st.OpsApplied),
		fmt.Sprintf("cscd_batches_total %d", st.Batches),
		fmt.Sprintf("cscd_seq %d", st.Seq),
		"cscd_query_join_seconds_count",
		"cscd_batch_stage_seconds_bucket{stage=\"plan\"",
		`cscd_shard_entries{shard="0"}`,
		`cscd_shard_rebuilds{shard="`,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q", want)
		}
	}
	if st.Queries != 10 || st.CacheHits < 5 {
		t.Fatalf("unexpected query stats: %+v", st)
	}
	// The miss-path join histogram saw exactly the cold reads.
	if got := e.joinNS.Snapshot().Count; got != st.Queries-st.CacheHits {
		t.Fatalf("join histogram count %d != cold reads %d", got, st.Queries-st.CacheHits)
	}
}

// TestBatchLifecycleTrace: an applied batch leaves one complete trace
// entry — all six stages in order, the committed sequence number, and
// the shard slots it touched.
func TestBatchLifecycleTrace(t *testing.T) {
	reg := obs.New()
	x, _ := csc.BuildSharded(twoSixRings(t), csc.Options{})
	e := New(x, Options{FlushInterval: -1, Metrics: reg})
	defer e.Close()

	// A chord inside ring A: an intra-shard insert that closes new cycles,
	// so the dirty set stays inside a live shard.
	if err := e.Insert(2, 0); err != nil {
		t.Fatal(err)
	}
	e.Flush()

	traces := e.Traces()
	if len(traces) == 0 {
		t.Fatal("no traces recorded")
	}
	tr := traces[len(traces)-1]
	if tr.Kind != "batch" || tr.Seq != e.Seq() || tr.Ops != 1 || tr.Raw != 1 {
		t.Fatalf("unexpected trace: %+v", tr)
	}
	wantStages := []string{"coalesce", "wal", "plan", "apply", "rebuild", "hooks"}
	if len(tr.Stages) != len(wantStages) {
		t.Fatalf("stages %v", tr.Stages)
	}
	for i, s := range tr.Stages {
		if s.Name != wantStages[i] {
			t.Fatalf("stage %d = %q, want %q", i, s.Name, wantStages[i])
		}
	}
	if tr.TotalNS <= 0 || tr.WaitNS < 0 {
		t.Fatalf("degenerate timings: %+v", tr)
	}
	// Deleting a ring edge splits the shard: the rebuilt slots are listed.
	if len(tr.Shards) == 0 {
		t.Fatalf("no shards recorded: %+v", tr)
	}
}

// BenchmarkObsOverhead measures the cache-hit read path with and without
// metrics enabled. A hit executes no instrumentation at all — no clock
// reads, no histogram writes — so the two arms must sit within noise of
// each other; only the per-query striped counter (present in both) runs.
func BenchmarkObsOverhead(b *testing.B) {
	ring := func() *graph.Digraph {
		g := graph.New(64)
		for k := 0; k < 64; k++ {
			if err := g.AddEdge(k, (k+1)%64); err != nil {
				b.Fatal(err)
			}
		}
		return g
	}
	for _, arm := range []struct {
		name string
		reg  func() *obs.Registry
	}{
		{"noop", func() *obs.Registry { return nil }},
		{"instrumented", obs.New},
	} {
		b.Run(arm.name, func(b *testing.B) {
			x, _ := csc.BuildSharded(ring(), csc.Options{})
			e := New(x, Options{FlushInterval: -1, Metrics: arm.reg()})
			defer e.Close()
			for v := 0; v < 64; v++ {
				e.CycleCount(v) // warm the cache: the benchmark loop is all hits
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				e.CycleCount(i & 63)
			}
		})
	}
}

// cscd_label_bytes_per_entry is the label store's bytes per entry it
// holds. On an mmap'd v4 boot every shard serves its file arena, all four
// lists of every couple; writing one shard decodes its arena into plain
// 8-byte entries, so the ratio rises with the resident bytes (a ratio
// over the unwritten arenas' bytes alone fell from 6.32 to 2.37 B/entry
// here while the store grew).
func TestLabelBytesPerEntryGauge(t *testing.T) {
	loaded, err := csc.ReadFile("../csc/testdata/golden_v4.csc", true)
	if err != nil {
		t.Fatal(err)
	}
	x := csc.AsSharded(loaded)
	reg := obs.New()
	e := New(x, Options{FlushInterval: -1, Metrics: reg})
	defer e.Close()
	gauge := func(name string) float64 {
		t.Helper()
		var buf bytes.Buffer
		if err := reg.WritePrometheus(&buf); err != nil {
			t.Fatal(err)
		}
		for _, line := range strings.Split(buf.String(), "\n") {
			if v, ok := strings.CutPrefix(line, name+" "); ok {
				f, err := strconv.ParseFloat(v, 64)
				if err != nil {
					t.Fatal(err)
				}
				return f
			}
		}
		t.Fatalf("no %s in the scrape", name)
		return 0
	}
	check := func(stage string) float64 {
		t.Helper()
		resident, stored := x.ResidentBytes(), x.StoredEntries()
		got := gauge("cscd_label_bytes_per_entry")
		if want := float64(resident) / float64(stored); stored == 0 || math.Abs(got-want) > 1e-9 {
			t.Fatalf("%s: cscd_label_bytes_per_entry %v, want %d resident bytes / %d stored entries", stage, got, resident, stored)
		}
		if r := gauge("cscd_label_resident_bytes"); r != float64(resident) {
			t.Fatalf("%s: cscd_label_resident_bytes %v, want %d", stage, r, resident)
		}
		return got
	}
	boot, resident := check("boot"), x.ResidentBytes()
	if x.CompressedBytes() != resident || x.StoredEntries() != x.EntryCount() {
		t.Fatalf("boot: %d compressed of %d resident bytes, %d stored of %d entries; want every shard a file arena", x.CompressedBytes(), resident, x.StoredEntries(), x.EntryCount())
	}
	if err := e.Insert(1, 0); err != nil {
		t.Fatal(err)
	}
	e.Flush()
	if l, _ := e.CycleCount(0); l != 2 {
		t.Fatalf("after inserting (1,0) vertex 0 answers length %d, want 2", l)
	}
	written := check("after one shard's write")
	if x.CompressedBytes() == 0 || x.ResidentBytes() <= resident || written <= boot {
		t.Fatalf("after one shard's write: %d compressed bytes, resident %d → %d, %v → %v B/entry; want one arena left, and the store and the ratio up",
			x.CompressedBytes(), resident, x.ResidentBytes(), boot, written)
	}
	t.Logf("bytes per stored entry %.2f at boot, %.2f after one shard's write (resident %d → %d B)", boot, written, resident, x.ResidentBytes())
}
