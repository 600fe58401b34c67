package exp

import (
	"bytes"
	"strings"
	"testing"
	"time"
)

func TestDatasetsRegistry(t *testing.T) {
	ds := Datasets()
	if len(ds) != 9 {
		t.Fatalf("registry has %d datasets, want 9", len(ds))
	}
	names := map[string]bool{}
	for _, d := range ds {
		if names[d.Name] {
			t.Fatalf("duplicate dataset %s", d.Name)
		}
		names[d.Name] = true
		g := d.Build(Tiny)
		if g.NumVertices() == 0 || g.NumEdges() == 0 {
			t.Fatalf("%s: empty tiny build", d.Name)
		}
	}
	if _, err := DatasetByName("G04"); err != nil {
		t.Fatal(err)
	}
	if _, err := DatasetByName("nope"); err == nil {
		t.Fatal("unknown dataset accepted")
	}
}

func TestParseScale(t *testing.T) {
	for _, s := range []string{"tiny", "small", "full"} {
		sc, err := ParseScale(s)
		if err != nil || sc.String() != s {
			t.Errorf("ParseScale(%q) = %v, %v", s, sc, err)
		}
	}
	if _, err := ParseScale("huge"); err == nil {
		t.Error("bad scale accepted")
	}
}

func TestTable4(t *testing.T) {
	rows := Table4(Tiny)
	if len(rows) != 9 {
		t.Fatalf("%d rows", len(rows))
	}
	var buf bytes.Buffer
	if err := WriteTable4(&buf, rows); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "G04") {
		t.Fatal("table missing dataset name")
	}
}

func TestFig9SmallestDataset(t *testing.T) {
	d, _ := DatasetByName("G04")
	row := Fig9(Tiny, d)
	if row.HPTime <= 0 || row.CSCTime <= 0 {
		t.Fatalf("timings not positive: %+v", row)
	}
	if row.HPBytes == 0 || row.CSCBytes == 0 {
		t.Fatalf("sizes not positive: %+v", row)
	}
	// §VI-B2: the reduced CSC index should be within a small factor of
	// HP-SPC, not a 2x blowup despite Gb doubling the vertices.
	ratio := float64(row.CSCBytes) / float64(row.HPBytes)
	if ratio > 1.8 || ratio < 0.4 {
		t.Fatalf("size ratio %0.2f far from parity: %+v", ratio, row)
	}
	var buf bytes.Buffer
	if err := WriteFig9(&buf, []BuildRow{row}); err != nil {
		t.Fatal(err)
	}
}

func TestFig10AgreementAndShape(t *testing.T) {
	d, _ := DatasetByName("EME")
	res, err := Fig10(Tiny, d)
	if err != nil {
		t.Fatal(err)
	}
	total := 0
	for _, row := range res.Rows {
		total += row.Queries
	}
	if total == 0 {
		t.Fatal("no queries ran")
	}
	var buf bytes.Buffer
	if err := WriteFig10(&buf, res); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "High") {
		t.Fatal("missing cluster names")
	}
}

func TestFig11Shape(t *testing.T) {
	d, _ := DatasetByName("G04")
	row := Fig11(Tiny, d, false)
	if row.Updates == 0 || row.RedundancyAvg <= 0 {
		t.Fatalf("bad row: %+v", row)
	}
	if row.MinimalityAvg <= 0 {
		t.Fatalf("minimality not measured: %+v", row)
	}
	// §VI-C1: minimality must be substantially slower than redundancy.
	if row.MinimalityAvg < row.RedundancyAvg {
		t.Logf("warning: minimality (%v) not slower than redundancy (%v) at tiny scale",
			row.MinimalityAvg, row.RedundancyAvg)
	}
	skipped := Fig11(Tiny, d, true)
	if !skipped.MinimalitySkipped || skipped.MinimalityAvg != 0 {
		t.Fatalf("skip flag ignored: %+v", skipped)
	}
	var buf bytes.Buffer
	if err := WriteFig11(&buf, []UpdateRow{row, skipped}); err != nil {
		t.Fatal(err)
	}
}

func TestFig12Shape(t *testing.T) {
	rows := Fig12(Tiny)
	edges := 0
	for _, r := range rows {
		edges += r.Edges
	}
	if edges == 0 {
		t.Fatal("no deletions ran")
	}
	var buf bytes.Buffer
	if err := WriteFig12(&buf, rows); err != nil {
		t.Fatal(err)
	}
}

func TestCaseStudyRecoversCriminals(t *testing.T) {
	res := CaseStudy(Tiny)
	if !res.Recovered {
		t.Fatalf("planted criminals not recovered: top=%v", res.Top)
	}
	if len(res.Top) == 0 {
		t.Fatal("empty ranking")
	}
	var buf bytes.Buffer
	if err := WriteCase(&buf, res); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "true") {
		t.Fatal("ranking table missing planted accounts")
	}
}

func TestScalingGrowsSlowly(t *testing.T) {
	rows := Scaling([]int{200, 400, 800})
	if len(rows) != 3 {
		t.Fatal("rows missing")
	}
	// Entries per vertex should grow sub-linearly: less than 3x over a 4x
	// size increase.
	if rows[2].EntriesPerVertex > 3*rows[0].EntriesPerVertex {
		t.Fatalf("label growth superlinear: %+v", rows)
	}
	var buf bytes.Buffer
	if err := WriteScaling(&buf, rows); err != nil {
		t.Fatal(err)
	}
}

// TestOrderingShootout gates the hub-ordering experiment on its
// deterministic size results (timings vary, label bytes do not):
// every strategy builds every family, degree beats random where degrees
// are informative, and coverage beats the degree baseline by ≥10% label
// bytes on at least one family — the evidence the pluggable-order
// machinery pays for itself.
func TestOrderingShootout(t *testing.T) {
	rows := Ordering(Tiny)
	strategies := orderingStrategies()
	byFam := map[string]map[string]OrderingRow{}
	for _, r := range rows {
		if r.Entries == 0 || r.LabelBytes == 0 || r.BuildNS <= 0 {
			t.Fatalf("empty row: %+v", r)
		}
		if byFam[r.Family] == nil {
			byFam[r.Family] = map[string]OrderingRow{}
		}
		byFam[r.Family][r.Strategy] = r
	}
	for fam, cells := range byFam {
		if len(cells) != len(strategies) {
			t.Fatalf("family %s has %d strategies, want %d", fam, len(cells), len(strategies))
		}
	}
	// The degree heuristic must matter where degrees are informative:
	// random pays a large byte penalty on the chorded giant SCC. (No
	// global degree-beats-random assertion — on uniform-degree graphs
	// like the rings and the torus, degree degenerates to id order and
	// random legitimately wins.)
	if r := byFam["giant-scc"]["random"].BytesVsDegree; r < 1.1 {
		t.Errorf("random only %.3fx degree bytes on giant-scc; degree baseline suspect", r)
	}
	best := 1.0
	for _, cells := range byFam {
		if r := cells["coverage"].BytesVsDegree; r < best {
			best = r
		}
	}
	if best > 0.90 {
		t.Errorf("coverage beats degree by ≥10%% label bytes nowhere (best ratio %.3f)", best)
	}
	var buf bytes.Buffer
	if err := WriteOrdering(&buf, rows); err != nil {
		t.Fatal(err)
	}
}

func TestAblationConstruction(t *testing.T) {
	d, _ := DatasetByName("G04")
	row := AblationConstruction(Tiny, d)
	if !row.EntriesIdentical {
		t.Fatalf("constructions diverged: %+v", row)
	}
	var buf bytes.Buffer
	if err := WriteAblation(&buf, []AblationRow{row}); err != nil {
		t.Fatal(err)
	}
}

// The bench suite must emit the serving-throughput points alongside the
// static figures: GOMAXPROCS readers, every configured update rate, and
// nonzero query counts (the JSON artifact CI uploads depends on this).
func TestBenchSuiteEmitsServePoints(t *testing.T) {
	d, err := DatasetByName("G04")
	if err != nil {
		t.Fatal(err)
	}
	res := Bench(Tiny, d)
	if len(res.Serve) != len(serveRates) {
		t.Fatalf("got %d serve points, want %d", len(res.Serve), len(serveRates))
	}
	for i, p := range res.Serve {
		if p.UpdateRatePerSec != serveRates[i] {
			t.Fatalf("point %d rate %d, want %d", i, p.UpdateRatePerSec, serveRates[i])
		}
		if p.Readers < 1 || p.Queries == 0 || p.QueriesPerSec <= 0 {
			t.Fatalf("degenerate serve point %+v", p)
		}
		if p.UpdateRatePerSec > 0 && p.OpsApplied == 0 {
			t.Fatalf("update rate %d applied no ops — the load coalesced away", p.UpdateRatePerSec)
		}
	}
}

// TestUpdateThroughputExperiment is the batch-update acceptance gate: on
// the many-small-SCC family at tiny scale, applying the batch-64 stream
// through ApplyBatch must sustain at least 2x the updates/sec of per-edge
// sequential maintenance, and every row of the sweep must be well-formed
// (the UPD-* rows in BENCH_*.json come straight from these).
func TestUpdateThroughputExperiment(t *testing.T) {
	if testing.Short() {
		t.Skip("update throughput experiment is not -short")
	}
	if raceEnabled {
		// The race detector serializes goroutines and inflates every
		// traversal unevenly; the ≥2x gate is a wall-clock ratio and
		// only meaningful on an uninstrumented binary.
		t.Skip("timing gate is not meaningful under -race")
	}
	rows := Updates(Tiny)
	if len(rows) != 6 {
		t.Fatalf("%d rows, want 2 families x 3 batch sizes", len(rows))
	}
	type key struct {
		fam string
		bs  int
	}
	byKey := map[key]UpdateThroughputRow{}
	for _, r := range rows {
		if r.N == 0 || r.Ops == 0 || r.SeqOpsPerSec <= 0 || r.BatchOpsPerSec <= 0 {
			t.Fatalf("degenerate row %+v", r)
		}
		byKey[key{r.Family, r.BatchSize}] = r
	}
	for _, bs := range updateBatchSizes {
		for _, fam := range []string{"many-small-scc", "giant-scc"} {
			if _, ok := byKey[key{fam, bs}]; !ok {
				t.Fatalf("missing row %s b%d", fam, bs)
			}
		}
	}
	headline := byKey[key{"many-small-scc", 64}]
	if headline.Speedup < 2 {
		t.Fatalf("many-small-scc batch-64 speedup %.2fx < 2x: %+v", headline.Speedup, headline)
	}
	var buf bytes.Buffer
	if err := WriteUpdates(&buf, rows); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "many-small-scc") {
		t.Fatal("table missing family name")
	}
}

// TestQueryThroughputExperiment is the read-path acceptance gate: on the
// many-small-SCC family at tiny scale, refreshing the top-k scoreboard
// by rescoring only each batch-64 dirty set must sustain at least 2x the
// throughput of a full RescoreAll per batch, every serve point must
// carry live cold and cached rates, and the cached arm must actually hit
// (the QRY-* rows in BENCH_*.json come straight from these).
func TestQueryThroughputExperiment(t *testing.T) {
	if testing.Short() {
		t.Skip("query throughput experiment is not -short")
	}
	if raceEnabled {
		// Wall-clock ratio gates are meaningless on an instrumented
		// binary (see TestUpdateThroughputExperiment).
		t.Skip("timing gate is not meaningful under -race")
	}
	rows := Queries(Tiny)
	if len(rows) != 2 {
		t.Fatalf("%d rows, want one per family", len(rows))
	}
	byFam := map[string]QueryThroughputRow{}
	for _, r := range rows {
		if r.N == 0 || r.M == 0 {
			t.Fatalf("degenerate row %+v", r)
		}
		if len(r.Serve) != len(serveRates) {
			t.Fatalf("%s: %d serve points, want %d", r.Family, len(r.Serve), len(serveRates))
		}
		for i, p := range r.Serve {
			if p.UpdateRatePerSec != serveRates[i] {
				t.Fatalf("%s point %d rate %d, want %d", r.Family, i, p.UpdateRatePerSec, serveRates[i])
			}
			if p.ColdQPS <= 0 || p.CachedQPS <= 0 {
				t.Fatalf("%s: degenerate serve point %+v", r.Family, p)
			}
		}
		// The read-only point walks every vertex repeatedly; after the
		// first sweep almost every read must be a hit.
		if p := r.Serve[0]; p.CacheHitRate < 0.5 {
			t.Fatalf("%s: rate-0 cache hit rate %.2f < 0.5", r.Family, p.CacheHitRate)
		}
		if len(r.TopK) != len(topkBatchSizes) {
			t.Fatalf("%s: %d topk rows, want %d", r.Family, len(r.TopK), len(topkBatchSizes))
		}
		for _, p := range r.TopK {
			if p.N == 0 || p.Batches == 0 || p.DirtyPerSec <= 0 || p.FullPerSec <= 0 || p.AvgDirty <= 0 {
				t.Fatalf("%s: degenerate topk row %+v", r.Family, p)
			}
		}
		byFam[r.Family] = r
	}
	var headline TopKRescoreRow
	for _, p := range byFam["many-small-scc"].TopK {
		if p.BatchSize == 64 {
			headline = p
		}
	}
	if headline.Speedup < 2 {
		t.Fatalf("many-small-scc batch-64 dirty-rescore speedup %.2fx < 2x: %+v", headline.Speedup, headline)
	}
	var buf bytes.Buffer
	if err := WriteQueries(&buf, rows); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "many-small-scc") || !strings.Contains(buf.String(), "cached-q/s") {
		t.Fatal("table missing expected content")
	}
}

// TestChurnExperiment is the overload-resilience acceptance gate: under
// the bridge-flap protocol the out-of-band arm must cut the read-path
// p99 by at least 2x against inline rebuilds (the CHURN-* rows in
// BENCH_*.json come straight from these), both arms must quiesce to
// oracle-identical answers (churnArm panics otherwise), and the inline
// arm must report zero out-of-band activity.
func TestChurnExperiment(t *testing.T) {
	if testing.Short() {
		t.Skip("churn experiment is not -short")
	}
	if raceEnabled {
		// Wall-clock ratio gates are meaningless on an instrumented
		// binary (see TestUpdateThroughputExperiment).
		t.Skip("timing gate is not meaningful under -race")
	}
	rows := Churn(Tiny)
	if len(rows) != 1 {
		t.Fatalf("%d rows, want 1", len(rows))
	}
	r := rows[0]
	if r.N == 0 || r.M == 0 || r.Readers == 0 {
		t.Fatalf("degenerate row %+v", r)
	}
	for _, a := range []ChurnArm{r.Inline, r.OOB} {
		if a.Reads == 0 || a.Flaps == 0 || a.P50NS <= 0 || a.P99NS < a.P50NS {
			t.Fatalf("degenerate arm %+v", a)
		}
	}
	if r.Inline.Threshold != 0 || r.Inline.Rebuilds != 0 || r.Inline.Superseded != 0 {
		t.Fatalf("inline arm ran out-of-band rebuilds: %+v", r.Inline)
	}
	if r.OOB.Threshold <= 0 {
		t.Fatalf("OOB arm threshold %d", r.OOB.Threshold)
	}
	if r.P99Improvement < 2 {
		t.Fatalf("OOB p99 improvement %.2fx < 2x: inline %v vs oob %v",
			r.P99Improvement, time.Duration(r.Inline.P99NS), time.Duration(r.OOB.P99NS))
	}
	var buf bytes.Buffer
	if err := WriteChurn(&buf, rows); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "dumbbell") || !strings.Contains(buf.String(), "p99 improvement") {
		t.Fatal("table missing expected content")
	}
}

// TestClusterExperiment is the replicated-cluster acceptance gate: the
// CLUSTER-* rows in BENCH_*.json come straight from these figures.
// Throughput arms must be non-degenerate (ReadSpeedup is reported, not
// gated — both arms share one GOMAXPROCS pool, so it measures routing
// overhead, not multi-host scaling), and the failover drill must lose
// zero acknowledged writes, fail over exactly once, and bound the write
// blackout.
func TestClusterExperiment(t *testing.T) {
	if testing.Short() {
		t.Skip("cluster experiment is not -short")
	}
	if raceEnabled {
		// Wall-clock gates are meaningless on an instrumented binary, and
		// the drill's correctness is already race-tested in internal/dist.
		t.Skip("timing gate is not meaningful under -race")
	}
	rows := Cluster(Tiny)
	if len(rows) != 1 {
		t.Fatalf("%d rows, want 1", len(rows))
	}
	r := rows[0]
	if r.N == 0 || r.M == 0 || r.Shards == 0 {
		t.Fatalf("degenerate row %+v", r)
	}
	for _, a := range []ClusterThroughputArm{r.One, r.Three} {
		if a.Reads == 0 || a.QPS <= 0 || a.P50NS <= 0 || a.P99NS < a.P50NS {
			t.Fatalf("degenerate arm %+v", a)
		}
	}
	if r.One.Groups != 1 || r.Three.Groups != 3 || r.ReadSpeedup <= 0 {
		t.Fatalf("arm shape: %+v", r)
	}
	if r.AckedWrites == 0 || r.LostAckedWrites != 0 {
		t.Fatalf("failover drill lost %d of %d acked writes", r.LostAckedWrites, r.AckedWrites)
	}
	if r.Failovers != 1 {
		t.Fatalf("failovers %d, want exactly 1", r.Failovers)
	}
	if r.FailoverBlackoutNS <= 0 || r.FailoverBlackoutNS > (5*time.Second).Nanoseconds() {
		t.Fatalf("blackout window %s, want (0, 5s]", time.Duration(r.FailoverBlackoutNS))
	}
	var buf bytes.Buffer
	if err := WriteCluster(&buf, rows); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "rings") || !strings.Contains(buf.String(), "failover") {
		t.Fatal("table missing expected content")
	}
}

// The sharding experiment is the tentpole's acceptance gate: on the
// DAG-heavy family the sharded build must be at least 2x faster and at
// least 2x smaller than the monolithic one, and both numbers land in the
// BENCH_*.json artifact through BenchSuite's SHARD-* rows.
func TestShardingExperiment(t *testing.T) {
	rows := Sharding(Tiny)
	if len(rows) != 3 {
		t.Fatalf("%d rows", len(rows))
	}
	byFam := map[string]ShardingRow{}
	for _, r := range rows {
		if r.N == 0 || r.MonoBuildNS <= 0 || r.ShardedBuildNS <= 0 {
			t.Fatalf("degenerate row %+v", r)
		}
		byFam[r.Family] = r
	}
	dag := byFam["dag-heavy"]
	if dag.BuildSpeedup < 2 {
		t.Fatalf("dag-heavy build speedup %.2fx < 2x: %+v", dag.BuildSpeedup, dag)
	}
	if dag.BytesReduction < 2 {
		t.Fatalf("dag-heavy bytes reduction %.2fx < 2x: %+v", dag.BytesReduction, dag)
	}
	if dag.TrivialVertices < dag.N*8/10 {
		t.Fatalf("dag-heavy family not DAG-heavy: %d trivial of %d", dag.TrivialVertices, dag.N)
	}
	giant := byFam["giant-scc"]
	if giant.Shards != 1 || giant.TrivialVertices != 0 {
		t.Fatalf("giant-scc family not a single component: %+v", giant)
	}
	// Giant-SCC labels must match the monolithic ones exactly — sharding
	// with one shard is the same labeling problem.
	if giant.MonoBytes != giant.ShardedBytes {
		t.Fatalf("giant-scc bytes diverge: mono %d sharded %d", giant.MonoBytes, giant.ShardedBytes)
	}
	many := byFam["many-small-scc"]
	if many.Shards < 10 {
		t.Fatalf("many-small-scc produced %d shards", many.Shards)
	}
	var buf bytes.Buffer
	if err := WriteSharding(&buf, rows); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "dag-heavy") {
		t.Fatal("table missing family name")
	}
}

func TestStorageExperiment(t *testing.T) {
	rows := Storage(Tiny)
	if len(rows) != 2 {
		t.Fatalf("%d rows", len(rows))
	}
	byFam := map[string]StorageRow{}
	for _, r := range rows {
		if r.N == 0 || r.Entries == 0 || r.CompressedBytes == 0 || r.UncompressedBytes == 0 {
			t.Fatalf("degenerate row %+v", r)
		}
		if r.FileBytes == 0 || r.ColdLoadNS <= 0 || r.MmapLoadNS <= 0 {
			t.Fatalf("cold-start leg missing from row %+v", r)
		}
		byFam[r.Family] = r
	}
	// The headline gate: on the DAG-heavy family the frozen delta+varint
	// arena must be ≥2x smaller per entry than the uncompressed CSR
	// arena, and the bloom signatures must actually screen joins on the
	// mostly-acyclic query sweep.
	dag := byFam["dag-heavy"]
	if dag.Reduction < 2 {
		t.Fatalf("dag-heavy frozen arena only %.2fx smaller than the mutable arena, want ≥2x: %+v", dag.Reduction, dag)
	}
	if dag.BytesPerEntry >= 8 {
		t.Fatalf("dag-heavy frozen arena %.2f bytes/entry, not below the 8-byte packed entry: %+v", dag.BytesPerEntry, dag)
	}
	if dag.BloomChecks == 0 || dag.BloomRejects == 0 {
		t.Fatalf("dag-heavy bloom screen inert: %d checks, %d rejects", dag.BloomChecks, dag.BloomRejects)
	}
	if _, ok := byFam["giant-scc"]; !ok {
		t.Fatalf("giant-scc contrast row missing: %+v", rows)
	}
	var buf bytes.Buffer
	if err := WriteStorage(&buf, rows); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "dag-heavy") {
		t.Fatal("table missing family name")
	}
}
