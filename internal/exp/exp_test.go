package exp

import (
	"bytes"
	"strings"
	"testing"

	"repro/internal/csc"
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
	// A sharded build's reduced store — the frozen delta+varint arena
	// every unwritten shard keeps — must be at least 2x smaller than its
	// stored entries at 8 B each, and so below 8 B per entry, where a
	// shard holds real labels. (The dag-heavy family's four small shards
	// store 92 entries: there the per-list offsets and headers outweigh
	// the gain, 764 B against 736 B.)
	for _, fam := range shardingFamilies() {
		if fam.name != "giant-scc" {
			continue
		}
		x, _ := csc.BuildSharded(fam.build(Tiny), csc.Options{Workers: Workers})
		resident, reduced := x.ResidentBytes(), x.ReducedBytes()
		if resident == 0 || float64(reduced)/float64(resident) < 2 {
			t.Fatalf("giant-scc reduced store holds %d B for %d B of 8-byte entries, want ≥2x smaller", resident, reduced)
		}
		if perEntry := 8 * float64(resident) / float64(reduced); perEntry >= 8 {
			t.Fatalf("giant-scc reduced store %.2f B/entry, not below the 8-byte packed entry", perEntry)
		}
	}
	var buf bytes.Buffer
	if err := WriteSharding(&buf, rows); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "dag-heavy") {
		t.Fatal("table missing family name")
	}
}
