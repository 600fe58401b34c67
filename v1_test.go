package cyclehub

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/csc"
	"repro/internal/engine"
	"repro/internal/serve"
)

// goldenV1 is a monolithic index in the v1 format, written before the
// sharded form existed; the serving layers re-shard it on load.
const goldenV1 = "internal/csc/testdata/golden_v1.csc"

// assertGoldenCounts checks the golden graph's answers: a triangle over
// 0,1,2, a 2-cycle over 4,5, and no cycle anywhere else.
func assertGoldenCounts(t *testing.T, tag string, n int, count func(v int) CycleResult) {
	t.Helper()
	want := map[int]CycleResult{
		0: {true, 3, 1}, 1: {true, 3, 1}, 2: {true, 3, 1},
		4: {true, 2, 1}, 5: {true, 2, 1},
	}
	if n != 9 {
		t.Fatalf("%s: %d vertices, want 9", tag, n)
	}
	for v := 0; v < n; v++ {
		if got := count(v); got != want[v] {
			t.Fatalf("%s: vertex %d = %+v, want %+v", tag, v, got, want[v])
		}
	}
}

// assertShardTable fetches GET /cluster/shards and checks it places the
// golden graph's two cyclic components.
func assertShardTable(t *testing.T, tag string, h http.Handler) {
	t.Helper()
	srv := httptest.NewServer(h)
	defer srv.Close()
	resp, err := http.Get(srv.URL + "/cluster/shards")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("%s: /cluster/shards status %d", tag, resp.StatusCode)
	}
	var tbl serve.ShardTableJSON
	if err := json.NewDecoder(resp.Body).Decode(&tbl); err != nil {
		t.Fatal(err)
	}
	if tbl.Vertices != 9 || len(tbl.Shards) != 2 {
		t.Fatalf("%s: shard table %d vertices / %d shards, want 9 / 2", tag, tbl.Vertices, len(tbl.Shards))
	}
	if tbl.ShardOf[3] != -1 || tbl.ShardOf[0] < 0 || tbl.ShardOf[0] == tbl.ShardOf[4] {
		t.Fatalf("%s: shard_of %v does not separate the triangle, the 2-cycle and the trivial vertices", tag, tbl.ShardOf)
	}
}

// A v1 index file loads through ReadIndex and ReadIndexFile, re-sharded,
// and serves the golden answers and a shard table.
func TestReadIndexV1Golden(t *testing.T) {
	f, err := os.Open(goldenV1)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	idx, err := ReadIndex(f)
	if err != nil {
		t.Fatal(err)
	}
	assertGoldenCounts(t, "ReadIndex", idx.Graph().NumVertices(), idx.CycleCount)
	for _, useMmap := range []bool{false, true} {
		fidx, err := ReadIndexFile(goldenV1, useMmap)
		if err != nil {
			t.Fatal(err)
		}
		assertGoldenCounts(t, "ReadIndexFile", fidx.Graph().NumVertices(), fidx.CycleCount)
	}
	e, err := NewEngine(idx)
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	assertGoldenCounts(t, "engine over ReadIndex", e.NumVertices(), e.CycleCount)
	assertShardTable(t, "engine over ReadIndex", e.Handler())
}

// A store whose snapshot holds v1 bytes recovers into a sharded engine
// that answers the golden counts, serves a shard table, keeps applying
// updates, and snapshots back in a sharded format.
func TestOpenEngineV1Snapshot(t *testing.T) {
	f, err := os.Open(goldenV1)
	if err != nil {
		t.Fatal(err)
	}
	v1, err := csc.Read(f)
	f.Close()
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := v1.(*csc.Index); !ok {
		t.Fatalf("golden v1 loaded as %T, want the monolithic *csc.Index", v1)
	}
	dir := t.TempDir()
	st, err := engine.OpenStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	if err := st.WriteSnapshot(0, v1); err != nil {
		t.Fatal(err)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(filepath.Join(dir, "snapshot.csc"))
	if err != nil {
		t.Fatal(err)
	}
	if string(raw[16:24]) != "CSCIDX01" {
		t.Fatalf("snapshot body starts %q, want the v1 magic", raw[16:24])
	}

	noBoot := func() (*Index, error) { t.Fatal("bootstrap called over a snapshot"); return nil, nil }
	e, err := OpenEngine(dir, noBoot)
	if err != nil {
		t.Fatal(err)
	}
	assertGoldenCounts(t, "OpenEngine", e.NumVertices(), e.CycleCount)
	assertShardTable(t, "OpenEngine", e.Handler())
	// Close the 2-cycle's tail into a 3-cycle 5→6→4 and snapshot: the
	// store is sharded from here on.
	if err := e.InsertEdge(6, 4); err != nil {
		t.Fatal(err)
	}
	if err := e.Snapshot(); err != nil {
		t.Fatal(err)
	}
	if r := e.CycleCount(6); !r.Exists || r.Length != 3 || r.Count != 1 {
		t.Fatalf("vertex 6 after insert: %+v", r)
	}
	if err := e.Close(); err != nil {
		t.Fatal(err)
	}
	raw, err = os.ReadFile(filepath.Join(dir, "snapshot.csc"))
	if err != nil {
		t.Fatal(err)
	}
	if magic := string(raw[16:24]); magic == "CSCIDX01" {
		t.Fatalf("snapshot after recovery still %q", magic)
	}
	e2, err := OpenEngine(dir, noBoot)
	if err != nil {
		t.Fatal(err)
	}
	defer e2.Close()
	if r := e2.CycleCount(6); !r.Exists || r.Length != 3 || r.Count != 1 {
		t.Fatalf("vertex 6 after reopening: %+v", r)
	}
}
