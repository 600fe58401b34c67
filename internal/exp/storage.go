package exp

import (
	"fmt"
	"io"
	"os"
	"path/filepath"
	"time"

	"repro/internal/csc"
	"repro/internal/label"
	"repro/internal/order"
)

// StorageRow is one family's entry in the compressed-storage experiment
// (the MEM-* rows of BENCH_*.json): the delta+varint frozen arena's
// footprint against the mutable 8-byte-entry representation, the bloom
// pre-screen's reject rate on a query sweep, and the cold-start latency
// of the v3 file through the full read and the mmap path.
type StorageRow struct {
	Family  string `json:"family"`
	N       int    `json:"n"`
	M       int    `json:"m"`
	Entries int    `json:"entries"`

	// UncompressedBytes is the mutable CSR arena's footprint for the
	// same full entry set (8 bytes per slot, per-list growth pad
	// included; label.Frozen.ArenaBytes); CompressedBytes the
	// delta+varint frozen arena carrying those entries. Reduction is
	// their ratio, BytesPerEntry the frozen cost per label entry. Both
	// sides are measured on the monolithic labeling, where every vertex
	// carries labels and the arena is one allocation. (An uncompressed
	// build stores only the reduced half of the entries, §IV-E; the
	// compressed arena keeps every list, so the ratio compares like with
	// like.)
	UncompressedBytes int     `json:"uncompressed_bytes"`
	CompressedBytes   int     `json:"compressed_bytes"`
	BytesPerEntry     float64 `json:"bytes_per_entry"`
	Reduction         float64 `json:"reduction"`

	// Bloom signature screen over a full monolithic query sweep: checks
	// are joins where both sides carried a signature, rejects the joins
	// answered from the signatures alone without decoding an entry.
	// DAG-heavy graphs are the headline — most vertices sit on no cycle,
	// so their label pairs share no hub and the signatures screen them.
	BloomChecks     uint64  `json:"bloom_checks"`
	BloomRejects    uint64  `json:"bloom_rejects"`
	BloomRejectRate float64 `json:"bloom_reject_rate"`

	// Cold-start: serialize a sharded compressed build as a v3 file,
	// then time load-through-first-query via the full stream read (parse
	// + validate every label list) and via the mmap path (structural
	// validation only; label bytes page in on demand).
	FileBytes  int   `json:"file_bytes"`
	ColdLoadNS int64 `json:"cold_load_ns"`
	MmapLoadNS int64 `json:"mmap_load_ns"`
}

// Storage runs the compressed-storage experiment on the DAG-heavy and
// giant-SCC partition families: the first is the headline (rank-sorted
// hubs in tiny per-component labels compress hard, and bloom signatures
// screen the acyclic majority), the second the adversarial case (one
// dense labeling, every pair shares hubs, signatures reject nothing).
func Storage(s Scale) []StorageRow {
	var rows []StorageRow
	for _, fam := range shardingFamilies() {
		if fam.name == "many-small-scc" {
			continue // the dag-heavy row already covers the sharded-small-label shape
		}
		g := fam.build(s)
		n, m := g.NumVertices(), g.NumEdges()

		// Footprint and bloom screen are measured on the monolithic
		// labeling — every vertex carries labels there, and queries
		// actually reach the join kernels (the sharded form answers most
		// non-cyclic vertices from the shard map without ever joining).
		mono, _ := csc.Build(g.Clone(), order.ByDegree(g), csc.Options{CompressLabels: true})

		row := StorageRow{
			Family:            fam.name,
			N:                 n,
			M:                 m,
			Entries:           mono.EntryCount(),
			UncompressedBytes: mono.Engine().FrozenArena().ArenaBytes(),
			CompressedBytes:   mono.CompressedBytes(),
		}
		if row.Entries > 0 {
			row.BytesPerEntry = float64(row.CompressedBytes) / float64(row.Entries)
		}
		if row.CompressedBytes > 0 {
			row.Reduction = float64(row.UncompressedBytes) / float64(row.CompressedBytes)
		}

		c0, r0 := label.BloomStats()
		for v := 0; v < n; v++ {
			mono.CycleCount(v)
		}
		c1, r1 := label.BloomStats()
		row.BloomChecks = c1 - c0
		row.BloomRejects = r1 - r0
		if row.BloomChecks > 0 {
			row.BloomRejectRate = float64(row.BloomRejects) / float64(row.BloomChecks)
		}

		// Cold start: the v3 on-disk form is the sharded compressed
		// build; write one file and load it twice. Queries after each
		// load prove the index serves, and time-to-first-answer is the
		// number a restart actually cares about.
		comp, _ := csc.BuildSharded(g.Clone(), csc.Options{Workers: Workers, CompressLabels: true})
		dir, err := os.MkdirTemp("", "cscstorage")
		if err != nil {
			panic(err)
		}
		path := filepath.Join(dir, "index.csc")
		f, err := os.Create(path)
		if err != nil {
			panic(err)
		}
		if _, err := comp.WriteTo(f); err != nil {
			panic(err)
		}
		if err := f.Close(); err != nil {
			panic(err)
		}
		if fi, err := os.Stat(path); err == nil {
			row.FileBytes = int(fi.Size())
		}
		t0 := time.Now()
		full, err := csc.ReadFile(path, false)
		if err != nil {
			panic(err)
		}
		full.CycleCount(0)
		row.ColdLoadNS = time.Since(t0).Nanoseconds()

		t1 := time.Now()
		mm, err := csc.ReadFile(path, true)
		if err != nil {
			panic(err)
		}
		mm.CycleCount(0)
		row.MmapLoadNS = time.Since(t1).Nanoseconds()
		_ = os.RemoveAll(dir)

		rows = append(rows, row)
	}
	return rows
}

// WriteStorage renders the storage experiment as a prose table.
func WriteStorage(w io.Writer, rows []StorageRow) error {
	if _, err := fmt.Fprintf(w, "%-12s %8s %8s %10s | %10s %10s %7s %7s | %9s %8s | %9s %9s\n",
		"family", "n", "m", "entries",
		"raw-KB", "comp-KB", "B/entry", "reduce",
		"bloom-chk", "rej-rate", "cold-ms", "mmap-ms"); err != nil {
		return err
	}
	for _, r := range rows {
		if _, err := fmt.Fprintf(w, "%-12s %8d %8d %10d | %10.1f %10.1f %7.2f %6.1fx | %9d %8.2f | %9.2f %9.2f\n",
			r.Family, r.N, r.M, r.Entries,
			float64(r.UncompressedBytes)/1024, float64(r.CompressedBytes)/1024,
			r.BytesPerEntry, r.Reduction,
			r.BloomChecks, r.BloomRejectRate,
			float64(r.ColdLoadNS)/1e6, float64(r.MmapLoadNS)/1e6); err != nil {
			return err
		}
	}
	return nil
}
