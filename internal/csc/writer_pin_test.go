package csc

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"io"
	"math/rand"
	"testing"

	"repro/internal/graph"
	"repro/internal/order"
	"repro/internal/pll"
)

// maintainedDigests pins the snapshot writers' bytes on indexes that went
// through 40 mixed insert/delete batches — merges, splits, decremental
// repair and INCCNT included — so any writer or maintenance change that
// moves a single byte of a maintained index shows up here. The 6-vertex
// goldens pin only freshly built indexes.
//
// The retired v3/v4 writer's bytes of the same two maintained indexes
// (degree, and coverage under seed 3) are kept as testdata files, pinned
// by maintainedFileDigests: each loads and writes exactly the v2 bytes
// of the same maintenance run under the same order, every list the file
// holds included.
var maintainedDigests = map[string]string{
	"v1":            "2d3948061b317cb2d05b91a5b4ac12a16a202a7623751211dc9bcf2a0db4fda2",
	"v2":            "ffc267730f34bcb2edc8b0373715e8a376ae774e6fa98318962bd1f887ca61e0",
	"v2-minimality": "e30e0fd87dde464bd86e2d9056a5f9bf28370cc9ab2a8704c790e7788aab51c5",
}

var maintainedFileDigests = map[string]string{
	"v3_maintained.csc": "8623d84f8b320d4ff2e954b9013b831608d3d633d7f8483cc1865543c59ce785",
	"v4_maintained.csc": "d4d4f157a3b2aa1f26d7479653e2bf2fb98b96d6d51d364df73119df65ec0cbc",
}

// mixedBatches is randomBatches with half of its ops deleting a present
// edge, so the stream splits components and runs decremental repair as
// often as it merges them.
func mixedBatches(r *rand.Rand, g *graph.Digraph, batches, perBatch int) [][]EdgeOp {
	mirror := g.Clone()
	n := mirror.NumVertices()
	out := make([][]EdgeOp, 0, batches)
	for len(out) < batches {
		var batch []EdgeOp
		for len(batch) < perBatch {
			u := r.Intn(n)
			if r.Intn(2) == 0 {
				if nbrs := mirror.Out(u); len(nbrs) > 0 {
					v := int(nbrs[r.Intn(len(nbrs))])
					_ = mirror.RemoveEdge(u, v)
					batch = append(batch, Del(u, v))
				}
				continue
			}
			if v := r.Intn(n); v != u && !mirror.HasEdge(u, v) {
				_ = mirror.AddEdge(u, v)
				batch = append(batch, Ins(u, v))
			}
		}
		out = append(out, batch)
	}
	return out
}

func TestMaintainedSnapshotDigests(t *testing.T) {
	const seed = 20261017
	base := randomGraph(rand.New(rand.NewSource(seed)), 150, 2)
	batches := mixedBatches(rand.New(rand.NewSource(seed+1)), base, 40, 8)

	sha := func(data []byte) string {
		sum := sha256.Sum256(data)
		return hex.EncodeToString(sum[:])
	}
	digest := func(w io.WriterTo) string {
		var buf bytes.Buffer
		if _, err := w.WriteTo(&buf); err != nil {
			t.Fatal(err)
		}
		return sha(buf.Bytes())
	}
	sharded := func(opts Options) string {
		x, _ := BuildSharded(base.Clone(), opts)
		for i, b := range batches {
			if _, err := x.ApplyBatch(b, 1); err != nil {
				t.Fatalf("batch %d: %v", i, err)
			}
		}
		assertStreamState(t, x, "maintained")
		return digest(x)
	}

	mono, _ := Build(base.Clone(), order.ByDegree(base), Options{})
	for i, b := range batches {
		for _, op := range b {
			var err error
			if op.Kind == OpInsert {
				_, err = mono.InsertEdge(int(op.A), int(op.B))
			} else {
				_, err = mono.DeleteEdge(int(op.A), int(op.B))
			}
			if err != nil {
				t.Fatalf("monolithic batch %d: %v", i, err)
			}
		}
	}
	got := map[string]string{
		"v1":            digest(mono),
		"v2":            sharded(Options{}),
		"v2-minimality": sharded(Options{Strategy: pll.Minimality}),
	}
	sameRun := map[string]string{
		"v3_maintained.csc": got["v2"],
		"v4_maintained.csc": sharded(Options{Order: order.Coverage, OrderSeed: 3}),
	}
	for name, want := range maintainedDigests {
		if got[name] != want {
			t.Errorf("%s snapshot sha256 = %s, want %s", name, got[name], want)
		}
	}
	for name, want := range maintainedFileDigests {
		data := readFixture(t, name)
		if sha(data) != want {
			t.Fatalf("%s sha256 = %s, want %s", name, sha(data), want)
		}
		loaded, err := Read(bytes.NewReader(data))
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if v2 := digest(loaded); v2 != sameRun[name] {
			t.Errorf("%s writes v2 with sha256 %s, the same maintenance run %s", name, v2, sameRun[name])
		}
	}
}
