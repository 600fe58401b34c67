package dist

import (
	"encoding/json"
	"fmt"
	"net/http"
	"time"

	"repro/internal/csc"
	"repro/internal/serve"
)

// Table is the cluster routing state: vertex → shard slot → owning
// worker group. Tables are immutable once built — the router swaps whole
// tables atomically — and JSON-serializable, so the placement a
// coordinator computed can be inspected at GET /cluster/table.
type Table struct {
	Vertices int `json:"vertices"`
	Groups   int `json:"groups"`
	// ShardOf maps vertex → shard slot; -1 marks a trivial vertex (no
	// labels anywhere — the router answers zero cycles locally).
	ShardOf []int32 `json:"shard_of"`
	// OwnerOf maps shard slot → group id; -1 marks a slot with no live
	// shard.
	OwnerOf []int32 `json:"owner_of"`
}

// BuildTable computes a routing table from a shard snapshot (local via
// engine.ShardTable or fetched via FetchTable) by running the
// size-balanced placement over the per-shard stats.
func BuildTable(shardOf []int32, stats []csc.ShardStat, nGroups int) *Table {
	maxSlot := -1
	for _, st := range stats {
		if st.Slot > maxSlot {
			maxSlot = st.Slot
		}
	}
	for _, s := range shardOf {
		if int(s) > maxSlot {
			maxSlot = int(s)
		}
	}
	owner := make([]int32, maxSlot+1)
	for i := range owner {
		owner[i] = -1
	}
	for g, slots := range Plan(stats, nGroups) {
		for _, slot := range slots {
			owner[slot] = int32(g)
		}
	}
	return &Table{Vertices: len(shardOf), Groups: nGroups, ShardOf: shardOf, OwnerOf: owner}
}

// GroupFor routes one vertex. trivial reports a vertex with no shard —
// the answer is locally known (no cycle) and needs no proxy hop. group
// is -1 when v is out of range or its slot has no owner.
func (t *Table) GroupFor(v int) (group int, trivial bool) {
	if v < 0 || v >= len(t.ShardOf) {
		return -1, false
	}
	s := t.ShardOf[v]
	if s < 0 {
		return -1, true
	}
	if int(s) >= len(t.OwnerOf) {
		return -1, false
	}
	g := t.OwnerOf[s]
	if g < 0 {
		return -1, false
	}
	return int(g), false
}

// FetchTable builds a routing table by asking a running worker for its
// shard snapshot (GET /cluster/shards) — how a router boots without
// access to the index file itself. A nil client gets a 5s timeout.
func FetchTable(workerURL string, nGroups int, c *http.Client) (*Table, error) {
	if c == nil {
		c = &http.Client{Timeout: 5 * time.Second}
	}
	resp, err := c.Get(workerURL + "/cluster/shards")
	if err != nil {
		return nil, fmt.Errorf("dist: fetch shard table from %s: %w", workerURL, err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("dist: fetch shard table from %s: status %d", workerURL, resp.StatusCode)
	}
	var tbl serve.ShardTableJSON
	if err := json.NewDecoder(resp.Body).Decode(&tbl); err != nil {
		return nil, fmt.Errorf("dist: decode shard table: %w", err)
	}
	stats := make([]csc.ShardStat, 0, len(tbl.Shards))
	for _, sh := range tbl.Shards {
		stats = append(stats, csc.ShardStat{
			Slot:       sh.Slot,
			Vertices:   sh.Vertices,
			Entries:    sh.Entries,
			LabelBytes: sh.LabelBytes,
		})
	}
	return BuildTable(tbl.ShardOf, stats, nGroups), nil
}
