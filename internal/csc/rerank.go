package csc

import (
	"fmt"
	"time"

	"repro/internal/bipartite"
	"repro/internal/graph"
	"repro/internal/order"
	"repro/internal/partition"
)

// Online re-ranking: the sharded index can rebuild one shard under a new
// hub order without any structural change — the graph is untouched, only
// the labels reshape. The rebuild rides the out-of-band deferral
// machinery (deferred.go): the shard freezes at its current answers
// (which stay exact — the graph does not change), the replacement builds
// on a background goroutine from an induced-subgraph snapshot, and
// CompleteRebuild swaps it in atomically under the caller's grace
// period. A structural batch arriving mid-rebuild supersedes the
// deferral through the normal reconcile pass, so a re-rank can never
// mask a real update; the engine simply retries at the next tick.
//
// The drift signal is per-hub hit counters on the join kernel
// (pll.Index.EnableHitCounters): each answered query attributes itself
// to the winning hub's rank. A well-ordered shard answers at its top
// ranks; a hit mass sitting in the rank tail means the order no longer
// matches the workload, and re-ranking by hit weight pulls the hot hubs
// forward.

// EnableHitCounters turns on per-hub hit recording for every live shard
// (idempotent; freshly installed shards start with counters off, so
// callers re-invoke after swaps). Must run where index mutations are
// serialized — enabling races with concurrent queries otherwise.
func (x *Sharded) EnableHitCounters() {
	for _, sh := range x.shards {
		if sh != nil {
			sh.idx.eng.EnableHitCounters()
		}
	}
}

// ShardDrift reports one live shard's order drift: the hit-weighted mean
// normalized rank of its winning hubs (0 = every answer at the top rank,
// 1 = everything at the bottom), and the total recorded hits. ok is
// false for dead slots or shards without counters.
func (x *Sharded) ShardDrift(slot int) (drift float64, hits uint64, ok bool) {
	if slot < 0 || slot >= len(x.shards) || x.shards[slot] == nil {
		return 0, 0, false
	}
	hh := x.shards[slot].idx.eng.HubHits()
	if hh == nil {
		return 0, 0, false
	}
	var mass float64
	for r, n := range hh {
		hits += n
		mass += float64(n) * float64(r)
	}
	if hits == 0 || len(hh) < 2 {
		return 0, hits, true
	}
	return mass / (float64(hits) * float64(len(hh)-1)), hits, true
}

// ReorderShard defers an order-only rebuild of one live shard under an
// explicit hub order (over the shard's induced subgraph, one rank per
// member vertex). The shard freezes — still serving exact answers, since
// the graph is unchanged — and the returned Rebuild follows the normal
// out-of-band path: Run on any goroutine, CompleteRebuild where
// mutations are serialized. Refused while another deferral is pending:
// structural work always outranks cosmetic relabeling.
func (x *Sharded) ReorderShard(slot int, ord *order.Order, strat order.Strategy) (*Rebuild, error) {
	if x.pendingReb != nil {
		return nil, fmt.Errorf("csc: a rebuild is already pending")
	}
	if slot < 0 || slot >= len(x.shards) || x.shards[slot] == nil {
		return nil, fmt.Errorf("csc: no live shard at slot %d", slot)
	}
	sh := x.shards[slot]
	if ord.Len() != len(sh.verts) {
		return nil, fmt.Errorf("csc: order covers %d vertices, shard has %d", ord.Len(), len(sh.verts))
	}
	x.gen++
	reb := &Rebuild{
		gen:      x.gen,
		stale:    []int32{int32(slot)},
		comps:    [][]int32{sh.verts},
		subs:     []*graph.Digraph{partition.Induced(x.g, sh.verts)},
		region:   make(map[int32]struct{}, len(sh.verts)),
		opts:     x.opts,
		ords:     []*order.Order{ord},
		strats:   []order.Strategy{strat},
		freeze:   true,
		frozenAt: time.Now(),
	}
	for _, v := range sh.verts {
		reb.region[v] = struct{}{}
	}
	if x.stale == nil {
		x.stale = make(map[int32]bool)
	}
	x.stale[int32(slot)] = true
	x.pendingReb = reb
	return reb, nil
}

// ReorderShardByHits is ReorderShard with the order derived from the
// shard's own hit counters: each member vertex's weight is the hit mass
// of its two Gb ranks, and order.ByWeights ranks hot vertices first
// (degree, then id, breaking ties — a uniformly hit shard degenerates to
// the degree order). Fails when the shard has no counters or no hits.
func (x *Sharded) ReorderShardByHits(slot int) (*Rebuild, error) {
	if slot < 0 || slot >= len(x.shards) || x.shards[slot] == nil {
		return nil, fmt.Errorf("csc: no live shard at slot %d", slot)
	}
	sh := x.shards[slot]
	eng := sh.idx.eng
	hh := eng.HubHits()
	if hh == nil {
		return nil, fmt.Errorf("csc: shard %d has no hit counters", slot)
	}
	sub := sh.idx.Graph()
	weights := make([]float64, sub.NumVertices())
	var total uint64
	for r, n := range hh {
		if n == 0 {
			continue
		}
		total += n
		// Ranks index the shard's Gb order; fold both sides of each couple
		// onto the original member vertex.
		weights[bipartite.Original(eng.Ord.VertexAt(r))] += float64(n)
	}
	if total == 0 {
		return nil, fmt.Errorf("csc: shard %d has no recorded hits", slot)
	}
	return x.ReorderShard(slot, order.ByWeights(sub, weights), order.Hits)
}
