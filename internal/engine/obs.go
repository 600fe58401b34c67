package engine

import (
	"runtime/metrics"
	"sort"
	"strconv"
	"time"

	"repro/internal/csc"
	"repro/internal/label"
	"repro/internal/obs"
	"repro/internal/pll"
)

// Engine observability: every counter the engine keeps is an obs.Counter
// (standalone atomic words — a zero-value Counter works without any
// registry, so /stats is always live), and when Options.Metrics is set
// initObs registers the whole surface into it func-backed: the scrape
// reads the very same words /stats reads, so the two endpoints cannot
// drift. Latency histograms and the batch-lifecycle trace ring only
// exist with a registry; recording into their nil zero forms is a no-op,
// so the instrumented code paths carry no branches.

// stageHists caches the per-stage children of the batch-stage histogram
// vec, resolved once at startup so the writer never takes the vec's map
// lock.
type stageHists struct {
	coalesce, wal, ship, plan, apply, rebuild, hooks *obs.Histogram
}

// rebuildDone carries a finished out-of-band rebuild back to the writer
// goroutine, with how long the background Run took (the trace's rebuild
// stage — the writer never observed that time itself).
type rebuildDone struct {
	r     *csc.Rebuild
	runNS int64
}

// initObs wires the engine's observability: the trace ring (on whenever
// metrics are, or explicitly sized), and — with a registry — the full
// metric surface. One registry serves one engine; a second engine needs
// its own (registration panics on duplicate names by design).
func (e *Engine) initObs() {
	ring := e.opts.TraceRingSize
	if ring == 0 && e.opts.Metrics != nil {
		ring = defaultTraceRing
	}
	if ring > 0 {
		e.trace = obs.NewRing(ring)
	}
	reg := e.opts.Metrics
	if reg == nil {
		return
	}

	reg.CounterFunc("cscd_queries_total", "client cycle-count queries served", func() uint64 {
		var q uint64
		for i := range e.queries {
			q += e.queries[i].n.Load()
		}
		return q
	})
	reg.CounterFunc("cscd_cache_hits_total", "client queries answered from the result cache", func() uint64 {
		var h uint64
		for i := range e.hits {
			h += e.hits[i].n.Load()
		}
		return h
	})
	reg.CounterFunc("cscd_ops_enqueued_total", "edge ops accepted into the mailbox", e.enqueued.Load)
	reg.CounterFunc("cscd_ops_applied_total", "edge ops applied to the index", e.applied.Load)
	reg.CounterFunc("cscd_ops_coalesced_total", "edge ops cancelled by batch coalescing", e.coalesced.Load)
	reg.CounterFunc("cscd_ops_rejected_total", "edge ops dropped after admission", e.rejected.Load)
	reg.CounterFunc("cscd_ops_shed_total", "edge ops shed by the shed admission policy", e.shed.Load)
	reg.CounterFunc("cscd_ops_overload_total", "enqueues refused or abandoned on a full mailbox", e.overload.Load)
	reg.CounterFunc("cscd_batches_total", "update batches applied", e.batches.Load)
	reg.CounterFunc("cscd_snapshots_total", "full snapshots written", e.snaps.Load)
	reg.CounterFunc("cscd_wal_retries_total", "WAL appends retried after an error", e.walRetries.Load)

	reg.GaugeFunc("cscd_seq", "sequence number of the last applied batch", func() float64 { return float64(e.seq.Load()) })
	reg.GaugeFunc("cscd_queue_depth", "ops waiting in the update mailbox", func() float64 { return float64(len(e.mail)) })
	reg.GaugeFunc("cscd_mailbox_cap", "update mailbox capacity", func() float64 { return float64(cap(e.mail)) })
	reg.GaugeFunc("cscd_read_only", "1 while durability-lost read-only mode is engaged", func() float64 {
		if e.readOnly.Load() {
			return 1
		}
		return 0
	})
	if e.store != nil {
		reg.GaugeFunc("cscd_wal_bytes", "write-ahead log size in bytes", func() float64 { return float64(e.walBytes.Load()) })
	}
	reg.GaugeFunc("cscd_vertices", "vertices served", func() float64 { return float64(e.n) })
	reg.GaugeFunc("cscd_graph_edges", "edges in the served graph", func() float64 {
		m := e.lock.rlock(0)
		defer m.RUnlock()
		return float64(e.ix.Graph().NumEdges())
	})
	reg.GaugeFunc("cscd_label_entries", "hub label entries in the index", func() float64 {
		m := e.lock.rlock(0)
		defer m.RUnlock()
		return float64(e.ix.EntryCount())
	})
	reg.GaugeFunc("cscd_label_bytes", "logical hub label size in bytes: 8 per entry of the full labeling", func() float64 {
		m := e.lock.rlock(0)
		defer m.RUnlock()
		return float64(e.ix.Bytes())
	})
	reg.GaugeFunc("cscd_label_resident_bytes", "hub label bytes the label store physically holds: reduced shards store only the lists reads join", func() float64 {
		m := e.lock.rlock(0)
		defer m.RUnlock()
		return float64(e.ix.ResidentBytes())
	})
	reg.GaugeFunc("cscd_graph_bytes", "adjacency footprint in bytes: the global graph, and the subgraph and bipartite conversion of every shard that is not lean", func() float64 {
		m := e.lock.rlock(0)
		defer m.RUnlock()
		return float64(e.ix.GraphBytes())
	})
	reg.GaugeFunc("cscd_label_compressed_bytes", "compressed frozen-arena label footprint in bytes (0 when labels are uncompressed)", func() float64 {
		m := e.lock.rlock(0)
		defer m.RUnlock()
		return float64(e.ix.CompressedBytes())
	})
	reg.GaugeFunc("cscd_label_bytes_per_entry", "compressed label bytes per entry (0 when labels are uncompressed)", func() float64 {
		m := e.lock.rlock(0)
		defer m.RUnlock()
		n := e.ix.EntryCount()
		b := e.ix.CompressedBytes()
		if n == 0 || b == 0 {
			return 0
		}
		return float64(b) / float64(n)
	})
	reg.GaugeFunc("cscd_cache_slots", "result-cache entries: one per vertex in a shard, none for trivial vertices", func() float64 {
		m := e.lock.rlock(0)
		defer m.RUnlock()
		return float64(e.cacheSlots())
	})
	reg.CounterFunc("cscd_labels_refrozen_total", "thawed label lists folded back into the compressed arena at quiesce", e.refrozen.Load)
	reg.CounterFunc("cscd_bloom_checks_total", "joins over compressed labels screened by bloom signatures", func() uint64 {
		c, _ := label.BloomStats()
		return c
	})
	reg.CounterFunc("cscd_bloom_rejects_total", "joins over compressed labels rejected by bloom signatures without decoding an entry", func() uint64 {
		_, r := label.BloomStats()
		return r
	})
	// Runtime gauges read runtime/metrics, which unlike
	// runtime.ReadMemStats never stops the world.
	reg.GaugeFunc("cscd_heap_inuse_bytes", "Go heap bytes in live spans (mmap'd label arenas are file-backed and excluded)", func() float64 {
		return float64(readRuntime("/memory/classes/heap/objects:bytes", "/memory/classes/heap/unused:bytes"))
	})
	reg.GaugeFunc("cscd_heap_goal_bytes", "heap size at which the Go collector starts its next cycle", func() float64 {
		return float64(readRuntime("/gc/heap/goal:bytes"))
	})
	reg.CounterFunc("cscd_gc_cycles_total", "completed Go garbage-collection cycles", func() uint64 {
		return readRuntime("/gc/cycles/total:gc-cycles")
	})

	e.joinNS = reg.Histogram("cscd_query_join_seconds", "cache-miss label-join latency")
	e.boundedNS = reg.Histogram("cscd_query_bounded_seconds", "cache-miss bounded-query kernel latency")
	e.batchNS = reg.Histogram("cscd_batch_seconds", "whole-batch writer latency, coalesce through hooks")
	e.snapNS = reg.Histogram("cscd_snapshot_seconds", "full snapshot write latency")
	stages := reg.HistogramVec("cscd_batch_stage_seconds", "per-stage batch latency", "stage")
	e.stageNS = stageHists{
		coalesce: stages.With("coalesce"),
		wal:      stages.With("wal"),
		ship:     stages.With("ship"),
		plan:     stages.With("plan"),
		apply:    stages.With("apply"),
		rebuild:  stages.With("rebuild"),
		hooks:    stages.With("hooks"),
	}
	if e.store != nil {
		e.store.appendNS = reg.Histogram("cscd_wal_append_seconds", "WAL record append latency including fsync")
		e.store.fsyncNS = reg.Histogram("cscd_wal_fsync_seconds", "WAL fsync latency")
	}

	e.staleHist = reg.Histogram("cscd_oob_stale_seconds", "out-of-band rebuild freeze-to-swap stale window")
	e.oobRunNS = reg.Histogram("cscd_oob_rebuild_seconds", "out-of-band background rebuild run time")
	reg.GaugeFunc("cscd_degraded_shards", "shard slots currently serving stale answers", func() float64 {
		m := e.lock.rlock(0)
		defer m.RUnlock()
		return float64(len(e.ix.StaleShards()))
	})
	reg.CounterFunc("cscd_oob_rebuilds_total", "out-of-band rebuild components completed", func() uint64 {
		m := e.lock.rlock(0)
		defer m.RUnlock()
		c, _ := e.ix.OOBRebuilds()
		return uint64(c)
	})
	reg.CounterFunc("cscd_oob_superseded_total", "out-of-band rebuilds superseded before completing", func() uint64 {
		m := e.lock.rlock(0)
		defer m.RUnlock()
		_, s := e.ix.OOBRebuilds()
		return uint64(s)
	})
	reg.CounterFunc("cscd_reranks_total", "online hub re-rank rebuilds initiated", e.reranks.Load)
	// Per-shard footprint, one sample per live slot. Each collector takes
	// one shard-stats pass under a reader epoch — scrape-time only.
	shardStats := func() []csc.ShardStat {
		m := e.lock.rlock(0)
		defer m.RUnlock()
		return e.ix.ShardStats()
	}
	reg.Collect("cscd_shard_entries", "label entries per shard slot", "shard", func(emit func(string, float64)) {
		for _, s := range shardStats() {
			emit(strconv.Itoa(s.Slot), float64(s.Entries))
		}
	})
	reg.Collect("cscd_shard_label_bytes", "label bytes per shard slot", "shard", func(emit func(string, float64)) {
		for _, s := range shardStats() {
			emit(strconv.Itoa(s.Slot), float64(s.LabelBytes))
		}
	})
	reg.Collect("cscd_shard_vertices", "member vertices per shard slot", "shard", func(emit func(string, float64)) {
		for _, s := range shardStats() {
			emit(strconv.Itoa(s.Slot), float64(s.Vertices))
		}
	})
	reg.Collect("cscd_shard_rebuilds", "fresh index installs per shard slot", "shard", func(emit func(string, float64)) {
		for _, s := range shardStats() {
			emit(strconv.Itoa(s.Slot), float64(s.Rebuilds))
		}
	})
	reg.Collect("cscd_shard_order", "hub-order strategy wire id serving at each shard slot", "shard", func(emit func(string, float64)) {
		for _, s := range shardStats() {
			emit(strconv.Itoa(s.Slot), float64(s.Order))
		}
	})
	reg.Collect("cscd_shard_stale", "1 while the shard slot serves stale answers", "shard", func(emit func(string, float64)) {
		for _, s := range shardStats() {
			v := 0.0
			if s.Stale {
				v = 1
			}
			emit(strconv.Itoa(s.Slot), v)
		}
	})
}

// defaultTraceRing is the trace ring depth when metrics are enabled and
// Options.TraceRingSize is zero.
const defaultTraceRing = 64

// Metrics returns the engine's registry (nil when Options.Metrics was
// nil). The serve layer mounts /metrics over it.
func (e *Engine) Metrics() *obs.Registry { return e.opts.Metrics }

// Traces returns the recent batch-lifecycle traces, oldest first (nil
// without a trace ring). The serve layer's /debug/trace source.
func (e *Engine) Traces() []obs.BatchTrace { return e.trace.Snapshot() }

// recordBatch lands one applied batch in the stage histograms and the
// trace ring. Runs on the writer goroutine after the hooks; everything
// here is nil-safe, so the uninstrumented engine pays only the
// time.Now() reads in applyPending.
func (e *Engine) recordBatch(seq uint64, start time.Time, raw int, batch []Op, dirty []int,
	st pll.UpdateStats, deferred bool, waitNS, coalesceNS, walNS, shipNS, applyNS, hooksNS int64) {
	planNS := st.PlanDuration.Nanoseconds()
	rebuildNS := st.BuildDuration.Nanoseconds()
	e.stageNS.coalesce.Observe(coalesceNS)
	if e.store != nil {
		e.stageNS.wal.Observe(walNS)
	}
	if e.opts.Replication != nil {
		e.stageNS.ship.Observe(shipNS)
	}
	e.stageNS.plan.Observe(planNS)
	e.stageNS.apply.Observe(applyNS)
	e.stageNS.rebuild.Observe(rebuildNS)
	e.stageNS.hooks.Observe(hooksNS)
	e.batchNS.ObserveSince(start)
	if e.trace == nil {
		return
	}
	stages := []obs.Stage{
		{Name: "coalesce", DurNS: coalesceNS},
		{Name: "wal", DurNS: walNS},
	}
	// The ship stage appears only when a replication sink is attached, so
	// unreplicated deployments keep their six-stage traces.
	if e.opts.Replication != nil {
		stages = append(stages, obs.Stage{Name: "ship", DurNS: shipNS})
	}
	stages = append(stages,
		obs.Stage{Name: "plan", DurNS: planNS},
		obs.Stage{Name: "apply", DurNS: applyNS},
		obs.Stage{Name: "rebuild", DurNS: rebuildNS},
		obs.Stage{Name: "hooks", DurNS: hooksNS},
	)
	e.trace.Add(obs.BatchTrace{
		Seq:      seq,
		Kind:     "batch",
		Start:    start,
		Raw:      raw,
		Ops:      len(batch),
		Shards:   e.dirtyShards(dirty),
		Deferred: deferred,
		WaitNS:   waitNS,
		Stages:   stages,
		TotalNS:  time.Since(start).Nanoseconds(),
	})
}

// dirtyShards maps a batch's dirty vertices to the sorted shard slots
// they live in. Writer goroutine only.
func (e *Engine) dirtyShards(dirty []int) []int {
	seen := make(map[int]struct{})
	var out []int
	for _, v := range dirty {
		s := e.ix.ShardOf(v)
		if s < 0 {
			continue
		}
		if _, dup := seen[s]; dup {
			continue
		}
		seen[s] = struct{}{}
		out = append(out, s)
	}
	sort.Ints(out)
	return out
}

// readRuntime sums the named uint64 runtime/metrics samples (the
// heap-in-use pair adds up to MemStats.HeapInuse).
func readRuntime(names ...string) uint64 {
	samples := make([]metrics.Sample, len(names))
	for i, name := range names {
		samples[i].Name = name
	}
	metrics.Read(samples)
	var sum uint64
	for _, s := range samples {
		if s.Value.Kind() == metrics.KindUint64 {
			sum += s.Value.Uint64()
		}
	}
	return sum
}
