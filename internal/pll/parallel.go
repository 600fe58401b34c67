package pll

import (
	"runtime"
	"sync"
	"sync/atomic"

	"repro/internal/label"
)

// Scheme describes one rank-ordered hub-labeling construction so the
// batched driver can run it. Both the generic engine (genericScheme) and
// the couple-vertex-skipping construction in internal/csc implement it:
// a hub runs exactly two BFS passes (forward/in then backward/out), each
// expressible as a speculative pass that stages its appends.
type Scheme interface {
	// IsHub reports whether the vertex at rank r runs hub BFSes. Non-hub
	// ranks only receive self labels.
	IsHub(r int) bool
	// SelfLabels commits the self labels of the non-hub vertex at rank r.
	SelfLabels(r int)
	// RunPass runs pass 0 or 1 of the hub at rank r speculatively against
	// the current labels, with private scratch, staging every append.
	RunPass(r, pass int, s *Scratch, st *Stage)
	// Anchor returns the hub-side list the pass's prune test scatters and
	// the amount its distances are raised by when scattered — used to
	// re-validate staged entries against the merged labels.
	Anchor(r, pass int) (l *label.List, shift int)
}

// hubPasses is the number of BFS passes per hub in both schemes.
const hubPasses = 2

// Batching knobs. The first seqPrefixRanks hubs run sequentially: the
// top-ranked hubs generate the labels everything below prunes on, so
// speculating on them mostly produces reruns. After the prefix, batch
// sizes start at the worker count and double up to maxBatchFactor×workers,
// amortizing the per-batch barrier as interference tails off down-rank.
const (
	seqPrefixRanks = 16
	maxBatchFactor = 8
)

// RunConstruction executes the scheme over all ranks in rank order.
// workers ≤ 1 runs fully sequentially; otherwise hubs are processed in
// rank-ordered batches: workers run the passes of a batch speculatively
// with private scratch, then a deterministic merge walks the batch in rank
// order, re-validating each stage against the merged labels and committing
// it — or discarding it and re-running the pass sequentially when an
// in-batch label would have changed the pass's pruning. Either way the
// committed labels are byte-identical to a sequential construction.
func (idx *Index) RunConstruction(sch Scheme, workers int) {
	if workers == 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	n := idx.Ord.Len()
	var st Stage
	scr := idx.scratch()
	if workers <= 1 || n <= seqPrefixRanks {
		for r := 0; r < n; r++ {
			idx.buildRank(sch, r, scr, &st)
		}
		return
	}

	for r := 0; r < seqPrefixRanks; r++ {
		idx.buildRank(sch, r, scr, &st)
	}

	scratches := make([]*Scratch, workers)
	for i := range scratches {
		scratches[i] = GetScratch(n)
	}
	defer func() {
		for _, s := range scratches {
			PutScratch(s)
		}
	}()
	var stages []Stage

	lo, batch := seqPrefixRanks, workers
	for lo < n {
		hi := lo + batch
		if hi > n {
			hi = n
		}
		tasks := (hi - lo) * hubPasses
		if cap(stages) < tasks {
			grown := make([]Stage, tasks)
			copy(grown, stages) // keep the ops buffers already allocated
			stages = grown
		}
		stages = stages[:tasks]

		// Speculation phase: workers drain the batch's (rank, pass) tasks.
		// Labels are frozen for the whole phase — stages are the only
		// writes — so concurrent reads are race-free.
		var next atomic.Int64
		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func(s *Scratch) {
				defer wg.Done()
				for {
					t := int(next.Add(1)) - 1
					if t >= tasks {
						return
					}
					r, pass := lo+t/hubPasses, t%hubPasses
					if !sch.IsHub(r) {
						continue
					}
					sch.RunPass(r, pass, s, &stages[t])
				}
			}(scratches[w])
		}
		wg.Wait()

		// Deterministic merge in rank order.
		for r := lo; r < hi; r++ {
			if !sch.IsHub(r) {
				sch.SelfLabels(r)
				continue
			}
			for pass := 0; pass < hubPasses; pass++ {
				spec := &stages[(r-lo)*hubPasses+pass]
				anchor, shift := sch.Anchor(r, pass)
				if idx.validateCommit(anchor, shift, spec, scr) {
					continue
				}
				// An in-batch label invalidated the speculation: rebuild
				// this pass against the merged (exact) label state.
				idx.reruns++
				sch.RunPass(r, pass, scr, spec)
				idx.commitTrusted(spec)
			}
		}

		lo = hi
		if batch < maxBatchFactor*workers {
			batch *= 2
		}
	}
}

// buildRank processes one rank sequentially: self labels for non-hubs,
// both passes (staged against live labels, then committed) for hubs.
func (idx *Index) buildRank(sch Scheme, r int, scr *Scratch, st *Stage) {
	if !sch.IsHub(r) {
		sch.SelfLabels(r)
		return
	}
	for pass := 0; pass < hubPasses; pass++ {
		sch.RunPass(r, pass, scr, st)
		idx.commitTrusted(st)
	}
}
