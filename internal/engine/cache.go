package engine

import (
	"sync/atomic"

	"repro/internal/bfscount"
	"repro/internal/bitpack"
	"repro/internal/csc"
)

// readCache is the engine's epoch-tagged cycle-count cache, keyed by
// shard: one entry array per shard slot, indexed by the vertex's local
// id there, so the cache is sized by the vertices that lie on a cycle,
// not by n. A trivial vertex (in no shard) has no entry: get answers it
// NoCycle from its slot alone, which is exactly the index's own answer,
// and reports a hit. Each entry holds a packed (length, count)
// value, its fill epoch, and a dirty epoch the writer bumps at batch
// commit. A cached answer serves a /cycle read in O(1) — no label join
// at all — and stays valid until a batch dirties exactly that vertex.
//
// Concurrency protocol (the correctness argument, not just a lock list):
//
//   - Readers resolve (slot, local id) and call get/put only while
//     holding their vertex's stripe read-lock. The index mutates its
//     slot table only inside the grace period, so the key a reader uses
//     is the post-batch key of the last applied batch. A fill's value is
//     computed and stored inside one reader epoch, during which no batch
//     can apply — a stored value is always current as of the last
//     applied batch, never a stale value stored late.
//   - The writer reshapes the cache (sync) and bumps dirtyAt
//     (invalidate) only under the full grace period (every stripe
//     write-locked), so readers observe the slot arrays and dirty epochs
//     through the stripe lock's happens-before edge; no atomics needed
//     on either.
//   - A slot whose install generation changed since the last sync — its
//     shard was rebuilt, or the slot was reused by another shard — gets
//     fresh all-miss arrays. A reinstalled shard's members are all in
//     the batch's dirty set anyway, so no valid hit is lost; a retired
//     slot's arrays are dropped.
//   - An entry hits when its fill epoch postdates its dirty epoch.
//     invalidate maps each dirty vertex to its post-batch key and writes
//     one plain word — the value itself is never cleared, its epoch just
//     expires. A dirty vertex that left every shard needs no write.
//   - Concurrent fills of the same vertex race only against fills of
//     the same epoch interval, which all carry identical values (the
//     answer is a pure function of the labels, and labels only change
//     under the grace period); the atomics are for the race detector
//     and torn-word safety, not for ordering between different values.
//
// Epochs are engine batch sequence numbers, full 64-bit — no wrap.
type readCache struct {
	slots []cacheSlot // indexed by shard slot
	size  int         // entries across all slots
}

// cacheSlot is one shard slot's entries, made for install generation gen.
type cacheSlot struct {
	gen     uint64
	entries []cacheEntry
}

type cacheEntry struct {
	// fillAt = seq+1 of the last applied batch at fill time; 0 = never
	// filled.
	fillAt atomic.Uint64
	// val = packed (length+1)<<24 | count; length+1 == 0 encodes "no
	// cycle". Lengths are at most (bitpack.MaxDist+1)/2 and counts at
	// most bitpack.MaxCount, so the pair fits comfortably under 64 bits.
	val atomic.Uint64
	// dirtyAt = sequence number of the last batch that dirtied the
	// vertex. Writer-owned: written only under the grace period.
	dirtyAt uint64
}

func newReadCache(ix *csc.Sharded) *readCache {
	c := &readCache{}
	c.sync(ix)
	return c
}

// sync reshapes the cache to the index's slot table: fresh arrays for
// every slot installed since the last sync, none for retired slots. Must
// run under the grace period (all stripes locked), after every index
// mutation and before invalidate.
func (c *readCache) sync(ix *csc.Sharded) {
	for len(c.slots) < ix.NumSlots() {
		c.slots = append(c.slots, cacheSlot{})
	}
	c.size = 0
	for s := range c.slots {
		gen, size := ix.SlotGen(s)
		cs := &c.slots[s]
		switch {
		case size == 0:
			cs.entries = nil
		case cs.entries == nil || cs.gen != gen:
			cs.gen, cs.entries = gen, make([]cacheEntry, size)
		}
		c.size += len(cs.entries)
	}
}

// get returns the cached answer for the vertex at (slot, local), valid
// only while the caller holds the vertex's stripe read-lock. A trivial
// vertex (slot < 0) always hits with no cycle, reading no entry.
func (c *readCache) get(slot, local int32) (length int, count uint64, ok bool) {
	if slot < 0 {
		return bfscount.NoCycle, 0, true
	}
	en := &c.slots[slot].entries[local]
	f := en.fillAt.Load()
	if f == 0 || f-1 < en.dirtyAt {
		return 0, 0, false
	}
	packed := en.val.Load()
	lp := packed >> bitpack.CountBits
	if lp == 0 {
		return bfscount.NoCycle, 0, true
	}
	return int(lp) - 1, packed & bitpack.MaxCount, true
}

// put stores the answer computed for the vertex at (slot, local) under
// its stripe read-lock, tagged with the fill epoch (the last applied
// batch's sequence number). The value is stored before the epoch so a
// concurrent get that observes the epoch observes a value of the same
// epoch interval.
func (c *readCache) put(slot, local int32, seq uint64, length int, count uint64) {
	var packed uint64
	if length != bfscount.NoCycle {
		packed = uint64(length+1)<<bitpack.CountBits | count
	}
	en := &c.slots[slot].entries[local]
	en.val.Store(packed)
	en.fillAt.Store(seq + 1)
}

// invalidate expires every dirty vertex's entry as of batch seq, keyed
// by its post-batch slot. Must run under the grace period, after sync.
func (c *readCache) invalidate(ix *csc.Sharded, dirty []int, seq uint64) {
	for _, v := range dirty {
		if slot, local := ix.Locate(v); slot >= 0 {
			c.slots[slot].entries[local].dirtyAt = seq
		}
	}
}
