package label

import (
	"encoding/binary"
	"fmt"
	"slices"
	"sync/atomic"

	"repro/internal/bitpack"
)

// Frozen is the compressed, immutable form of a set of label lists: one
// delta+varint blob (bitpack's block codec) plus a raw little-endian
// uint32 offset table marking each list's section. Hubs are rank
// positions, so gaps are small and a typical entry costs 3-4 bytes
// against the arena's 8 (plus ArenaPad slots per list).
//
// Each list section is:
//
//	uvarint n                 entry count; an empty list is just "0"
//	byte    flags             bit0 = sig present, bit1 = sync present
//	8 bytes sig               hub-membership bloom signature (LE), when
//	                          n ≥ sigMinEntries
//	uvarint nsync             when n > bitpack.DeltaBlock
//	nsync × (u32 hub, u32 off)  per-block sync records: the block's
//	                          starting hub and its byte offset relative
//	                          to the entry stream — fixed width, binary
//	                          searchable, offsets list-relative so a
//	                          section copies verbatim between arenas
//	entry stream              bitpack.AppendDeltaBlocks encoding
//
// Queries read sections through cursors without materializing entries;
// the sync records keep the join kernels' seeks sub-linear. An arena is
// never written after it is built: its owner decodes the sections into
// mutable lists before the first label write.
//
// The blob and offset table may alias a read-only mmap'd file: nothing
// here ever writes through them. Decoding arbitrary (corrupt) bytes is
// panic-free — cursors stop at the first malformed varint; Validate
// performs the strict full-decode check used by the trusted-load path.
type Frozen struct {
	blob []byte
	off  []byte // raw LE uint32 × (lists+1); section i is blob[off[i]:off[i+1]]

	lists   int
	entries int // entries at freeze (or load) time

	// noStats keeps joins over these sections out of BloomStats (see
	// SkipBloomStats).
	noStats bool
}

const (
	flagSig  = 1 << 0
	flagSync = 1 << 1

	// sigMinEntries is the list length at which a bloom signature pays
	// for its 8 bytes: shorter lists join in a handful of comparisons
	// anyway, and on gap-compressed small lists the signature would
	// dominate the section size.
	sigMinEntries = 4

	// maxFrozenList bounds a decoded list length so a corrupt header
	// cannot drive a huge allocation.
	maxFrozenList = 1 << 27
)

// sigBit hashes a hub rank to one of the signature's 64 bits
// (Fibonacci multiplicative hashing on the top 6 bits).
func sigBit(hub int) uint64 {
	return 1 << ((uint64(hub) * 0x9E3779B97F4A7C15) >> 58)
}

// Bloom pre-screen telemetry: checks counts label-pair joins where both
// sides carried a signature, rejects how many of those were answered
// Unreachable from the signatures alone (no entry decoded).
var bloomChecks, bloomRejects atomic.Uint64

// BloomStats returns the cumulative bloom pre-screen counters.
func BloomStats() (checks, rejects uint64) {
	return bloomChecks.Load(), bloomRejects.Load()
}

// SkipBloomStats stops joins whose out-list lives in f from counting in
// BloomStats. The counters are shared by every reader in the process, so
// an arena on the default read path (a reduced index's stored lists)
// leaves them to the v3/v4 file arenas they report on.
func (f *Frozen) SkipBloomStats() { f.noStats = true }

// FreezeCompressed packs every list of the given groups, which must all
// be mutable, into a fresh compressed arena and re-points each list at
// its section: from then on the lists are read-only views that stream
// the compressed form.
func FreezeCompressed(groups ...[]List) *Frozen {
	lists, approx := 0, 0
	for _, g := range groups {
		lists += len(g)
		for i := range g {
			approx += 4 * g[i].Len()
		}
	}
	f := &Frozen{
		blob:  make([]byte, 0, approx+lists),
		off:   make([]byte, 0, 4*(lists+1)),
		lists: lists,
	}
	idx := int32(0)
	for _, g := range groups {
		for i := range g {
			l := &g[i]
			f.off = binary.LittleEndian.AppendUint32(f.off, uint32(len(f.blob)))
			f.entries += l.Len()
			f.blob = appendSection(f.blob, l.Entries())
			*l = List{fz: f, fi: idx}
			idx++
		}
	}
	f.off = binary.LittleEndian.AppendUint32(f.off, uint32(len(f.blob)))
	if slack := cap(f.blob) - len(f.blob); slack > len(f.blob)/16 {
		// The 4 B per entry estimate ran over: an arena is held for the
		// index's lifetime, so keep only the bytes it uses.
		f.blob = slices.Clone(f.blob)
	}
	return f
}

// appendSection encodes one list's section onto dst.
func appendSection(dst []byte, es []bitpack.Entry) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(es)))
	if len(es) == 0 {
		return dst
	}
	var flags byte
	if len(es) >= sigMinEntries {
		flags |= flagSig
	}
	if len(es) > bitpack.DeltaBlock {
		flags |= flagSync
	}
	dst = append(dst, flags)
	if flags&flagSig != 0 {
		var sig uint64
		for _, e := range es {
			sig |= sigBit(e.Hub())
		}
		dst = binary.LittleEndian.AppendUint64(dst, sig)
	}
	if flags&flagSync == 0 {
		return bitpack.AppendDeltaBlocks(dst, es, nil)
	}
	// One sync record per block, filled in while the stream is encoded
	// behind them. Room for the longest possible stream is reserved
	// first, so the records' bytes never move under the callback.
	nsync := (len(es) + bitpack.DeltaBlock - 1) / bitpack.DeltaBlock
	dst = binary.AppendUvarint(dst, uint64(nsync))
	dst = slices.Grow(dst, 8*nsync+maxEntryBytes*len(es))
	rec := len(dst)
	dst = dst[:rec+8*nsync]
	return bitpack.AppendDeltaBlocks(dst, es, func(hub, off uint32) {
		binary.LittleEndian.PutUint32(dst[rec:], hub)
		binary.LittleEndian.PutUint32(dst[rec+4:], off)
		rec += 8
	})
}

// maxEntryBytes bounds one entry's encoding: three uvarints of at most
// 23 (hub), 17 (distance) and 24 (count) bits.
const maxEntryBytes = 4 + 3 + 4

// NewFrozen wraps deserialized section bytes — the v3/v4 load path. off
// and blob may alias a read-only mapping, which NewFrozen neither copies
// nor decodes in full: it checks the offset invariants and sums every
// section's header entry count for the caller to cross-check against
// the file's total. That reads the first bytes of every section, so an
// mmap'd load touches each label page once; what it skips is the copy
// and the strict per-entry decode. Call Validate for that decode, as
// stream loads do.
func NewFrozen(off, blob []byte) (*Frozen, error) {
	if len(off) < 8 || len(off)%4 != 0 {
		return nil, fmt.Errorf("label: frozen offset table of %d bytes", len(off))
	}
	lists := len(off)/4 - 1
	prev := binary.LittleEndian.Uint32(off)
	if prev != 0 {
		return nil, fmt.Errorf("label: frozen offsets start at %d", prev)
	}
	for i := 1; i <= lists; i++ {
		o := binary.LittleEndian.Uint32(off[4*i:])
		if o < prev || int(o) > len(blob) {
			return nil, fmt.Errorf("label: frozen offset %d of %d out of order", i, lists)
		}
		prev = o
	}
	if int(prev) != len(blob) {
		return nil, fmt.Errorf("label: frozen blob is %d bytes, offsets end at %d", len(blob), prev)
	}
	f := &Frozen{blob: blob, off: off, lists: lists}
	for i := int32(0); i < int32(lists); i++ {
		f.entries += f.listLen(i)
	}
	return f, nil
}

// Section returns a read-only view of section i by value: a list that
// streams the section, for an owner that keeps no List headers (a lean
// index, see pll). Reading it through Join, Each, Len, Lookup or
// AppendTo allocates nothing; a mutating call panics.
func (f *Frozen) Section(i int) List { return List{fz: f, fi: int32(i)} }

// Lists returns the number of sections.
func (f *Frozen) Lists() int { return f.lists }

// Entries returns the number of live entries at freeze (or load) time.
func (f *Frozen) Entries() int { return f.entries }

// Bytes returns the compressed footprint: blob plus offset table.
func (f *Frozen) Bytes() int { return len(f.blob) + len(f.off) }

// Raw exposes the arena's backing bytes: the raw little-endian offset
// table and the section blob, the form NewFrozen takes back. Callers
// must not write through them.
func (f *Frozen) Raw() (off, blob []byte) { return f.off, f.blob }

func (f *Frozen) offAt(i int32) int {
	return int(binary.LittleEndian.Uint32(f.off[4*i:]))
}

func (f *Frozen) section(i int32) []byte {
	return f.blob[f.offAt(i):f.offAt(i+1)]
}

// header parses list i's section header. Corrupt headers parse as empty
// — cursors and decodes degrade gracefully; Validate rejects them loudly.
func (f *Frozen) header(i int32) (n int, sig uint64, hasSig bool, sync, ent []byte) {
	sp := f.section(i)
	v, w := binary.Uvarint(sp)
	if w <= 0 || v == 0 || v > maxFrozenList || int(v) > 3*len(sp) {
		return 0, 0, false, nil, nil
	}
	n = int(v)
	pos := w
	if pos >= len(sp) {
		return 0, 0, false, nil, nil
	}
	flags := sp[pos]
	pos++
	if flags&flagSig != 0 {
		if pos+8 > len(sp) {
			return 0, 0, false, nil, nil
		}
		sig = binary.LittleEndian.Uint64(sp[pos:])
		hasSig = true
		pos += 8
	}
	if flags&flagSync != 0 {
		ns, w := binary.Uvarint(sp[pos:])
		if w <= 0 {
			return 0, 0, false, nil, nil
		}
		pos += w
		if ns > uint64(len(sp)/8)+1 || pos+int(ns)*8 > len(sp) {
			return 0, 0, false, nil, nil
		}
		sync = sp[pos : pos+int(ns)*8]
		pos += int(ns) * 8
	}
	return n, sig, hasSig, sync, sp[pos:]
}

// listLen returns list i's entry count without decoding entries.
func (f *Frozen) listLen(i int32) int {
	n, _, _, _, _ := f.header(i)
	return n
}

// Validate fully decodes every section and re-encodes it, rejecting
// anything that is truncated, non-canonical, out of hub range, or
// carries flags inconsistent with its length. The stream-load path runs
// this so a frozen index on the trusted path is exactly what
// FreezeCompressed would have produced.
func (f *Frozen) Validate(maxHub int) error {
	var scratch []bitpack.Entry
	for i := int32(0); i < int32(f.lists); i++ {
		sp := f.section(i)
		if len(sp) == 0 {
			return fmt.Errorf("label: frozen list %d: empty section", i)
		}
		v, w := binary.Uvarint(sp)
		if w <= 0 || v > maxFrozenList || int(v) > 3*len(sp) {
			return fmt.Errorf("label: frozen list %d: bad count", i)
		}
		if v == 0 {
			if len(sp) != w {
				return fmt.Errorf("label: frozen list %d: trailing bytes on empty list", i)
			}
			continue
		}
		n, _, _, _, ent := f.header(i)
		if n == 0 {
			return fmt.Errorf("label: frozen list %d: malformed header", i)
		}
		scratch = scratch[:0]
		consumed, ok := bitpack.DecodeDeltaBlocks(ent, n, func(e bitpack.Entry) bool {
			scratch = append(scratch, e)
			return true
		})
		if !ok || consumed != len(ent) {
			return fmt.Errorf("label: frozen list %d: truncated or trailing entry stream", i)
		}
		if last := scratch[len(scratch)-1].Hub(); last >= maxHub && maxHub >= 0 {
			return fmt.Errorf("label: frozen list %d: hub %d out of range [0,%d)", i, last, maxHub)
		}
		// Canonical check: the section must be byte-identical to a fresh
		// encoding — this pins sig and sync correctness in one shot and
		// guarantees re-serialization stability.
		want := appendSection(nil, scratch)
		if len(want) != len(sp) || string(want) != string(sp) {
			return fmt.Errorf("label: frozen list %d: non-canonical section", i)
		}
	}
	return nil
}

// fcursor streams one frozen section in hub order without materializing
// it. The zero value is exhausted; init with cursor().
type fcursor struct {
	ent    []byte // entry stream
	sync   []byte // per-block records, nil for short lists
	n      int    // total entries
	idx    int    // entries consumed (cur is entry idx-1)
	pos    int    // byte position of the next entry
	hub    int    // cur's hub (delta base)
	cur    bitpack.Entry
	ok     bool
	hasSig bool   // the section carries a bloom signature
	stats  bool   // joins over the section count in BloomStats
	sig    uint64 // the section's bloom signature, when hasSig
}

// cursor opens a streaming cursor over list i, positioned on the first
// entry (ok is false for an empty list).
func (f *Frozen) cursor(i int32) fcursor {
	var c fcursor
	c.n, c.sig, c.hasSig, c.sync, c.ent = f.header(i)
	c.stats = !f.noStats
	c.next()
	return c
}

// next advances to the following entry. A malformed stream exhausts the
// cursor instead of panicking.
func (c *fcursor) next() {
	if c.idx >= c.n {
		c.ok = false
		return
	}
	// Fast path: gap, distance and count each fit one byte, as most
	// entries' do. One-byte values are far below every field limit.
	if p := c.pos; p+2 < len(c.ent) && (c.ent[p]|c.ent[p+1]|c.ent[p+2]) < 0x80 {
		v := int(c.ent[p])
		if c.idx%bitpack.DeltaBlock == 0 {
			c.hub = v
		} else if v == 0 {
			c.ok = false
			return
		} else if c.hub += v; c.hub > bitpack.MaxHub {
			c.ok = false
			return
		}
		c.pos = p + 3
		c.cur = bitpack.Pack(c.hub, int(c.ent[p+1]), uint64(c.ent[p+2]))
		c.idx++
		c.ok = true
		return
	}
	v, w := binary.Uvarint(c.ent[c.pos:])
	if w <= 0 || v > bitpack.MaxHub {
		c.ok = false
		return
	}
	c.pos += w
	if c.idx%bitpack.DeltaBlock == 0 {
		c.hub = int(v)
	} else {
		if v == 0 {
			c.ok = false
			return
		}
		c.hub += int(v)
	}
	if c.hub > bitpack.MaxHub {
		c.ok = false
		return
	}
	d, w := binary.Uvarint(c.ent[c.pos:])
	if w <= 0 || d > bitpack.MaxDist {
		c.ok = false
		return
	}
	c.pos += w
	cnt, w := binary.Uvarint(c.ent[c.pos:])
	if w <= 0 || cnt > bitpack.MaxCount {
		c.ok = false
		return
	}
	c.pos += w
	c.cur = bitpack.Pack(c.hub, int(d), cnt)
	c.idx++
	c.ok = true
}

// drain appends the current entry and every later one to dst and
// exhausts the cursor; a malformed stream ends the list early, as next
// does.
func (c *fcursor) drain(dst []bitpack.Entry) []bitpack.Entry {
	for ; c.ok; c.next() {
		dst = append(dst, c.cur)
	}
	return dst
}

// seekGE advances the cursor to the first entry with hub ≥ target. With
// sync records it binary-searches the remaining blocks and decodes at
// most one block linearly; without them the list is at most one block
// long anyway.
func (c *fcursor) seekGE(target int) {
	if !c.ok || c.cur.Hub() >= target {
		return
	}
	if curBlk := (c.idx - 1) / bitpack.DeltaBlock; c.sync != nil && 8*(curBlk+1) < len(c.sync) &&
		int(binary.LittleEndian.Uint32(c.sync[8*(curBlk+1):])) <= target {
		// The target lies past the current block: find the last block
		// whose starting hub is ≤ target. A target inside the current
		// block (most seeks of a merge) just decodes forward.
		lo, hi := curBlk+1, len(c.sync)/8 // invariant: blkHub(lo) ≤ target < blkHub(hi)
		for lo+1 < hi {
			mid := int(uint(lo+hi) >> 1)
			if int(binary.LittleEndian.Uint32(c.sync[8*mid:])) <= target {
				lo = mid
			} else {
				hi = mid
			}
		}
		c.pos = int(binary.LittleEndian.Uint32(c.sync[8*lo+4:]))
		c.idx = lo * bitpack.DeltaBlock
		c.next()
	}
	for c.ok && c.cur.Hub() < target {
		c.next()
	}
}
