package csc

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"fmt"
	"io"
	"os"

	"repro/internal/bipartite"
	"repro/internal/bitpack"
	"repro/internal/graph"
	"repro/internal/label"
	"repro/internal/order"
	"repro/internal/partition"
	"repro/internal/pll"
)

// Sharded binary format v3 (little endian): the compressed-label form of
// v2. The structural layout is flat — no embedded self-delimiting blobs —
// so a single parse over one byte slice computes every section's offsets
// without copying, which is what lets the label bytes alias a read-only
// mmap of the file: a cold daemon validates the (small) graph and shard
// table up front and serves queries while label pages fault in on demand.
//
//	magic    [8]byte  "CSCIDX03"
//	n        uint32   global vertex count
//	m        uint32   global edge count
//	strategy uint8
//	edges    m × (uint32, uint32)
//	shards   uint32   number of non-trivial components
//	per shard, ordered by smallest member vertex:
//	  size    uint32  member count (≥ 2)
//	  verts   size × uint32, strictly increasing (position = local id)
//	  nb      uint32  Gb vertex count of the converted subgraph (= 2·size)
//	  mb      uint32  Gb edge count
//	  gbedges mb × (uint32, uint32)
//	  order   nb × uint32           vertexAt, highest rank first
//	  entries uint64                total label entries (cross-check)
//	  off     4·(2·nb+1) bytes      label.Frozen offset table, raw LE
//	  bloblen uint64
//	  blob    bloblen bytes         label.Frozen section blob
//
// Label lists are ordered In[0..nb) then Out[0..nb) — the order
// pll.Index.FreezeCompressed packs and AttachFrozen expects. Stream loads
// (csc.Read) run the strict full decode over every label section; mmap
// loads check only the structural invariants so label pages stay cold.
//
// Format v4 ("CSCIDX04") is v3 plus ordering-strategy provenance: one
// global order-strategy byte after the maintenance strategy byte, and
// one per-shard order-strategy byte immediately before each shard's
// order vector — so a loaded index knows which strategy produced each
// shard's hub order (the order itself always round-trips explicitly).
// The writer emits v3 whenever every strategy is degree, so indexes
// built with the defaults stay byte-identical to pre-v4 files; readers
// accept both.

const (
	v3Magic = "CSCIDX03"
	v4Magic = "CSCIDX04"
)

// needsOrderTags reports whether any ordering provenance would be lost
// without order tags (v4 rather than v3, tagged rather than plain v2) —
// a non-degree build default, or any live shard carrying a non-degree
// order tag.
func (x *Sharded) needsOrderTags() bool {
	if x.opts.Order != order.Degree {
		return true
	}
	for _, sh := range x.shards {
		if sh != nil && sh.strat != order.Degree {
			return true
		}
	}
	return false
}

// writeV34 serializes the sharded index with compressed label arenas, as
// v4 when ordering provenance needs recording and byte-stable v3
// otherwise. Shards whose updates thawed lists re-freeze first (verbatim
// section copies for the untouched lists), so the written arena is
// current. A shard that is not compressed (a lean or written shard of
// an index whose options turned compression on) is compressed here,
// which gives a lean one its write form, Gb included.
func (x *Sharded) writeV34(w io.Writer) (int64, error) {
	v4 := x.needsOrderTags()
	e := pll.NewEncoder(w)
	magic := v3Magic
	if v4 {
		magic = v4Magic
	}
	e.Bytes([]byte(magic))
	e.U32(uint32(x.g.NumVertices()))
	e.U32(uint32(x.g.NumEdges()))
	e.U8(uint8(x.opts.Strategy))
	if v4 {
		e.U8(uint8(x.opts.Order))
	}
	e.Edges(x.g)
	live := x.liveShards()
	e.U32(uint32(len(live)))
	for _, sh := range live {
		e.U32(uint32(len(sh.verts)))
		for _, v := range sh.verts {
			e.U32(uint32(v))
		}
		eng := sh.idx.eng
		if !eng.Compressed() {
			x.subgraph(sh) // a lean shard converts it for its Gb
			eng.FreezeCompressed()
		}
		eng.Refreeze()
		nb := eng.G.NumVertices()
		e.U32(uint32(nb))
		e.U32(uint32(eng.G.NumEdges()))
		e.Edges(eng.G)
		if v4 {
			e.U8(uint8(sh.strat))
		}
		for r := 0; r < nb; r++ {
			e.U32(uint32(eng.Ord.VertexAt(r)))
		}
		f := eng.FrozenArena()
		off, blob := f.Raw()
		e.U64(uint64(f.Entries()))
		e.Bytes(off)
		e.U64(uint64(len(blob)))
		e.Bytes(blob)
	}
	return e.Flush()
}

// v3parser walks a v3 byte image with bounds-checked reads; take slices
// alias the image (zero-copy — the point of the flat layout).
type v3parser struct {
	data []byte
	pos  int
}

func (p *v3parser) take(n int) ([]byte, error) {
	if n < 0 || p.pos+n > len(p.data) || p.pos+n < p.pos {
		return nil, fmt.Errorf("%w: truncated at byte %d", pll.ErrBadFormat, p.pos)
	}
	b := p.data[p.pos : p.pos+n]
	p.pos += n
	return b, nil
}

func (p *v3parser) u32() (uint32, error) {
	b, err := p.take(4)
	if err != nil {
		return 0, err
	}
	return binary.LittleEndian.Uint32(b), nil
}

func (p *v3parser) u64() (uint64, error) {
	b, err := p.take(8)
	if err != nil {
		return 0, err
	}
	return binary.LittleEndian.Uint64(b), nil
}

// pairs reads m edge records of two uint32s each as flat pairs for
// graph.FromPairs. The image is in memory, so a count past its end fails
// before anything is allocated for it.
func (p *v3parser) pairs(m int) ([]int32, error) {
	b, err := p.take(8 * m)
	if err != nil {
		return nil, err
	}
	pairs := make([]int32, 2*m)
	for i := range pairs {
		pairs[i] = int32(binary.LittleEndian.Uint32(b[4*i:]))
	}
	return pairs, nil
}

// parseV34 loads a complete v3 or v4 image (dispatching on the magic).
// With lazyLabels the label sections are only structurally checked
// (offset-table invariants), never decoded — the mmap cold-start path;
// stream loads pass false and get the full strict per-entry validation.
func parseV34(data []byte, lazyLabels bool) (*Sharded, error) {
	bad := func(format string, args ...any) error {
		return fmt.Errorf("%w: %s", pll.ErrBadFormat, fmt.Sprintf(format, args...))
	}
	p := &v3parser{data: data}
	magic, err := p.take(8)
	if err != nil {
		return nil, err
	}
	v4 := string(magic) == v4Magic
	if !v4 && string(magic) != v3Magic {
		return nil, bad("bad magic %q", magic)
	}
	n32, err := p.u32()
	if err != nil {
		return nil, err
	}
	m32, err := p.u32()
	if err != nil {
		return nil, err
	}
	sb, err := p.take(1)
	if err != nil {
		return nil, err
	}
	strat := pll.Strategy(sb[0])
	ostrat := order.Degree
	if v4 {
		ob, err := p.take(1)
		if err != nil {
			return nil, err
		}
		ostrat = order.Strategy(ob[0])
		if !ostrat.Valid() {
			return nil, bad("unknown order strategy %d", ob[0])
		}
	}
	n, m := int(n32), int(m32)
	if n > maxShardedVertices {
		return nil, bad("vertex count %d exceeds limit %d", n, maxShardedVertices)
	}
	if strat != pll.Redundancy && strat != pll.Minimality {
		return nil, bad("unknown strategy %d", sb[0])
	}
	if int64(m32) > int64(n)*int64(n-1) {
		return nil, bad("edge count %d impossible for %d vertices", m, n)
	}
	pairs, err := p.pairs(m)
	if err != nil {
		return nil, bad("truncated edges")
	}
	g, err := graph.FromPairs(n, pairs)
	if err != nil {
		return nil, bad("%v", err)
	}
	shardCount, err := p.u32()
	if err != nil {
		return nil, bad("truncated shard table")
	}
	if int(shardCount) > n/2 {
		return nil, bad("%d shards impossible for %d vertices", shardCount, n)
	}

	x := &Sharded{g: g, opts: Options{Strategy: strat, CompressLabels: true, Order: ostrat}}
	for sid := 0; sid < int(shardCount); sid++ {
		size32, err := p.u32()
		if err != nil {
			return nil, bad("truncated shard %d header", sid)
		}
		size := int(size32)
		if size < 2 || size > n {
			return nil, bad("shard %d has %d vertices", sid, size)
		}
		verts := make([]int32, size)
		prev := int32(-1)
		for i := range verts {
			v, err := p.u32()
			if err != nil {
				return nil, bad("truncated shard %d members", sid)
			}
			if int(v) >= n || int32(v) <= prev {
				return nil, bad("shard %d member %d out of order or range", sid, v)
			}
			prev = int32(v)
			verts[i] = int32(v)
		}
		nb32, err := p.u32()
		if err != nil {
			return nil, bad("truncated shard %d body", sid)
		}
		nb := int(nb32)
		if nb != 2*size {
			return nil, bad("shard %d Gb has %d vertices for %d members", sid, nb, size)
		}
		if nb > bitpack.MaxHub+1 {
			return nil, bad("shard %d Gb vertex count %d exceeds encoding limit", sid, nb)
		}
		mb32, err := p.u32()
		if err != nil {
			return nil, bad("truncated shard %d body", sid)
		}
		if int64(mb32) > int64(nb)*int64(nb-1) {
			return nil, bad("shard %d Gb edge count %d impossible", sid, mb32)
		}
		gbPairs, err := p.pairs(int(mb32))
		if err != nil {
			return nil, bad("truncated shard %d Gb edges", sid)
		}
		gb, err := graph.FromPairs(nb, gbPairs)
		if err != nil {
			return nil, bad("shard %d Gb %v", sid, err)
		}
		shardStrat := order.Degree
		if v4 {
			ob, err := p.take(1)
			if err != nil {
				return nil, bad("truncated shard %d order strategy", sid)
			}
			shardStrat = order.Strategy(ob[0])
			if !shardStrat.Valid() {
				return nil, bad("shard %d unknown order strategy %d", sid, ob[0])
			}
		}
		vertexAt := make([]int, nb)
		for r := range vertexAt {
			v, err := p.u32()
			if err != nil {
				return nil, bad("truncated shard %d order", sid)
			}
			if int(v) >= nb {
				return nil, bad("shard %d order vertex %d out of range", sid, v)
			}
			vertexAt[r] = int(v)
		}
		ord, err := order.FromVertexList(vertexAt)
		if err != nil {
			return nil, bad("shard %d order: %v", sid, err)
		}
		entries, err := p.u64()
		if err != nil {
			return nil, bad("truncated shard %d label header", sid)
		}
		off, err := p.take(4 * (2*nb + 1))
		if err != nil {
			return nil, bad("truncated shard %d offset table", sid)
		}
		blobLen, err := p.u64()
		if err != nil {
			return nil, bad("truncated shard %d label header", sid)
		}
		if blobLen > uint64(len(data)) {
			return nil, bad("shard %d blob of %d bytes overruns the file", sid, blobLen)
		}
		blob, err := p.take(int(blobLen))
		if err != nil {
			return nil, bad("truncated shard %d label blob", sid)
		}
		f, err := label.NewFrozen(off, blob)
		if err != nil {
			return nil, fmt.Errorf("%w: shard %d: %v", pll.ErrBadFormat, sid, err)
		}
		if uint64(f.Entries()) != entries {
			return nil, bad("shard %d arena holds %d entries, header says %d", sid, f.Entries(), entries)
		}
		if !lazyLabels {
			if err := f.Validate(nb); err != nil {
				return nil, fmt.Errorf("%w: shard %d: %v", pll.ErrBadFormat, sid, err)
			}
		}
		eng := pll.NewEmpty(gb, ord)
		eng.Strategy = strat
		eng.HubFilter = bipartite.IsIn
		if err := eng.AttachFrozen(f); err != nil {
			return nil, fmt.Errorf("%w: shard %d: %v", pll.ErrBadFormat, sid, err)
		}
		sub, err := originalFromGb(gb)
		if err != nil {
			return nil, fmt.Errorf("shard %d: %w", sid, err)
		}
		if sub.NumVertices() != size {
			return nil, bad("shard %d labeling covers %d vertices, table says %d", sid, sub.NumVertices(), size)
		}
		if !graph.Equal(sub, partition.Induced(g, verts)) {
			return nil, bad("shard %d subgraph does not match the global graph", sid)
		}
		x.shards = append(x.shards, &shard{verts: verts, idx: &Index{g: sub, eng: eng}, strat: shardStrat})
	}
	if p.pos != len(data) {
		return nil, bad("%d trailing bytes", len(data)-p.pos)
	}
	if x.dir, err = newDirectory(n, x.shards); err != nil {
		return nil, bad("%v", err)
	}
	// The shard table must be exactly the graph's non-trivial SCCs, the
	// same invariant readSharded enforces.
	comps := partition.SCC(g).NonTrivial()
	live := x.liveShards()
	if len(comps) != len(live) {
		return nil, bad("shard table has %d components, graph has %d", len(live), len(comps))
	}
	for i, comp := range comps {
		sv := live[i].verts
		if len(comp) != len(sv) {
			return nil, bad("shard %d size mismatch with SCC decomposition", i)
		}
		for j := range comp {
			if comp[j] != sv[j] {
				return nil, bad("shard %d member mismatch with SCC decomposition", i)
			}
		}
	}
	return x, nil
}

// readV34 loads a v3/v4 stream: the image is read fully and labels are
// strictly validated (the trusted path — use ReadFile with mmap for the
// lazy form).
func readV34(br *bufio.Reader) (*Sharded, error) {
	data, err := io.ReadAll(br)
	if err != nil {
		return nil, fmt.Errorf("%w: %v", pll.ErrBadFormat, err)
	}
	return parseV34(data, false)
}

// ReadFile loads an index file. With useMmap and a v3/v4 file, the label
// sections alias a read-only mapping of the file and are only
// structurally checked: queries serve immediately and label pages fault
// in on first touch. The mapping lives for the process lifetime (it backs
// live label sections) and is deliberately never unmapped. Other formats
// and platforms without mmap support fall back to a normal strict read.
func ReadFile(path string, useMmap bool) (Counter, error) {
	if useMmap {
		if data, err := mmapFile(path); err == nil {
			if len(data) >= 8 && (string(data[:8]) == v3Magic || string(data[:8]) == v4Magic) {
				return parseV34(data, true)
			}
			// Not a flat image: every byte decodes on load anyway, so parse
			// the mapping as a plain stream.
			return Read(bytes.NewReader(data))
		}
	}
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return Read(f)
}
