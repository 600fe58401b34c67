package csc

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"

	"repro/internal/bipartite"
	"repro/internal/graph"
	"repro/internal/order"
	"repro/internal/partition"
	"repro/internal/pll"
)

// Sharded binary format v2 (little endian):
//
//	magic    [8]byte  "CSCIDX02"
//	n        uint32   global vertex count
//	m        uint32   global edge count (including cross-component edges)
//	strategy uint8    maintenance strategy; bit 7 set: order tags follow
//	order    uint8    (tagged only) the build's hub-order strategy
//	edges    m × (uint32, uint32)
//	shards   uint32   number of non-trivial components
//	per shard, ordered by smallest member vertex:
//	  size   uint32   member count (≥ 2)
//	  verts  size × uint32, strictly increasing (position = local id)
//	  order  uint8    (tagged only) the strategy of the shard's hub order
//	  blob   the shard's Gb labeling, a complete embedded v1 stream
//
// The hub orders themselves ride in the v1 blobs. The order tags are
// written exactly when some order is not degree (needsOrderTags), so a
// degree-built index writes the same bytes as before the tags existed,
// and a coverage-built one reloads knowing its order: restart rebuilds
// then use the build's strategy, not degree.
//
// The global graph is authoritative for the edge set; each shard blob
// carries the component's converted subgraph with its labels. Loading
// validates the whole structure — every shard's reconstructed subgraph
// must equal the induced subgraph of the global graph, and the shard
// table must be exactly the SCC decomposition's non-trivial components —
// so a corrupt shard table is rejected rather than silently serving
// wrong counts.

const shardedMagic = "CSCIDX02"

// v2OrderTags is the bit of the v2 strategy byte that says order tags
// follow.
const v2OrderTags = 0x80

// maxShardedVertices bounds the v2/v3 header's global vertex count. The
// loader allocates ~20 bytes of adjacency offsets, build scratch and
// shard-map state per claimed vertex and validates the shard table with a
// full SCC pass, both before the body proves itself — so the bound is
// calibrated to keep a hostile 25-byte header (huge n, zero edges, zero
// shards) to tens of MB and a fraction of a second rather than gigabytes
// and minutes. It still sits far above the per-shard hub encoding
// limit's practical reach for this codebase; a graph beyond it needs a
// format revision, not a bigger constant.
const maxShardedVertices = 1 << 21

// needsOrderTags reports whether any ordering provenance would be lost
// without order tags — a non-degree build default, or any live shard
// carrying a non-degree order tag.
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

// WriteTo serializes the sharded index in the v2 format, however it was
// built or loaded: a shard serving a v3/v4 file arena writes every list
// the arena holds.
func (x *Sharded) WriteTo(w io.Writer) (int64, error) {
	tags := x.needsOrderTags()
	e := pll.NewEncoder(w)
	e.Bytes([]byte(shardedMagic))
	e.U32(uint32(x.g.NumVertices()))
	e.U32(uint32(x.g.NumEdges()))
	if tags {
		e.U8(uint8(x.opts.Strategy) | v2OrderTags)
		e.U8(uint8(x.opts.Order))
	} else {
		e.U8(uint8(x.opts.Strategy))
	}
	e.Edges(x.g)
	live := x.liveShards()
	e.U32(uint32(len(live)))
	for _, sh := range live {
		e.U32(uint32(len(sh.verts)))
		for _, v := range sh.verts {
			e.U32(uint32(v))
		}
		if tags {
			e.U8(uint8(sh.strat))
		}
		if sh.idx.g != nil {
			sh.idx.eng.Encode(e)
		} else {
			x.encodeLean(e, sh)
		}
	}
	return e.Flush()
}

// encodeLean writes a shard that holds no subgraph as its v1 stream,
// emitting its Gb edges straight from the served graph through the
// directory, in the order bipartite.EachEdge lays out the conversion of
// the induced subgraph: each member's couple edge, then its out-edges to
// other members in served-graph order.
func (x *Sharded) encodeLean(e *pll.Encoder, sh *shard) {
	s := x.dir.slotOf(int(sh.verts[0]))
	each := func(emit func(u, v int)) {
		for li, v := range sh.verts {
			emit(bipartite.InVertex(li), bipartite.OutVertex(li))
			for _, w := range x.g.Out(int(v)) {
				if ws, lw := x.dir.locate(int(w)); ws == s {
					emit(bipartite.OutVertex(li), bipartite.InVertex(int(lw)))
				}
			}
		}
	}
	m := 0
	each(func(int, int) { m++ })
	sh.idx.eng.EncodeGb(e, m, each)
}

// readSharded loads a v2 stream, validating the shard table against the
// global graph's actual SCC decomposition.
func readSharded(br *bufio.Reader) (*Sharded, error) {
	read := func(v any) error { return binary.Read(br, binary.LittleEndian, v) }
	bad := func(format string, args ...any) error {
		return fmt.Errorf("%w: %s", pll.ErrBadFormat, fmt.Sprintf(format, args...))
	}

	var magic [8]byte
	if err := read(&magic); err != nil {
		return nil, bad("%v", err)
	}
	if string(magic[:]) != shardedMagic {
		return nil, bad("bad magic %q", magic[:])
	}
	var n32, m32 uint32
	var strat uint8
	if err := read(&n32); err != nil {
		return nil, bad("%v", err)
	}
	if err := read(&m32); err != nil {
		return nil, bad("%v", err)
	}
	if err := read(&strat); err != nil {
		return nil, bad("%v", err)
	}
	tags := strat&v2OrderTags != 0
	strat &^= v2OrderTags
	readTag := func() (order.Strategy, error) {
		var b uint8
		if err := read(&b); err != nil {
			return 0, bad("truncated order tag: %v", err)
		}
		if s := order.Strategy(b); s.Valid() {
			return s, nil
		}
		return 0, bad("unknown order strategy %d", b)
	}
	var ostrat order.Strategy
	if tags {
		var err error
		if ostrat, err = readTag(); err != nil {
			return nil, err
		}
	}
	n, m := int(n32), int(m32)
	// The global graph carries no labeling, so the per-shard hub encoding
	// limit does not apply here — each embedded blob enforces it for its
	// own 2·|C| vertices. The header bound only keeps a hostile count from
	// driving a multi-gigabyte allocation.
	if n > maxShardedVertices {
		return nil, bad("vertex count %d exceeds limit %d", n, maxShardedVertices)
	}
	if pll.Strategy(strat) != pll.Redundancy && pll.Strategy(strat) != pll.Minimality {
		return nil, bad("unknown strategy %d", strat)
	}
	if int64(m32) > int64(n)*int64(n-1) {
		return nil, bad("edge count %d impossible for %d vertices", m, n)
	}
	// The edge buffer grows with the bytes actually read, not with the
	// header's claim.
	pairs := make([]int32, 0, 2*min(m, 1<<16))
	for i := 0; i < m; i++ {
		var u, v uint32
		if err := read(&u); err != nil {
			return nil, bad("truncated edges: %v", err)
		}
		if err := read(&v); err != nil {
			return nil, bad("truncated edges: %v", err)
		}
		pairs = append(pairs, int32(u), int32(v))
	}
	g, err := graph.FromPairs(n, pairs)
	if err != nil {
		return nil, bad("%v", err)
	}
	var shardCount uint32
	if err := read(&shardCount); err != nil {
		return nil, bad("truncated shard table: %v", err)
	}
	if int(shardCount) > n/2 {
		return nil, bad("%d shards impossible for %d vertices", shardCount, n)
	}

	x := &Sharded{g: g, opts: Options{Strategy: pll.Strategy(strat), Order: ostrat}}
	for sid := 0; sid < int(shardCount); sid++ {
		var size uint32
		if err := read(&size); err != nil {
			return nil, bad("truncated shard %d header: %v", sid, err)
		}
		if size < 2 || int(size) > n {
			return nil, bad("shard %d has %d vertices", sid, size)
		}
		verts := make([]int32, size)
		prev := int32(-1)
		for i := range verts {
			var v uint32
			if err := read(&v); err != nil {
				return nil, bad("truncated shard %d members: %v", sid, err)
			}
			if int(v) >= n || int32(v) <= prev {
				return nil, bad("shard %d member %d out of order or range", sid, v)
			}
			prev = int32(v)
			verts[i] = int32(v)
		}
		var shardStrat order.Strategy
		if tags {
			if shardStrat, err = readTag(); err != nil {
				return nil, err
			}
		}
		eng, err := pll.ReadReducedFrom(br) // stays full if any mirror differs from its derivation
		if err != nil {
			return nil, fmt.Errorf("shard %d labeling: %w", sid, err)
		}
		if eng.Strategy != pll.Strategy(strat) {
			return nil, bad("shard %d strategy %d != header %d", sid, eng.Strategy, strat)
		}
		eng.HubFilter = bipartite.IsIn
		sub, err := originalFromGb(eng.G)
		if err != nil {
			return nil, fmt.Errorf("shard %d: %w", sid, err)
		}
		if sub.NumVertices() != int(size) {
			return nil, bad("shard %d labeling covers %d vertices, table says %d", sid, sub.NumVertices(), size)
		}
		if !graph.Equal(sub, partition.Induced(g, verts)) {
			return nil, bad("shard %d subgraph does not match the global graph", sid)
		}
		idx := &Index{g: sub, eng: eng}
		idx.shedGraph() // a lean shard serves from its store alone
		x.shards = append(x.shards, &shard{verts: verts, idx: idx, strat: shardStrat})
	}
	if x.dir, err = newDirectory(n, x.shards); err != nil {
		return nil, bad("%v", err)
	}
	// The shard table must be exactly the graph's non-trivial SCCs — a
	// table that omits a cyclic region (which would silently answer 0) or
	// invents a non-component shard is corrupt.
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
