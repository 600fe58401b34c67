package csc

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"

	"repro/internal/bipartite"
	"repro/internal/graph"
	"repro/internal/partition"
	"repro/internal/pll"
)

// Sharded binary format v2 (little endian):
//
//	magic    [8]byte  "CSCIDX02"
//	n        uint32   global vertex count
//	m        uint32   global edge count (including cross-component edges)
//	strategy uint8
//	edges    m × (uint32, uint32)
//	shards   uint32   number of non-trivial components
//	per shard, ordered by smallest member vertex:
//	  size   uint32   member count (≥ 2)
//	  verts  size × uint32, strictly increasing (position = local id)
//	  blob   the shard's Gb labeling, a complete embedded v1 stream
//
// The global graph is authoritative for the edge set; each shard blob
// carries the component's converted subgraph with its labels. Loading
// validates the whole structure — every shard's reconstructed subgraph
// must equal the induced subgraph of the global graph, and the shard
// table must be exactly the SCC decomposition's non-trivial components —
// so a corrupt shard table is rejected rather than silently serving
// wrong counts.

const shardedMagic = "CSCIDX02"

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

// WriteTo serializes the sharded index: the compressed v3/v4 format
// when the index was built with Options.CompressLabels (v4 exactly when
// a non-degree ordering strategy needs recording), the v2 format
// otherwise.
func (x *Sharded) WriteTo(w io.Writer) (int64, error) {
	if x.opts.CompressLabels {
		return x.writeV34(w)
	}
	cw := &countingWriter{w: w}
	bw := bufio.NewWriter(cw)
	write := func(v any) error { return binary.Write(bw, binary.LittleEndian, v) }

	if _, err := bw.WriteString(shardedMagic); err != nil {
		return cw.n, err
	}
	n := x.g.NumVertices()
	if err := write(uint32(n)); err != nil {
		return cw.n, err
	}
	if err := write(uint32(x.g.NumEdges())); err != nil {
		return cw.n, err
	}
	if err := write(uint8(x.opts.Strategy)); err != nil {
		return cw.n, err
	}
	for u := 0; u < n; u++ {
		for _, v := range x.g.Out(u) {
			if err := write(uint32(u)); err != nil {
				return cw.n, err
			}
			if err := write(uint32(v)); err != nil {
				return cw.n, err
			}
		}
	}
	live := x.liveShards()
	if err := write(uint32(len(live))); err != nil {
		return cw.n, err
	}
	for _, sh := range live {
		if err := write(uint32(len(sh.verts))); err != nil {
			return cw.n, err
		}
		for _, v := range sh.verts {
			if err := write(uint32(v)); err != nil {
				return cw.n, err
			}
		}
		// The blob writer buffers privately; flush our buffer first so the
		// bytes interleave in stream order.
		if err := bw.Flush(); err != nil {
			return cw.n, err
		}
		if _, err := sh.idx.eng.WriteTo(cw); err != nil {
			return cw.n, err
		}
	}
	// Flush before reading the count: the header and edge stream may still
	// be buffered (always, on a shard-free graph), and the evaluation order
	// of a plain operand against a call in one return list is unspecified.
	err := bw.Flush()
	return cw.n, err
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

	x := &Sharded{
		g:       g,
		opts:    Options{Strategy: pll.Strategy(strat)},
		shardOf: make([]int32, n),
		localID: make([]int32, n),
	}
	for v := range x.shardOf {
		x.shardOf[v] = -1
		x.localID[v] = -1
	}
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
			if x.shardOf[v] != -1 {
				return nil, bad("vertex %d claimed by two shards", v)
			}
			prev = int32(v)
			verts[i] = int32(v)
			x.shardOf[v] = int32(sid)
			x.localID[v] = int32(i)
		}
		eng, err := pll.ReadIndexFrom(br)
		if err != nil {
			return nil, fmt.Errorf("shard %d labeling: %w", sid, err)
		}
		if eng.Strategy != pll.Strategy(strat) {
			return nil, bad("shard %d strategy %d != header %d", sid, eng.Strategy, strat)
		}
		eng.HubFilter = bipartite.IsIn
		eng.Reduce() // stays full if any mirror differs from its derivation
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
		x.shards = append(x.shards, &shard{verts: verts, idx: &Index{g: sub, eng: eng}})
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

type countingWriter struct {
	w io.Writer
	n int64
}

func (c *countingWriter) Write(p []byte) (int, error) {
	n, err := c.w.Write(p)
	c.n += int64(n)
	return n, err
}
