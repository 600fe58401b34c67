package pll

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"

	"repro/internal/bitpack"
	"repro/internal/graph"
	"repro/internal/label"
	"repro/internal/order"
)

// Binary index format (little endian):
//
//	magic   [8]byte  "CSCIDX01"
//	n       uint32   vertex count
//	m       uint32   edge count
//	strategy uint8
//	edges   m × (uint32, uint32)
//	order   n × uint32            vertexAt, highest rank first
//	labels  n × { inLen uint32, inLen × uint64,
//	              outLen uint32, outLen × uint64 }
//
// The format is self-contained: the graph travels with the labels so a
// loaded index supports queries and dynamic maintenance immediately.

var indexMagic = [8]byte{'C', 'S', 'C', 'I', 'D', 'X', '0', '1'}

// ErrBadFormat reports a corrupt or foreign index stream.
var ErrBadFormat = errors.New("pll: bad index format")

// WriteTo serializes the index. It implements io.WriterTo.
func (idx *Index) WriteTo(w io.Writer) (int64, error) {
	cw := &countingWriter{w: bufio.NewWriter(w)}
	write := func(v any) error { return binary.Write(cw, binary.LittleEndian, v) }

	if err := write(indexMagic); err != nil {
		return cw.n, err
	}
	n := idx.G.NumVertices()
	if err := write(uint32(n)); err != nil {
		return cw.n, err
	}
	if err := write(uint32(idx.G.NumEdges())); err != nil {
		return cw.n, err
	}
	if err := write(uint8(idx.Strategy)); err != nil {
		return cw.n, err
	}
	for u := 0; u < n; u++ {
		for _, v := range idx.G.Out(u) {
			if err := write(uint32(u)); err != nil {
				return cw.n, err
			}
			if err := write(uint32(v)); err != nil {
				return cw.n, err
			}
		}
	}
	for r := 0; r < n; r++ {
		if err := write(uint32(idx.Ord.VertexAt(r))); err != nil {
			return cw.n, err
		}
	}
	// A reduced index writes each mirrored list as its derivation, so the
	// bytes match the full labeling's.
	var buf []bitpack.Entry
	var derived label.List
	for v := 0; v < n; v++ {
		for _, in := range [2]bool{true, false} {
			lst := &idx.Out[v]
			if in {
				lst = &idx.In[v]
			}
			if idx.isMirror(v, in) {
				buf = idx.derive(v, in, buf[:0])
				derived = label.Wrap(buf)
				lst = &derived
			}
			if err := write(uint32(lst.Len())); err != nil {
				return cw.n, err
			}
			var werr error
			lst.Each(func(e bitpack.Entry) bool {
				werr = write(uint64(e))
				return werr == nil
			})
			if werr != nil {
				return cw.n, werr
			}
		}
	}
	// Flush before reading the count — the order of a plain operand read
	// against a call in one return list is unspecified.
	err := cw.w.(*bufio.Writer).Flush()
	return cw.n, err
}

// ReadIndex deserializes an index written by WriteTo.
func ReadIndex(r io.Reader) (*Index, error) {
	return ReadIndexFrom(bufio.NewReader(r))
}

// ReadIndexFrom is ReadIndex reading through a caller-owned bufio.Reader.
// Container formats that embed index blobs back-to-back (the sharded CSC
// serialization) must use it: reading exactly through the caller's
// buffered reader never prefetches bytes that belong to the next section,
// which a privately wrapped bufio would swallow.
func ReadIndexFrom(br *bufio.Reader) (*Index, error) {
	read := func(v any) error { return binary.Read(br, binary.LittleEndian, v) }

	var magic [8]byte
	if err := read(&magic); err != nil {
		return nil, fmt.Errorf("%w: %v", ErrBadFormat, err)
	}
	if magic != indexMagic {
		return nil, fmt.Errorf("%w: bad magic %q", ErrBadFormat, magic[:])
	}
	var n32, m32 uint32
	var strat uint8
	if err := read(&n32); err != nil {
		return nil, fmt.Errorf("%w: %v", ErrBadFormat, err)
	}
	if err := read(&m32); err != nil {
		return nil, fmt.Errorf("%w: %v", ErrBadFormat, err)
	}
	if err := read(&strat); err != nil {
		return nil, fmt.Errorf("%w: %v", ErrBadFormat, err)
	}
	n, m := int(n32), int(m32)
	if n > bitpack.MaxHub+1 {
		return nil, fmt.Errorf("%w: vertex count %d exceeds encoding limit", ErrBadFormat, n)
	}
	if Strategy(strat) != Redundancy && Strategy(strat) != Minimality {
		return nil, fmt.Errorf("%w: unknown strategy %d", ErrBadFormat, strat)
	}
	// A digraph on n vertices holds at most n(n-1) edges; a larger claimed
	// count is corrupt, and rejecting it here keeps a hostile header from
	// driving a multi-gigabyte read loop.
	if int64(m32) > int64(n)*int64(n-1) {
		return nil, fmt.Errorf("%w: edge count %d impossible for %d vertices", ErrBadFormat, m, n)
	}
	// The edge buffer grows with the bytes actually read, not with the
	// header's claim.
	pairs := make([]int32, 0, 2*min(m, 1<<16))
	for i := 0; i < m; i++ {
		var u, v uint32
		if err := read(&u); err != nil {
			return nil, fmt.Errorf("%w: truncated edges: %v", ErrBadFormat, err)
		}
		if err := read(&v); err != nil {
			return nil, fmt.Errorf("%w: truncated edges: %v", ErrBadFormat, err)
		}
		pairs = append(pairs, int32(u), int32(v))
	}
	g, err := graph.FromPairs(n, pairs)
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrBadFormat, err)
	}
	vertexAt := make([]int, n)
	for r := 0; r < n; r++ {
		var v uint32
		if err := read(&v); err != nil {
			return nil, fmt.Errorf("%w: truncated order: %v", ErrBadFormat, err)
		}
		if int(v) >= n {
			return nil, fmt.Errorf("%w: order vertex %d out of range", ErrBadFormat, v)
		}
		vertexAt[r] = int(v)
	}
	ord, err := order.FromVertexList(vertexAt)
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrBadFormat, err)
	}
	idx := NewEmpty(g, ord)
	idx.Strategy = Strategy(strat)
	for v := 0; v < n; v++ {
		for _, lst := range []*label.List{&idx.In[v], &idx.Out[v]} {
			var ln uint32
			if err := read(&ln); err != nil {
				return nil, fmt.Errorf("%w: truncated labels: %v", ErrBadFormat, err)
			}
			// Hubs are strictly increasing ranks below n, so no list can
			// legitimately exceed n entries.
			if int64(ln) > int64(n) {
				return nil, fmt.Errorf("%w: label list of %d entries for %d vertices", ErrBadFormat, ln, n)
			}
			prevHub := -1
			for i := 0; i < int(ln); i++ {
				var e uint64
				if err := read(&e); err != nil {
					return nil, fmt.Errorf("%w: truncated labels: %v", ErrBadFormat, err)
				}
				ent := bitpack.Entry(e)
				if ent.Hub() <= prevHub || ent.Hub() >= n {
					return nil, fmt.Errorf("%w: label hub order violated", ErrBadFormat)
				}
				prevHub = ent.Hub()
				lst.Append(ent)
				idx.entries++
			}
		}
	}
	// A loaded index serves the same hot paths as a built one: freeze the
	// lists into the CSR arena for locality.
	idx.FreezeArena()
	return idx, nil
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
