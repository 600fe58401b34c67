package pll

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"

	"repro/internal/bipartite"
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
	e := NewEncoder(w)
	idx.Encode(e)
	return e.Flush()
}

// Encode writes the index's v1 stream into e; the sharded v2 writer
// embeds one per shard in its own stream.
func (idx *Index) Encode(e *Encoder) {
	if idx.G != nil {
		idx.EncodeGb(e, idx.G.NumEdges(), func(emit func(u, v int)) {
			for u := 0; u < idx.G.NumVertices(); u++ {
				for _, v := range idx.G.Out(u) {
					emit(u, int(v))
				}
			}
		})
		return
	}
	// A lean index without its graph writes src's conversion as
	// bipartite.Convert lays it out: n/2 couple edges plus one per edge
	// of src.
	idx.EncodeGb(e, idx.Ord.Len()/2+idx.src.NumEdges(), func(emit func(u, v int)) {
		bipartite.EachEdge(idx.src, emit)
	})
}

// EncodeGb is Encode with Gb's m edges supplied by each, tails ascending
// as Encoder.Edges writes them: the form for a lean index whose owner
// holds its graph in another form (DropGraph(nil)).
func (idx *Index) EncodeGb(e *Encoder, m int, each func(emit func(u, v int))) {
	e.Bytes(indexMagic[:])
	n := idx.Ord.Len()
	e.U32(uint32(n))
	e.U32(uint32(m))
	e.U8(uint8(idx.Strategy))
	each(func(u, v int) {
		e.U32(uint32(u))
		e.U32(uint32(v))
	})
	for r := 0; r < n; r++ {
		e.U32(uint32(idx.Ord.VertexAt(r)))
	}
	// A reduced index writes each mirrored list as its derivation, so the
	// bytes match the full labeling's.
	var buf []bitpack.Entry
	for v := 0; v < n && e.err == nil; v++ {
		for _, in := range [2]bool{true, false} {
			if idx.isMirror(v, in) {
				buf = idx.derive(v, in, buf[:0])
			} else {
				l := idx.OutLabel(v)
				if in {
					l = idx.InLabel(v)
				}
				buf = l.AppendTo(buf[:0])
			}
			e.U32(uint32(len(buf)))
			for _, x := range buf {
				e.U64(uint64(x))
			}
		}
	}
}

// Encoder writes the snapshot formats' little-endian fields through one
// buffered writer, encoding each field in one reused 8-byte buffer
// instead of boxing it for binary.Write. The first error sticks: later
// writes are dropped and Flush reports it.
type Encoder struct {
	bw  *bufio.Writer
	cw  countingWriter
	le  [8]byte
	err error
}

// NewEncoder returns an Encoder writing to w.
func NewEncoder(w io.Writer) *Encoder {
	e := &Encoder{cw: countingWriter{w: w}}
	e.bw = bufio.NewWriter(&e.cw)
	return e
}

// Bytes writes p verbatim.
func (e *Encoder) Bytes(p []byte) {
	if e.err == nil {
		_, e.err = e.bw.Write(p)
	}
}

// U8 writes one byte.
func (e *Encoder) U8(v uint8) {
	if e.err == nil {
		e.err = e.bw.WriteByte(v)
	}
}

// U32 writes v little-endian.
func (e *Encoder) U32(v uint32) {
	binary.LittleEndian.PutUint32(e.le[:4], v)
	e.Bytes(e.le[:4])
}

// U64 writes v little-endian.
func (e *Encoder) U64(v uint64) {
	binary.LittleEndian.PutUint64(e.le[:], v)
	e.Bytes(e.le[:])
}

// Edges writes g's edge list as m × (tail, head), tails ascending.
func (e *Encoder) Edges(g *graph.Digraph) {
	for u := 0; u < g.NumVertices(); u++ {
		for _, v := range g.Out(u) {
			e.U32(uint32(u))
			e.U32(uint32(v))
		}
	}
}

// Flush drains the buffer and reports the bytes that reached the
// underlying writer and the first error.
func (e *Encoder) Flush() (int64, error) {
	if e.err == nil {
		e.err = e.bw.Flush()
	}
	return e.cw.n, e.err
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
	idx, err := readIndex(br)
	if err != nil {
		return nil, err
	}
	// A loaded index serves the same hot paths as a built one: freeze the
	// lists into the CSR arena for locality.
	idx.Freeze()
	return idx, nil
}

// ReadReducedFrom is ReadIndexFrom for a labeling over a bipartite
// conversion: it reduces the loaded lists (Reduce) before anything is
// frozen, so a clean snapshot goes straight into the delta+varint
// arena and the index turns lean, and packs the CSR arena only when
// Reduce declines — a mirror that differs from its derivation keeps the
// index full. The index keeps G either way: the caller derives what it
// needs from it, then may drop it (DropGraph).
func ReadReducedFrom(br *bufio.Reader) (*Index, error) {
	idx, err := readIndex(br)
	if err != nil {
		return nil, err
	}
	if !idx.Reduce() {
		idx.Freeze()
	}
	return idx, nil
}

// readIndex deserializes an index into per-list slices, unfrozen.
func readIndex(br *bufio.Reader) (*Index, error) {
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
