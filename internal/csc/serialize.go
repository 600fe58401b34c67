package csc

import (
	"bufio"
	"fmt"
	"io"

	"repro/internal/bipartite"
	"repro/internal/graph"
	"repro/internal/pll"
)

// Four on-disk forms load; two are written. A monolithic Index
// serializes as the v1 format ("CSCIDX01"): its Gb labeling,
// self-contained, with the original graph reconstructed from the
// conversion structure on load. A Sharded index serializes as the v2
// format ("CSCIDX02", sharded_serialize.go): the global graph plus the
// shard table and one embedded v1 labeling blob per shard, with optional
// order tags recording a non-degree hub order (the hub orders themselves
// round-trip explicitly in every format). The v3 format ("CSCIDX03",
// v3.go) is read-only: the same structure with each shard's labels as a
// compressed frozen arena in a flat, mmap-able layout; v4 ("CSCIDX04")
// is v3 plus per-shard ordering-strategy provenance. A v3/v4 load
// serves its arena in place until a shard's first write, and writes
// back as v2. Read dispatches on the magic, so consumers —
// cyclehub.ReadIndex, the engine's WAL/snapshot recovery, the csc CLI —
// load any form transparently, and files written before sharding
// existed keep loading (the serving layers re-shard a v1 load through
// AsSharded).

// WriteTo serializes the index (the Gb labeling is self-contained; the
// original graph is reconstructed on load from the conversion structure).
func (x *Index) WriteTo(w io.Writer) (int64, error) {
	return x.eng.WriteTo(w)
}

// Read deserializes an index written by Index.WriteTo (v1, into an
// *Index) or Sharded.WriteTo (v2, v3 or v4, into a *Sharded), dispatching
// on the leading magic bytes.
func Read(r io.Reader) (Counter, error) {
	br := bufio.NewReader(r)
	magic, err := br.Peek(8)
	if err != nil {
		return nil, fmt.Errorf("%w: %v", pll.ErrBadFormat, err)
	}
	if string(magic) == shardedMagic {
		return readSharded(br)
	}
	if string(magic) == v3Magic || string(magic) == v4Magic {
		return readV34(br)
	}
	return readMonolithic(br)
}

// readMonolithic loads a v1 stream and reconstructs the original graph
// from the bipartite conversion.
func readMonolithic(br *bufio.Reader) (*Index, error) {
	eng, err := pll.ReadReducedFrom(br) // stays full if any mirror differs from its derivation
	if err != nil {
		return nil, err
	}
	eng.HubFilter = bipartite.IsIn // functions do not serialize; re-install
	g, err := originalFromGb(eng.G)
	if err != nil {
		return nil, err
	}
	eng.DropGraph(g)
	return &Index{g: g, eng: eng}, nil
}

// originalFromGb inverts the bipartite conversion: couple edges are
// checked and dropped, every (v_out → w_in) edge becomes (v, w). It
// rejects graphs that are not a valid conversion image, so that
// bipartite.Convert of the result is gb again, list order included — a
// lean labeling drops gb and converts the result instead.
func originalFromGb(gb *graph.Digraph) (*graph.Digraph, error) {
	if gb.NumVertices()%2 != 0 {
		return nil, fmt.Errorf("%w: odd vertex count, not a bipartite conversion", pll.ErrBadFormat)
	}
	n := gb.NumVertices() / 2
	pairs := make([]int32, 0, 2*max(gb.NumEdges()-n, 0))
	for v := 0; v < n; v++ {
		if !gb.HasEdge(bipartite.InVertex(v), bipartite.OutVertex(v)) {
			return nil, fmt.Errorf("%w: missing couple edge for %d", pll.ErrBadFormat, v)
		}
		for _, w := range gb.Out(bipartite.OutVertex(v)) {
			if !bipartite.IsIn(int(w)) {
				return nil, fmt.Errorf("%w: V_out vertex links to V_out", pll.ErrBadFormat)
			}
			pairs = append(pairs, int32(v), int32(bipartite.Original(int(w))))
		}
	}
	if gb.NumEdges() != n+len(pairs)/2 {
		return nil, fmt.Errorf("%w: V_in vertex links beyond its couple", pll.ErrBadFormat)
	}
	g, err := graph.FromPairs(n, pairs)
	if err != nil {
		return nil, fmt.Errorf("%w: %v", pll.ErrBadFormat, err)
	}
	return g, nil
}
