package csc

import (
	"io"

	"repro/internal/graph"
)

// Counter is what Read returns: a loaded index of either form — a v1
// file decodes into the monolithic Index, v2–v4 into the SCC-sharded
// Sharded. It is the read-and-roundtrip surface format consumers (the
// golden, fuzz and conformance suites) check; the serving layers hold a
// *Sharded, obtained through AsSharded.
type Counter interface {
	// CycleCount answers SCCnt(v): shortest cycle length through v
	// (bfscount.NoCycle when none, or when v is out of range) and the
	// number of such cycles.
	CycleCount(v int) (length int, count uint64)
	// Graph returns the indexed original graph. Callers must not mutate
	// it directly.
	Graph() *graph.Digraph
	// WriteTo serializes the index in a format Read can load.
	WriteTo(w io.Writer) (int64, error)
}

var (
	_ Counter = (*Index)(nil)
	_ Counter = (*Sharded)(nil)
)

// AsSharded is the one conversion from a loaded index to the serving
// form. A sharded index is returned unchanged; a monolithic one (a v1
// file, or a pre-sharding snapshot) is re-sharded over its own graph,
// keeping its maintenance strategy. Answers are
// identical either way — SCCnt is a pure function of the graph — so every
// file that loads keeps serving the same counts. The monolithic index
// must not be used afterwards: the sharded one takes ownership of its
// graph.
func AsSharded(c Counter) *Sharded {
	if x, ok := c.(*Index); ok {
		sx, _ := BuildSharded(x.g, Options{Strategy: x.eng.Strategy})
		return sx
	}
	sx, _ := c.(*Sharded)
	return sx
}
