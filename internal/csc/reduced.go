package csc

import (
	"repro/internal/bfscount"
	"repro/internal/bipartite"
	"repro/internal/label"
	"repro/internal/pll"
)

// Compact is the reduced, read-only form of a CSC index (§IV-E). The
// consecutive couple ranks guarantee Lin(v_out) mirrors Lin(v_in) shifted
// by +1 (v_out's only in-edge comes from v_in) and Lout(v_in) mirrors
// Lout(v_out) shifted by +1 — except for self entries and the cycle entry.
// SCCnt queries only ever touch Lin(v_in) and Lout(v_out), so the compact
// store keeps exactly one list per couple per side: half the label
// entries, which is why the paper reports CSC index sizes on par with
// HP-SPC despite Gb doubling the vertex count.
//
// Compact serves static queries only; dynamic maintenance requires the
// full Index.
type Compact struct {
	in  []label.List // in[v] = Lin(v_in)
	out []label.List // out[v] = Lout(v_out)
}

// Reduce builds the compact form from a full index by cloning the two
// lists each couple's query needs.
func Reduce(x *Index) *Compact {
	n := x.g.NumVertices()
	c := &Compact{
		in:  make([]label.List, n),
		out: make([]label.List, n),
	}
	for v := 0; v < n; v++ {
		c.in[v] = x.eng.In[bipartite.InVertex(v)].Clone()
		c.out[v] = x.eng.Out[bipartite.OutVertex(v)].Clone()
	}
	return c
}

// CycleCount answers SCCnt(v) from the compact store.
func (c *Compact) CycleCount(v int) (length int, count uint64) {
	d, cnt, _ := label.Join(&c.out[v], &c.in[v], label.Unreachable)
	if d == pll.Unreachable {
		return bfscount.NoCycle, 0
	}
	return bipartite.CycleLength(d), cnt
}

// EntryCount returns the number of stored label entries.
func (c *Compact) EntryCount() int {
	total := 0
	for v := range c.in {
		total += c.in[v].Len() + c.out[v].Len()
	}
	return total
}

// Bytes returns the storage footprint (8 bytes per entry).
func (c *Compact) Bytes() int { return 8 * c.EntryCount() }

// ReducedEntryCount reports the couple-merged label size of a full index
// without materializing the compact store — the quantity Figure 9(b)
// compares against HP-SPC.
func (x *Index) ReducedEntryCount() int {
	n := x.g.NumVertices()
	total := 0
	for v := 0; v < n; v++ {
		total += x.eng.In[bipartite.InVertex(v)].Len() +
			x.eng.Out[bipartite.OutVertex(v)].Len()
	}
	return total
}

// ReducedBytes is ReducedEntryCount in bytes.
func (x *Index) ReducedBytes() int { return 8 * x.ReducedEntryCount() }
