package csc

import "repro/internal/bipartite"

// ReducedEntryCount reports the couple-merged label size (§IV-E): the
// entries of Lin(v_in) and Lout(v_out), the two lists each couple's
// SCCnt query joins and the only two a reduced index stores (see
// pll.Index.Reduced) — the quantity Figure 9(b) compares against HP-SPC.
func (x *Index) ReducedEntryCount() int {
	n := x.eng.Ord.Len() / 2 // Gb's couples
	total := 0
	for v := 0; v < n; v++ {
		in, out := x.eng.InLabel(bipartite.InVertex(v)), x.eng.OutLabel(bipartite.OutVertex(v))
		total += in.Len() + out.Len()
	}
	return total
}

// ReducedBytes is ReducedEntryCount in bytes.
func (x *Index) ReducedBytes() int { return 8 * x.ReducedEntryCount() }
