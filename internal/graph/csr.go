package graph

import (
	"math"
	"slices"
)

// adjacency is one side (out or in) of a Digraph: compressed sparse rows
// plus an overflow for the vertices writes have touched.
//
// Vertex v's list is adj[off[v]:off[v+1]] while off[v] >= 0. The first
// write to v copies that range to the end of spill and sets off[v]'s sign
// bit; the low 31 bits keep v's start, since they still end v-1's range.
// The range itself is dead from then on. A list that outgrows its room
// in spill moves to the end again with twice the room. Once the overflow
// (spill and the span map) passes 1/foldShare of the arrays' bytes, and
// foldFloor, fold lays every list out again with no overflow.
type adjacency struct {
	off   []int32        // n+1 offsets into adj; sign bit: list in spill
	adj   []int32        // every untouched vertex's list, in vertex order
	over  map[int32]span // where each touched vertex's list lives in spill
	spill []int32        // touched vertices' lists, each with room to grow
}

// A span is a touched vertex's list, spill[at:at+n], with room for c ids.
type span struct{ at, n, c int32 }

const (
	movedBit = math.MinInt32 // set in off[v] once v's list lives in spill
	offMask  = math.MaxInt32 // off[v] & offMask is v's start in adj

	// overEntryBytes is one span map entry's share of the map, as
	// measured for Go's maps at their usual load.
	overEntryBytes = 32
	// foldShare and foldFloor set when a side folds: once its overflow
	// holds more than 1/foldShare of the side's array bytes, and more
	// than foldFloor bytes, so that small graphs fold rarely.
	foldShare = 8
	foldFloor = 4 << 10
)

// newAdjacency returns n vertices with empty lists.
func newAdjacency(n int) adjacency { return adjacency{off: make([]int32, n+1)} }

// list returns v's list, capped at its length.
func (a *adjacency) list(v int) []int32 {
	lo := a.off[v]
	if lo < 0 {
		return a.moved(v)
	}
	hi := a.off[v+1] & offMask
	return a.adj[lo:hi:hi]
}

// moved returns the list of a touched vertex, capped at its length.
func (a *adjacency) moved(v int) []int32 {
	s := a.over[int32(v)]
	return a.spill[s.at : s.at+s.n : s.at+s.n]
}

// touch returns v's span, first moving v's list into spill, with room
// for one more id, if it is still in adj.
func (a *adjacency) touch(v int) span {
	lo := a.off[v]
	if lo < 0 {
		return a.over[int32(v)]
	}
	hi := a.off[v+1] & offMask
	a.off[v] = lo | movedBit
	if a.over == nil {
		a.over = make(map[int32]span)
	}
	return a.place(a.adj[lo:hi], hi-lo+1)
}

// place copies l to the end of spill with room for c ids and returns its
// span. l may lie in spill itself.
func (a *adjacency) place(l []int32, c int32) span {
	s := span{at: int32(len(a.spill)), n: int32(len(l)), c: c}
	a.spill = slices.Grow(a.spill, int(c))
	a.spill = append(a.spill, l...)[:s.at+c]
	return s
}

// add appends w to v's list.
func (a *adjacency) add(v int, w int32) {
	s := a.touch(v)
	if s.n == s.c {
		s = a.place(a.spill[s.at:s.at+s.n], 2*s.c)
	}
	a.spill[s.at+s.n] = w
	s.n++
	a.over[int32(v)] = s
}

// remove swap-removes w, which must be present, from v's list.
func (a *adjacency) remove(v int, w int32) {
	s := a.touch(v)
	l := a.spill[s.at : s.at+s.n]
	i := slices.Index(l, w)
	l[i] = l[len(l)-1]
	s.n--
	a.over[int32(v)] = s
}

// maybeFold folds the overflow back once it passes its share; m is the
// side's edge count.
func (a *adjacency) maybeFold(m int) {
	if b := a.overBytes(); b > foldFloor && b > a.arrayBytes()/foldShare {
		*a = a.fold(a.off, m)
	}
}

// copied returns the side as fresh arrays with no overflow; m is the
// side's edge count.
func (a *adjacency) copied(m int) adjacency {
	if len(a.over) == 0 {
		return adjacency{off: slices.Clone(a.off), adj: slices.Clone(a.adj)}
	}
	return a.fold(make([]int32, len(a.off)), m)
}

// fold lays every list out again, in order, over the offsets off and a
// fresh array of m ids, with no overflow; m is the side's edge count. off
// may be a.off itself: each entry is read before it is written. The
// untouched vertices between two touched ones move as one run, one copy
// of their lists and one shift of their offsets.
func (a *adjacency) fold(off []int32, m int) adjacency {
	n := len(a.off) - 1
	adj := make([]int32, m)
	// The current run starts at a.adj[lo]; delta moves it into adj.
	var lo, delta int32
	for v := range n {
		o := a.off[v]
		if o >= 0 {
			off[v] = o + delta
			continue
		}
		end := o & offMask // the run ends where v's dead range starts
		copy(adj[lo+delta:], a.adj[lo:end])
		w := end + delta
		off[v] = w
		w += int32(copy(adj[w:], a.moved(v)))
		lo = a.off[v+1] & offMask
		delta = w - lo
	}
	copy(adj[lo+delta:], a.adj[lo:a.off[n]])
	off[n] = a.off[n] + delta
	return adjacency{off: off, adj: adj}
}

// grow appends one vertex with an empty list.
func (a *adjacency) grow() {
	if len(a.off) == 0 {
		a.off = append(a.off, 0)
	}
	a.off = append(a.off, int32(len(a.adj)))
}

func (a *adjacency) arrayBytes() int { return 4 * (cap(a.off) + cap(a.adj)) }

func (a *adjacency) overBytes() int { return overEntryBytes*len(a.over) + 4*cap(a.spill) }

func (a *adjacency) bytes() int { return a.arrayBytes() + a.overBytes() }

// fromPairs lays out the graph over n vertices whose edges are the pairs
// u0 v0 u1 v1 … in input order: every list holds its edges in input
// order, as AddEdge called on each pair in turn would leave it. Pairs
// must be in range and loop-free. A pair repeating an earlier one is
// dropped when lenient; otherwise fromPairs stops and returns the input
// index of the first such pair, with a nil graph. dup is -1 when the
// pairs hold no repeat. Dropped repeats are marked in pairs.
//
// Two stable counting sorts, by tail and then by head, fill one offset
// array and one list array per side.
func fromPairs(n int, pairs []int32, lenient bool) (g *Digraph, dup int) {
	m := len(pairs) / 2
	// A counting sort over off: off[v+1] counts, prefix sums make off[v]
	// v's first slot, and placement leaves off[v] at v's end, that is at
	// v+1's first slot. shift then makes off[v] v's first slot again.
	prefix := func(off []int32) {
		for v := 1; v <= n; v++ {
			off[v] += off[v-1]
		}
	}
	shift := func(off []int32) {
		copy(off[1:], off[:n])
		off[0] = 0
	}
	out := newAdjacency(n)
	for i := 0; i < len(pairs); i += 2 {
		out.off[pairs[i]+1]++
	}
	prefix(out.off)
	// Edge ids grouped by tail, in input order within a tail.
	out.adj = make([]int32, m)
	for e := range int32(m) {
		u := pairs[2*e]
		out.adj[out.off[u]] = e
		out.off[u]++
	}
	// Replace each edge id by its head, compacting repeats away. adj[w]
	// is written only after it was read, so this runs in place. A tail
	// with one edge has no repeat to look for.
	seen := make([]int32, n) // seen[v] == u+1: edge (u,v) already kept
	dup = -1
	var w, lo int32
	for u := range int32(n) {
		hi := out.off[u]
		for _, e := range out.adj[lo:hi] {
			v := pairs[2*e+1]
			if hi-lo > 1 {
				if seen[v] == u+1 {
					if dup < 0 || int(e) < dup {
						dup = int(e)
					}
					if lenient {
						pairs[2*e] = -1
					}
					continue
				}
				seen[v] = u + 1
			}
			out.adj[w] = v
			w++
		}
		out.off[u] = w
		lo = hi
	}
	if dup >= 0 && !lenient {
		return nil, dup
	}
	shift(out.off)
	out.adj = out.adj[:w]
	if int(w) < m {
		out.adj = slices.Clone(out.adj) // repeats dropped: free their slots
	}
	// Tails grouped by head, in input order within a head.
	in := newAdjacency(n)
	for i := 0; i < len(pairs); i += 2 {
		if pairs[i] >= 0 {
			in.off[pairs[i+1]+1]++
		}
	}
	prefix(in.off)
	in.adj = make([]int32, w)
	for i := 0; i < len(pairs); i += 2 {
		if u, v := pairs[i], pairs[i+1]; u >= 0 {
			in.adj[in.off[v]] = u
			in.off[v]++
		}
	}
	shift(in.off)
	return &Digraph{out: out, in: in, n: n, m: int(w)}, dup
}
