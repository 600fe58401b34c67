// Package graph provides the dynamic directed-graph substrate the index
// is built on: adjacency lists with O(deg) edge insertion and deletion, a
// reverse view, and plain-text edge-list I/O.
//
// Vertices are dense integers [0, N). The paper's graphs are directed and
// self-loop free (§VI-A), so AddEdge rejects self-loops; parallel edges are
// rejected as well since the algorithms treat E as a set.
package graph

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"math"
	"slices"
	"strconv"
	"strings"
)

// Common errors returned by edge mutations.
var (
	ErrSelfLoop       = errors.New("graph: self-loops are not allowed")
	ErrVertexRange    = errors.New("graph: vertex out of range")
	ErrDuplicateEdge  = errors.New("graph: edge already exists")
	ErrMissingEdge    = errors.New("graph: edge does not exist")
	ErrMalformedInput = errors.New("graph: malformed edge list")
)

// Digraph is a mutable directed graph over vertices 0..n-1.
// The zero value is an empty graph with no vertices.
type Digraph struct {
	out [][]int32
	in  [][]int32
	m   int
}

// New returns an empty directed graph with n vertices and no edges.
func New(n int) *Digraph {
	return &Digraph{
		out: make([][]int32, n),
		in:  make([][]int32, n),
	}
}

// FromEdges builds a graph with n vertices and the given (u,v) edge pairs.
// It fails fast on the first invalid edge.
func FromEdges(n int, edges [][2]int) (*Digraph, error) {
	g := New(n)
	for _, e := range edges {
		if err := g.AddEdge(e[0], e[1]); err != nil {
			return nil, fmt.Errorf("edge (%d,%d): %w", e[0], e[1], err)
		}
	}
	return g, nil
}

// NumVertices returns the number of vertices.
func (g *Digraph) NumVertices() int { return len(g.out) }

// AddVertex appends a fresh isolated vertex and returns its id.
func (g *Digraph) AddVertex() int {
	g.out = append(g.out, nil)
	g.in = append(g.in, nil)
	return len(g.out) - 1
}

// NumEdges returns the number of directed edges.
func (g *Digraph) NumEdges() int { return g.m }

// OutDegree returns |nbr_out(v)|.
func (g *Digraph) OutDegree(v int) int { return len(g.out[v]) }

// InDegree returns |nbr_in(v)|.
func (g *Digraph) InDegree(v int) int { return len(g.in[v]) }

// Degree returns the paper's degree(v): in-degree plus out-degree.
func (g *Digraph) Degree(v int) int { return len(g.out[v]) + len(g.in[v]) }

// MinInOutDegree returns min(|nbr_in(v)|, |nbr_out(v)|), the quantity the
// paper clusters query vertices by (§VI-A).
func (g *Digraph) MinInOutDegree(v int) int {
	if len(g.in[v]) < len(g.out[v]) {
		return len(g.in[v])
	}
	return len(g.out[v])
}

// Out returns the out-neighbor slice of v. The slice is owned by the graph
// and must not be mutated or retained across mutations.
func (g *Digraph) Out(v int) []int32 { return g.out[v] }

// In returns the in-neighbor slice of v with the same aliasing caveat as Out.
func (g *Digraph) In(v int) []int32 { return g.in[v] }

// HasEdge reports whether the directed edge (u,v) exists.
func (g *Digraph) HasEdge(u, v int) bool {
	if !g.valid(u) || !g.valid(v) {
		return false
	}
	// Scan the smaller of u's out-list and v's in-list.
	if len(g.out[u]) <= len(g.in[v]) {
		return contains(g.out[u], int32(v))
	}
	return contains(g.in[v], int32(u))
}

func contains(s []int32, x int32) bool {
	for _, y := range s {
		if y == x {
			return true
		}
	}
	return false
}

func (g *Digraph) valid(v int) bool { return v >= 0 && v < len(g.out) }

// AddEdge inserts the directed edge (u,v).
func (g *Digraph) AddEdge(u, v int) error {
	if !g.valid(u) || !g.valid(v) {
		return ErrVertexRange
	}
	if u == v {
		return ErrSelfLoop
	}
	if g.HasEdge(u, v) {
		return ErrDuplicateEdge
	}
	g.out[u] = append(g.out[u], int32(v))
	g.in[v] = append(g.in[v], int32(u))
	g.m++
	return nil
}

// RemoveEdge deletes the directed edge (u,v).
func (g *Digraph) RemoveEdge(u, v int) error {
	if !g.valid(u) || !g.valid(v) {
		return ErrVertexRange
	}
	ok1 := removeOne(&g.out[u], int32(v))
	if !ok1 {
		return ErrMissingEdge
	}
	removeOne(&g.in[v], int32(u))
	g.m--
	return nil
}

func removeOne(s *[]int32, x int32) bool {
	list := *s
	for i, y := range list {
		if y == x {
			list[i] = list[len(list)-1]
			*s = list[:len(list)-1]
			return true
		}
	}
	return false
}

// Edges returns all directed edges as (u,v) pairs in out-adjacency order.
func (g *Digraph) Edges() [][2]int {
	edges := make([][2]int, 0, g.m)
	for u := range g.out {
		for _, v := range g.out[u] {
			edges = append(edges, [2]int{u, int(v)})
		}
	}
	return edges
}

// Clone returns a deep copy of the graph.
func (g *Digraph) Clone() *Digraph {
	c := &Digraph{
		out: make([][]int32, len(g.out)),
		in:  make([][]int32, len(g.in)),
		m:   g.m,
	}
	for v := range g.out {
		if len(g.out[v]) > 0 {
			c.out[v] = append([]int32(nil), g.out[v]...)
		}
		if len(g.in[v]) > 0 {
			c.in[v] = append([]int32(nil), g.in[v]...)
		}
	}
	return c
}

// Reverse returns a new graph with every edge direction flipped.
func (g *Digraph) Reverse() *Digraph {
	r := &Digraph{
		out: make([][]int32, len(g.out)),
		in:  make([][]int32, len(g.in)),
		m:   g.m,
	}
	for v := range g.out {
		if len(g.in[v]) > 0 {
			r.out[v] = append([]int32(nil), g.in[v]...)
		}
		if len(g.out[v]) > 0 {
			r.in[v] = append([]int32(nil), g.out[v]...)
		}
	}
	return r
}

// WriteEdgeList writes the graph as "n m" followed by one "u v" line per
// edge — the same plain format SNAP distributes.
func (g *Digraph) WriteEdgeList(w io.Writer) error {
	bw := bufio.NewWriter(w)
	if _, err := fmt.Fprintf(bw, "%d %d\n", g.NumVertices(), g.NumEdges()); err != nil {
		return err
	}
	for u := range g.out {
		for _, v := range g.out[u] {
			if _, err := fmt.Fprintf(bw, "%d %d\n", u, v); err != nil {
				return err
			}
		}
	}
	return bw.Flush()
}

// maxLine caps one edge-list line at the 16 MiB the parser has always
// accepted.
const maxLine = 1 << 24

// ReadEdgeList parses the format written by WriteEdgeList. Lines starting
// with '#' are comments. Self-loops and duplicates in the input are skipped
// rather than rejected, matching how the paper's datasets are cleaned, and
// every adjacency list keeps its edges in order of first occurrence.
//
// Lines are parsed in place in the reader's buffer into one flat pair
// buffer, which grows with the input alone (the header's edge count is
// never trusted); the adjacency lists are then carved from one array per
// direction.
func ReadEdgeList(r io.Reader) (*Digraph, error) {
	br := bufio.NewReaderSize(r, 1<<16)
	n := -1           // vertex count, once the header is read
	var pairs []int32 // u0 v0 u1 v1 …: in-range, loop-free edges in input order
	var long []byte   // a line longer than the reader's buffer
	for {
		line, err := br.ReadSlice('\n')
		if err == bufio.ErrBufferFull {
			long = append(long[:0], line...)
			for err == bufio.ErrBufferFull {
				line, err = br.ReadSlice('\n')
				long = append(long, line...)
				if len(long) > maxLine {
					return nil, bufio.ErrTooLong
				}
			}
			line = long
		}
		if len(line) > 0 && line[len(line)-1] == '\n' {
			line = line[:len(line)-1]
		}
		a, b, skip, ok := parsePair(line)
		switch {
		case skip:
		case !ok:
			return nil, fmt.Errorf("%w: %q", ErrMalformedInput, strings.TrimSpace(string(line)))
		case n < 0:
			if a < 0 || b < 0 {
				return nil, fmt.Errorf("%w: negative header", ErrMalformedInput)
			}
			if a > math.MaxInt32 {
				return nil, fmt.Errorf("%w: header declares %d vertices, past the int32 id range", ErrMalformedInput, a)
			}
			n = a
		case a < 0 || a >= n || b < 0 || b >= n:
			return nil, fmt.Errorf("edge (%d,%d): %w", a, b, ErrVertexRange)
		case len(pairs)/2 == math.MaxInt32: // edge ids are int32 too
			return nil, fmt.Errorf("%w: more than %d edges", ErrMalformedInput, math.MaxInt32)
		case a != b: // self-loops skip here, duplicates in fromPairs
			if len(pairs) == cap(pairs) {
				pairs = slices.Grow(pairs, max(len(pairs), 1<<10)) // double: O(log m) allocations
			}
			pairs = append(pairs, int32(a), int32(b))
		}
		if err == io.EOF {
			break
		}
		if err != nil {
			return nil, err
		}
	}
	if n < 0 {
		return nil, fmt.Errorf("%w: empty input", ErrMalformedInput)
	}
	return fromPairs(n, pairs), nil
}

// asciiSpace marks the single bytes unicode.IsSpace accepts; every byte
// of a multi-byte rune is unmarked.
var asciiSpace = [256]bool{'\t': true, '\n': true, '\v': true, '\f': true, '\r': true, ' ': true}

// parsePair reads one line: blank lines and '#' comments skip, exactly
// two integer fields parse, anything else is malformed. A plain
// "digits space digits" line takes one pass in place; any other line goes
// through strings.Fields and strconv.Atoi, whose Unicode notion of space
// and integer syntax the format has always used.
func parsePair(line []byte) (a, b int, skip, ok bool) {
	if a, b, ok := plainPair(line); ok {
		return a, b, false, true
	}
	if i := skipSpace(line, 0); i == len(line) || line[i] == '#' {
		return 0, 0, true, false
	}
	return parseFields(string(line))
}

// plainPair parses the common line shape in one pass: optional ASCII
// space, two runs of at most 18 digits (no sign, no int64 overflow)
// separated by ASCII space, optional ASCII space. ok is false for any
// other line, which parsePair then reads the general way.
func plainPair(line []byte) (a, b int, ok bool) {
	i := skipSpace(line, 0)
	a, j := digits(line, i)
	if j == i || j == len(line) || !asciiSpace[line[j]] {
		return 0, 0, false
	}
	i = skipSpace(line, j)
	b, j = digits(line, i)
	if j == i || skipSpace(line, j) != len(line) {
		return 0, 0, false
	}
	return a, b, true
}

func skipSpace(line []byte, i int) int {
	for i < len(line) && asciiSpace[line[i]] {
		i++
	}
	return i
}

// digits parses up to 18 decimal digits at line[i:] and returns the value
// and the index past them.
func digits(line []byte, i int) (v, j int) {
	for j = i; j < len(line) && j-i < 18; j++ {
		c := line[j] - '0'
		if c > 9 {
			break
		}
		v = v*10 + int(c)
	}
	return v, j
}

// parseFields is parsePair for lines plainPair does not take.
func parseFields(line string) (a, b int, skip, ok bool) {
	line = strings.TrimSpace(line)
	if line == "" || strings.HasPrefix(line, "#") {
		return 0, 0, true, false
	}
	f := strings.Fields(line)
	if len(f) != 2 {
		return 0, 0, false, false
	}
	a, err1 := strconv.Atoi(f[0])
	b, err2 := strconv.Atoi(f[1])
	return a, b, false, err1 == nil && err2 == nil
}

// fromPairs builds the graph over n vertices from edge pairs in input
// order, keeping each edge's first occurrence. Two stable counting sorts
// (by tail, then by head) lay the out- and in-lists out in one array per
// direction. Each list is capped at its own length, so a later AddEdge
// reallocates that list instead of overwriting its neighbour's.
func fromPairs(n int, pairs []int32) *Digraph {
	g := New(n)
	if len(pairs) == 0 {
		return g
	}
	// off is a counting sort's cursor array: off[v+1] counts, prefix sums
	// turn off[v] into v's first slot, and placement leaves it at v's end.
	off := make([]int32, n+1)
	prefix := func() {
		for v := 1; v <= n; v++ {
			off[v] += off[v-1]
		}
	}
	// Edge ids grouped by tail, in input order within a tail.
	for i := 0; i < len(pairs); i += 2 {
		off[pairs[i]+1]++
	}
	prefix()
	out := make([]int32, len(pairs)/2)
	for i := 0; i < len(pairs); i += 2 {
		u := pairs[i]
		out[off[u]] = int32(i / 2)
		off[u]++
	}
	// Replace each edge id by its head, compacting duplicates away and
	// marking them in pairs for the in side. out[w] is written only after
	// it was read, so the compaction runs in place. A tail with one edge
	// has no duplicate to look for.
	seen := make([]int32, n) // seen[v] == u+1: edge (u,v) already kept
	var w, lo int32
	for u := range int32(n) {
		first, hi := w, off[u]
		for _, e := range out[lo:hi] {
			v := pairs[2*e+1]
			if hi-lo > 1 {
				if seen[v] == u+1 {
					pairs[2*e] = -1
					continue
				}
				seen[v] = u + 1
			}
			out[w] = v
			w++
		}
		if w > first {
			g.out[u] = out[first:w:w]
		}
		lo = hi
	}
	g.m = int(w)
	// Tails grouped by head, in input order within a head.
	clear(off)
	for i := 0; i < len(pairs); i += 2 {
		if pairs[i] >= 0 {
			off[pairs[i+1]+1]++
		}
	}
	prefix()
	in := make([]int32, w)
	for i := 0; i < len(pairs); i += 2 {
		if u, v := pairs[i], pairs[i+1]; u >= 0 {
			in[off[v]] = u
			off[v]++
		}
	}
	lo = 0
	for v, hi := range off[:n] {
		if hi > lo {
			g.in[v] = in[lo:hi:hi]
			lo = hi
		}
	}
	return g
}

// Equal reports whether two graphs have identical vertex counts and edge
// sets (adjacency order is ignored).
func Equal(a, b *Digraph) bool {
	if a.NumVertices() != b.NumVertices() || a.NumEdges() != b.NumEdges() {
		return false
	}
	for u := 0; u < a.NumVertices(); u++ {
		if len(a.out[u]) != len(b.out[u]) {
			return false
		}
		for _, v := range a.out[u] {
			if !contains(b.out[u], v) {
				return false
			}
		}
	}
	return true
}
