// Package graph provides the dynamic directed-graph substrate the index
// is built on: adjacency lists with O(deg) edge insertion and deletion, a
// reverse view, and plain-text edge-list I/O.
//
// Vertices are dense integers [0, N). The paper's graphs are directed and
// self-loop free (§VI-A), so AddEdge rejects self-loops; parallel edges are
// rejected as well since the algorithms treat E as a set.
//
// Each side of a Digraph (out-lists and in-lists) is laid out as
// compressed sparse rows: one offset array of n+1 entries and one array
// of neighbour ids, 8 bytes per vertex and 8 per edge for both sides
// together. Out and In of a vertex no write has touched are one branch
// and a slice of those arrays. The first write to a vertex moves its
// list into a per-side overflow (a spill array and a map from the
// touched vertices into it); once the overflow outgrows a fixed share of
// the arrays, every list is folded back into the arrays in O(n+m).
// Lists keep insertion order (appends at the end, swap-removes) through
// every move and fold. FromPairs, FromEdges and ReadEdgeList build the
// arrays directly from a known edge set; Clone and Reverse copy them.
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
	out, in adjacency
	n, m    int
}

// New returns an empty directed graph with n vertices and no edges.
func New(n int) *Digraph {
	return &Digraph{out: newAdjacency(n), in: newAdjacency(n), n: n}
}

// FromPairs builds a graph with n vertices whose edges are the pairs
// u0 v0 u1 v1 …, with every adjacency list in the order AddEdge called on
// each pair in turn would leave it. Like those calls it fails on the
// first pair, in input order, that is out of range, a self-loop or a
// repeat of an earlier pair. pairs is neither kept nor modified.
func FromPairs(n int, pairs []int32) (*Digraph, error) {
	g, i, err := fromPairsStrict(n, pairs)
	if err != nil {
		return nil, fmt.Errorf("edge (%d,%d): %w", pairs[2*i], pairs[2*i+1], err)
	}
	return g, nil
}

// FromEdges builds a graph with n vertices and the given (u,v) edge pairs,
// as FromPairs does.
func FromEdges(n int, edges [][2]int) (*Digraph, error) {
	pairs := make([]int32, 0, 2*len(edges))
	for _, e := range edges {
		u, v := int32(e[0]), int32(e[1])
		if e[0] < 0 || e[0] >= n || e[1] < 0 || e[1] >= n {
			u = -1 // out of range, whatever the int32 conversion gives
		}
		pairs = append(pairs, u, v)
	}
	g, i, err := fromPairsStrict(n, pairs)
	if err != nil {
		return nil, fmt.Errorf("edge (%d,%d): %w", edges[i][0], edges[i][1], err)
	}
	return g, nil
}

// fromPairsStrict is FromPairs returning the index of the failing pair.
func fromPairsStrict(n int, pairs []int32) (*Digraph, int, error) {
	bad, why := len(pairs)/2, error(nil)
	for i := 0; i < len(pairs); i += 2 {
		if u, v := pairs[i], pairs[i+1]; u < 0 || int(u) >= n || v < 0 || int(v) >= n {
			bad, why = i/2, ErrVertexRange
			break
		} else if u == v {
			bad, why = i/2, ErrSelfLoop
			break
		}
	}
	// A repeat can only come first among the pairs before bad, which are
	// all in range and loop-free.
	g, dup := fromPairs(n, pairs[:2*bad], false)
	if dup >= 0 {
		return nil, dup, ErrDuplicateEdge
	}
	if why != nil {
		return nil, bad, why
	}
	return g, -1, nil
}

// NumVertices returns the number of vertices.
func (g *Digraph) NumVertices() int { return g.n }

// AddVertex appends a fresh isolated vertex and returns its id.
func (g *Digraph) AddVertex() int {
	g.out.grow()
	g.in.grow()
	g.n++
	return g.n - 1
}

// NumEdges returns the number of directed edges.
func (g *Digraph) NumEdges() int { return g.m }

// Bytes returns the graph's adjacency footprint in bytes, from the
// capacities of its arrays plus an estimate of its overflow maps.
func (g *Digraph) Bytes() int { return g.out.bytes() + g.in.bytes() }

// OutDegree returns |nbr_out(v)|.
func (g *Digraph) OutDegree(v int) int { return len(g.out.list(v)) }

// InDegree returns |nbr_in(v)|.
func (g *Digraph) InDegree(v int) int { return len(g.in.list(v)) }

// Degree returns the paper's degree(v): in-degree plus out-degree.
func (g *Digraph) Degree(v int) int { return g.OutDegree(v) + g.InDegree(v) }

// MinInOutDegree returns min(|nbr_in(v)|, |nbr_out(v)|), the quantity the
// paper clusters query vertices by (§VI-A).
func (g *Digraph) MinInOutDegree(v int) int { return min(g.InDegree(v), g.OutDegree(v)) }

// Out returns the out-neighbor slice of v. The slice is owned by the graph
// and must not be mutated or retained across mutations.
func (g *Digraph) Out(v int) []int32 { return g.out.list(v) }

// In returns the in-neighbor slice of v with the same aliasing caveat as Out.
func (g *Digraph) In(v int) []int32 { return g.in.list(v) }

// HasEdge reports whether the directed edge (u,v) exists.
func (g *Digraph) HasEdge(u, v int) bool {
	if !g.valid(u) || !g.valid(v) {
		return false
	}
	// Scan the smaller of u's out-list and v's in-list.
	out, in := g.out.list(u), g.in.list(v)
	if len(out) <= len(in) {
		return slices.Contains(out, int32(v))
	}
	return slices.Contains(in, int32(u))
}

func (g *Digraph) valid(v int) bool { return v >= 0 && v < g.n }

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
	g.out.add(u, int32(v))
	g.in.add(v, int32(u))
	g.m++
	g.maybeFold()
	return nil
}

// RemoveEdge deletes the directed edge (u,v).
func (g *Digraph) RemoveEdge(u, v int) error {
	if !g.valid(u) || !g.valid(v) {
		return ErrVertexRange
	}
	if !g.HasEdge(u, v) {
		return ErrMissingEdge
	}
	g.out.remove(u, int32(v))
	g.in.remove(v, int32(u))
	g.m--
	g.maybeFold()
	return nil
}

func (g *Digraph) maybeFold() {
	g.out.maybeFold(g.m)
	g.in.maybeFold(g.m)
}

// Edges returns all directed edges as (u,v) pairs in out-adjacency order.
func (g *Digraph) Edges() [][2]int {
	edges := make([][2]int, 0, g.m)
	for u := range g.n {
		for _, v := range g.Out(u) {
			edges = append(edges, [2]int{u, int(v)})
		}
	}
	return edges
}

// Clone returns a deep copy of the graph, every list in the same order,
// laid out as fresh arrays.
func (g *Digraph) Clone() *Digraph {
	return &Digraph{out: g.out.copied(g.m), in: g.in.copied(g.m), n: g.n, m: g.m}
}

// Reverse returns a new graph with every edge direction flipped: its
// out-lists are g's in-lists and its in-lists g's out-lists, in order.
func (g *Digraph) Reverse() *Digraph {
	return &Digraph{out: g.in.copied(g.m), in: g.out.copied(g.m), n: g.n, m: g.m}
}

// WriteEdgeList writes the graph as "n m" followed by one "u v" line per
// edge — the same plain format SNAP distributes.
func (g *Digraph) WriteEdgeList(w io.Writer) error {
	bw := bufio.NewWriter(w)
	if _, err := fmt.Fprintf(bw, "%d %d\n", g.NumVertices(), g.NumEdges()); err != nil {
		return err
	}
	for u := range g.n {
		for _, v := range g.Out(u) {
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
// never trusted); the lenient form of the bulk constructor behind
// FromPairs then lays them out.
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
	g, _ := fromPairs(n, pairs, true)
	return g, nil
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

// Equal reports whether two graphs have identical vertex counts and edge
// sets, checking both the out-lists and the in-lists (adjacency order is
// ignored).
func Equal(a, b *Digraph) bool {
	if a.NumVertices() != b.NumVertices() || a.NumEdges() != b.NumEdges() {
		return false
	}
	for v := range a.NumVertices() {
		if !sameSet(a.Out(v), b.Out(v)) || !sameSet(a.In(v), b.In(v)) {
			return false
		}
	}
	return true
}

// sameSet reports whether two duplicate-free lists hold the same ids.
func sameSet(x, y []int32) bool {
	if len(x) != len(y) {
		return false
	}
	for _, w := range x {
		if !slices.Contains(y, w) {
			return false
		}
	}
	return true
}
