package graph

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"io"
	"strconv"
	"strings"
	"testing"
	"testing/iotest"
)

// refReadEdgeList is the line-scanner parser ReadEdgeList replaced, kept
// as the differential reference: bufio.Scanner lines, strings.Fields,
// strconv.Atoi and one AddEdge per edge.
func refReadEdgeList(r io.Reader) (*Digraph, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<16), 1<<24)
	var g *Digraph
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		f := strings.Fields(line)
		if len(f) != 2 {
			return nil, fmt.Errorf("%w: %q", ErrMalformedInput, line)
		}
		a, err1 := strconv.Atoi(f[0])
		b, err2 := strconv.Atoi(f[1])
		if err1 != nil || err2 != nil {
			return nil, fmt.Errorf("%w: %q", ErrMalformedInput, line)
		}
		if g == nil {
			if a < 0 || b < 0 {
				return nil, fmt.Errorf("%w: negative header", ErrMalformedInput)
			}
			g = New(a)
			continue
		}
		err := g.AddEdge(a, b)
		if err != nil && !errors.Is(err, ErrSelfLoop) && !errors.Is(err, ErrDuplicateEdge) {
			return nil, fmt.Errorf("edge (%d,%d): %w", a, b, err)
		}
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	if g == nil {
		return nil, fmt.Errorf("%w: empty input", ErrMalformedInput)
	}
	return g, nil
}

// fuzzMaxVertices bounds the header the fuzz target hands to the
// reference parser, which allocates whatever vertex count it is given.
const fuzzMaxVertices = 1 << 16

// declaredVertices returns the vertex count an input's header declares,
// or -1 when the input has no well-formed header.
func declaredVertices(data []byte) int {
	sc := bufio.NewScanner(bytes.NewReader(data))
	sc.Buffer(make([]byte, 1<<16), 1<<24)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		f := strings.Fields(line)
		if len(f) != 2 {
			return -1
		}
		n, err := strconv.Atoi(f[0])
		if err != nil {
			return -1
		}
		return n
	}
	return -1
}

// sameGraph reports the first difference between two parsed graphs,
// adjacency order included.
func sameGraph(got, want *Digraph) error {
	if !Equal(got, want) {
		return fmt.Errorf("graphs differ: n=%d/%d m=%d/%d", got.NumVertices(), want.NumVertices(), got.NumEdges(), want.NumEdges())
	}
	for v := range want.NumVertices() {
		if fmt.Sprint(got.Out(v)) != fmt.Sprint(want.Out(v)) {
			return fmt.Errorf("Out(%d) = %v, want %v", v, got.Out(v), want.Out(v))
		}
		if fmt.Sprint(got.In(v)) != fmt.Sprint(want.In(v)) {
			return fmt.Errorf("In(%d) = %v, want %v", v, got.In(v), want.In(v))
		}
	}
	return nil
}

// ReadEdgeList agrees with the reference parser on every input: the same
// error or no error, the same message, and the same graph down to the
// order of every adjacency list. Small inputs are also fed one byte per
// Read, so lines straddle the reader's buffer refills; large ones already
// do, and a byte-wise replay would only slow their minimization down.
func FuzzReadEdgeList(f *testing.F) {
	for _, seed := range []string{
		"4 3\n0 1\n1 2\n2 0\n",
		"# comment\n4 0\n0 1\n0 1\n2 2\n3 0\n",
		"\n\n  # indented comment\n3 2\n\n0 1\n",
		"3 2\r\n0 1\r\n1 2\r\n",
		"3\t2\n0\t1\n \t1 2\t \n",
		"  3 2  \n   0 1   \n",
		"+3 +2\n+0 +1\n-0 2\n",
		"3 1\n-1 2\n",
		"3 1\n0 3\n",
		"3 2\n2 2\n1 1\n0 1\n0 1\n1 0\n",
		"3\n",
		"3 1 1\n",
		"3 1\n0 1 2\n",
		"3 1\n0\n",
		"3 1\n0 1",
		"3 1\n0 x\n",
		"3 -1\n",
		"-3 1\n",
		"3 1\n0 99999999999999999999\n",
		"3 1\n0 1 # trailing\n",
		"3 1\n0 1\n",
		"3 1\n\u00850 1\n",
		"3 3000000000\n0 1\n",
		"",
		"\n",
		"# only a comment\n",
		"5 4\n4 3\n4 0\n4 2\n3 4\n0 4\n4 0\n",
		"3 1\n" + strings.Repeat(" ", 65<<10) + "0 1\n1 2\n",
	} {
		f.Add([]byte(seed))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		if declaredVertices(data) > fuzzMaxVertices {
			t.Skip("header too large for the reference parser")
		}
		want, wantErr := refReadEdgeList(bytes.NewReader(data))
		readers := []io.Reader{bytes.NewReader(data)}
		if len(data) <= 4<<10 {
			readers = append(readers, iotest.OneByteReader(bytes.NewReader(data)))
		}
		for _, r := range readers {
			got, err := ReadEdgeList(r)
			if (err == nil) != (wantErr == nil) {
				t.Fatalf("%q: err = %v, want %v", data, err, wantErr)
			}
			if err != nil {
				if err.Error() != wantErr.Error() {
					t.Fatalf("%q: err = %q, want %q", data, err, wantErr)
				}
				continue
			}
			if d := sameGraph(got, want); d != nil {
				t.Fatalf("%q: %v", data, d)
			}
		}
	})
}

// Parsed adjacency lists share one backing array per direction, each
// capped at its own length: growing one list must leave its neighbours'
// lists alone.
func TestReadEdgeListListsAreCapped(t *testing.T) {
	g, err := ReadEdgeList(strings.NewReader("4 5\n0 1\n0 2\n1 2\n1 3\n2 0\n"))
	if err != nil {
		t.Fatal(err)
	}
	if err := g.AddEdge(0, 3); err != nil {
		t.Fatal(err)
	}
	if err := g.AddEdge(3, 2); err != nil {
		t.Fatal(err)
	}
	for v, want := range [][]int32{{1, 2, 3}, {2, 3}, {0}, {2}} {
		if fmt.Sprint(g.Out(v)) != fmt.Sprint(want) {
			t.Fatalf("Out(%d) = %v, want %v", v, g.Out(v), want)
		}
	}
	for v, want := range [][]int32{{2}, {0}, {0, 1, 3}, {1, 0}} {
		if fmt.Sprint(g.In(v)) != fmt.Sprint(want) {
			t.Fatalf("In(%d) = %v, want %v", v, g.In(v), want)
		}
	}
}
