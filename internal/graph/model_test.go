package graph

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"slices"
	"strings"
	"testing"
)

// model is the reference Digraph: one slice per vertex and side, with the
// documented list semantics (append at the end, swap-remove).
type model struct {
	out, in [][]int32
	m       int
}

func newModel(n int) *model {
	return &model{out: make([][]int32, n), in: make([][]int32, n)}
}

func (md *model) n() int { return len(md.out) }

func (md *model) has(u, v int) bool {
	return u >= 0 && u < md.n() && v >= 0 && v < md.n() && slices.Contains(md.out[u], int32(v))
}

func (md *model) add(u, v int) error {
	switch {
	case u < 0 || u >= md.n() || v < 0 || v >= md.n():
		return ErrVertexRange
	case u == v:
		return ErrSelfLoop
	case md.has(u, v):
		return ErrDuplicateEdge
	}
	md.out[u] = append(md.out[u], int32(v))
	md.in[v] = append(md.in[v], int32(u))
	md.m++
	return nil
}

func swapRemove(l []int32, x int32) []int32 {
	i := slices.Index(l, x)
	l[i] = l[len(l)-1]
	return l[:len(l)-1]
}

func (md *model) remove(u, v int) error {
	switch {
	case u < 0 || u >= md.n() || v < 0 || v >= md.n():
		return ErrVertexRange
	case !md.has(u, v):
		return ErrMissingEdge
	}
	md.out[u] = swapRemove(md.out[u], int32(v))
	md.in[v] = swapRemove(md.in[v], int32(u))
	md.m--
	return nil
}

// agree reports the first way g differs from the model: vertex and edge
// counts, every Out and In list in order, degrees, HasEdge on each edge,
// on a rotating sample of non-edges and out of range, Edges() and the
// WriteEdgeList bytes.
func agree(g *Digraph, md *model, r *rand.Rand) error {
	n := md.n()
	if g.NumVertices() != n || g.NumEdges() != md.m {
		return fmt.Errorf("n, m = %d, %d, want %d, %d", g.NumVertices(), g.NumEdges(), n, md.m)
	}
	var want [][2]int
	for v := range n {
		if !slices.Equal(g.Out(v), md.out[v]) {
			return fmt.Errorf("Out(%d) = %v, want %v", v, g.Out(v), md.out[v])
		}
		if !slices.Equal(g.In(v), md.in[v]) {
			return fmt.Errorf("In(%d) = %v, want %v", v, g.In(v), md.in[v])
		}
		if g.OutDegree(v) != len(md.out[v]) || g.InDegree(v) != len(md.in[v]) || g.Degree(v) != len(md.out[v])+len(md.in[v]) {
			return fmt.Errorf("degrees of %d = %d/%d, want %d/%d", v, g.OutDegree(v), g.InDegree(v), len(md.out[v]), len(md.in[v]))
		}
		for _, w := range md.out[v] {
			if !g.HasEdge(v, int(w)) {
				return fmt.Errorf("HasEdge(%d,%d) = false", v, w)
			}
			want = append(want, [2]int{v, int(w)})
		}
		if u := r.Intn(n+2) - 1; g.HasEdge(v, u) != md.has(v, u) {
			return fmt.Errorf("HasEdge(%d,%d) = %v", v, u, !md.has(v, u))
		}
	}
	if g.HasEdge(-1, 0) || g.HasEdge(0, n) {
		return fmt.Errorf("HasEdge true out of range")
	}
	if got := g.Edges(); !slices.Equal(got, want) {
		return fmt.Errorf("Edges() = %v, want %v", got, want)
	}
	var gotList, wantList bytes.Buffer
	if err := g.WriteEdgeList(&gotList); err != nil {
		return err
	}
	fmt.Fprintf(&wantList, "%d %d\n", n, md.m)
	for _, e := range want {
		fmt.Fprintf(&wantList, "%d %d\n", e[0], e[1])
	}
	if !bytes.Equal(gotList.Bytes(), wantList.Bytes()) {
		return fmt.Errorf("WriteEdgeList differs:\n%s\nwant\n%s", gotList.Bytes(), wantList.Bytes())
	}
	return nil
}

// runOps decodes data into a graph and a sequence of operations, applies
// each to the graph and the model and checks that they agree after every
// one. The first byte sizes the graph, the next few seed its starting
// edges (built by FromPairs); then every three bytes are one op: AddEdge,
// RemoveEdge, AddVertex, Clone, Reverse, or a burst of random flaps that
// pushes the overflow past its fold threshold. It returns the number of
// folds seen.
func runOps(t *testing.T, data []byte) (folds int) {
	next := func() int {
		if len(data) == 0 {
			return 0
		}
		b := data[0]
		data = data[1:]
		return int(b)
	}
	n := 1 + next()%160
	r := rand.New(rand.NewSource(int64(next())))
	md := newModel(n)
	var pairs []int32
	for range next() % 64 * 4 {
		u, v := r.Intn(n), r.Intn(n)
		if md.add(u, v) == nil {
			pairs = append(pairs, int32(u), int32(v))
		}
	}
	g, err := FromPairs(n, pairs)
	if err != nil {
		t.Fatalf("FromPairs: %v", err)
	}
	if err := agree(g, md, r); err != nil {
		t.Fatalf("after FromPairs: %v", err)
	}
	for step := 0; len(data) > 0; step++ {
		op, a, b := next()%6, next(), next()
		u, v := a%(md.n()+1), b%(md.n()+1) // md.n() is out of range
		touched := len(g.out.over) + len(g.in.over)
		var desc string
		switch op {
		case 0:
			desc = fmt.Sprintf("AddEdge(%d,%d)", u, v)
			if got, want := g.AddEdge(u, v), md.add(u, v); got != want {
				t.Fatalf("step %d %s: err %v, want %v", step, desc, got, want)
			}
		case 1:
			desc = fmt.Sprintf("RemoveEdge(%d,%d)", u, v)
			if got, want := g.RemoveEdge(u, v), md.remove(u, v); got != want {
				t.Fatalf("step %d %s: err %v, want %v", step, desc, got, want)
			}
		case 2:
			desc = "AddVertex"
			md.out, md.in = append(md.out, nil), append(md.in, nil)
			if got := g.AddVertex(); got != md.n()-1 {
				t.Fatalf("step %d AddVertex = %d, want %d", step, got, md.n()-1)
			}
		case 3:
			// Growing a clone leaves the original as it was (agree checks);
			// every other Clone op carries on with the clone.
			desc = "Clone"
			c := g.Clone()
			if err := c.AddEdge(0, c.AddVertex()); err != nil {
				t.Fatalf("step %d: clone AddEdge: %v", step, err)
			}
			if a%2 == 0 {
				g = g.Clone()
			}
		case 4:
			desc = "Reverse"
			g = g.Reverse()
			md.out, md.in = md.in, md.out
		case 5:
			desc = fmt.Sprintf("burst(%d)", a)
			for range 8 * (1 + a%32) {
				x, y := r.Intn(md.n()), r.Intn(md.n())
				if md.has(x, y) {
					if err := g.RemoveEdge(x, y); err != nil || md.remove(x, y) != nil {
						t.Fatalf("step %d %s: RemoveEdge(%d,%d): %v", step, desc, x, y, err)
					}
				} else if md.add(x, y) == nil {
					if err := g.AddEdge(x, y); err != nil {
						t.Fatalf("step %d %s: AddEdge(%d,%d): %v", step, desc, x, y, err)
					}
				}
				if len(g.out.over)+len(g.in.over) < touched {
					folds++
				}
				touched = len(g.out.over) + len(g.in.over)
			}
		}
		if op <= 1 && len(g.out.over)+len(g.in.over) < touched {
			folds++
		}
		if err := agree(g, md, r); err != nil {
			t.Fatalf("step %d after %s: %v", step, desc, err)
		}
	}
	return folds
}

// A long random op sequence against the model crosses the fold
// threshold many times, and the graph agrees with the model throughout.
func TestDigraphMatchesModel(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	folds := 0
	for range 10 {
		data := make([]byte, 3+3*150)
		r.Read(data)
		data[0] = byte(100 + r.Intn(60)) // large enough to pass the fold floor
		folds += runOps(t, data)
	}
	if folds < 10 {
		t.Fatalf("%d folds, want the op sequences to cross the threshold at least 10 times", folds)
	}
}

// FuzzDigraphOps checks arbitrary op sequences against the model.
func FuzzDigraphOps(f *testing.F) {
	f.Add([]byte{3, 1, 2, 0, 0, 1, 0, 1, 2, 1, 0, 1, 2, 0, 0, 4, 0, 0, 3, 0, 0})
	f.Add([]byte{150, 7, 40, 5, 31, 0, 5, 31, 0, 1, 3, 4, 4, 0, 0, 5, 31, 0})
	f.Add([]byte{0, 0, 0, 2, 0, 0, 0, 0, 1, 1, 1, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 3*400 {
			t.Skip("op sequence too long")
		}
		runOps(t, data)
	})
}

// FromPairs and FromEdges fail on the first invalid edge in input order,
// as AddEdge on each in turn would, and name it.
func TestFromPairsStrict(t *testing.T) {
	for _, tc := range []struct {
		edges [][2]int
		want  error
		msg   string
	}{
		{[][2]int{{0, 1}, {1, 2}, {2, 0}}, nil, ""},
		{[][2]int{{0, 1}, {1, 1}, {0, 1}}, ErrSelfLoop, "edge (1,1)"},
		{[][2]int{{0, 1}, {0, 1}, {1, 1}}, ErrDuplicateEdge, "edge (0,1)"},
		{[][2]int{{2, 0}, {1, 2}, {0, 1}, {2, 0}, {0, 3}}, ErrDuplicateEdge, "edge (2,0)"},
		{[][2]int{{0, 1}, {0, 3}, {0, 1}}, ErrVertexRange, "edge (0,3)"},
		{[][2]int{{0, 1}, {-1, 2}}, ErrVertexRange, "edge (-1,2)"},
		{[][2]int{{0, 1 << 32}}, ErrVertexRange, "edge (0,4294967296)"},
	} {
		g, err := FromEdges(3, tc.edges)
		if tc.want == nil {
			if err != nil || g.NumEdges() != len(tc.edges) {
				t.Errorf("FromEdges(%v) = %v, %v", tc.edges, g, err)
			}
			continue
		}
		if !errors.Is(err, tc.want) || !strings.HasPrefix(err.Error(), tc.msg+":") {
			t.Errorf("FromEdges(%v) err = %v, want %v on %s", tc.edges, err, tc.want, tc.msg)
		}
	}
}
