package partition

import (
	"math/rand"
	"slices"
	"sort"
	"testing"

	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/testgraphs"
)

// refSCC is the sort-based numbering SCC used before the counting sort:
// one member slice per component, each sorted, then the components sorted
// by first member. The walk is the same iterative Tarjan.
func refSCC(g *graph.Digraph) *Partition {
	n := g.NumVertices()
	const unvisited = -1
	index := make([]int32, n)
	low := make([]int32, n)
	onStack := make([]bool, n)
	comp := make([]int32, n)
	for v := range index {
		index[v] = unvisited
		comp[v] = -1
	}
	stack := make([]int32, 0, n)
	var next int32
	type frame struct {
		v    int32
		edge int32
	}
	var frames []frame
	var raw [][]int32
	for root := 0; root < n; root++ {
		if index[root] != unvisited {
			continue
		}
		frames = append(frames[:0], frame{v: int32(root)})
		index[root] = next
		low[root] = next
		next++
		stack = append(stack, int32(root))
		onStack[root] = true
		for len(frames) > 0 {
			f := &frames[len(frames)-1]
			v := f.v
			out := g.Out(int(v))
			if int(f.edge) < len(out) {
				w := out[f.edge]
				f.edge++
				if index[w] == unvisited {
					index[w] = next
					low[w] = next
					next++
					stack = append(stack, w)
					onStack[w] = true
					frames = append(frames, frame{v: w})
				} else if onStack[w] && index[w] < low[v] {
					low[v] = index[w]
				}
				continue
			}
			frames = frames[:len(frames)-1]
			if len(frames) > 0 {
				if p := frames[len(frames)-1].v; low[v] < low[p] {
					low[p] = low[v]
				}
			}
			if low[v] == index[v] {
				var members []int32
				for {
					w := stack[len(stack)-1]
					stack = stack[:len(stack)-1]
					onStack[w] = false
					members = append(members, w)
					if w == v {
						break
					}
				}
				raw = append(raw, members)
			}
		}
	}
	for _, members := range raw {
		sort.Slice(members, func(i, j int) bool { return members[i] < members[j] })
	}
	sort.Slice(raw, func(i, j int) bool { return raw[i][0] < raw[j][0] })
	for c, members := range raw {
		for _, v := range members {
			comp[v] = int32(c)
		}
	}
	return &Partition{Comp: comp, Comps: raw}
}

// ledgerShaped is a background payment network with the benchmark
// ledger's proportions: n accounts, 1.1n edges, planted criminal rings.
func ledgerShaped(n int) *graph.Digraph {
	return gen.TransactionNetwork(n, n+n/10, n/500, 4, 4, 1).G
}

// SCC's counting-sort numbering equals the sort-based one on random
// graphs, the conformance families and a ledger-shaped network, and every
// member list is capped at its own length.
func TestSCCMatchesSortedReference(t *testing.T) {
	type named struct {
		name string
		g    *graph.Digraph
	}
	var cases []named
	for _, ng := range testgraphs.Corpus() {
		cases = append(cases, named{ng.Name, ng.G})
	}
	cases = append(cases,
		named{"empty", graph.New(0)},
		named{"isolated", graph.New(7)},
		named{"ledger-shaped", ledgerShaped(5000)},
	)
	r := rand.New(rand.NewSource(15))
	for trial := 0; trial < 40; trial++ {
		n := 1 + r.Intn(60)
		g := graph.New(n)
		for i := r.Intn(3 * n); i > 0; i-- {
			_ = g.AddEdge(r.Intn(n), r.Intn(n)) // self-loops and duplicates rejected
		}
		cases = append(cases, named{"random", g})
	}
	for _, c := range cases {
		got, want := SCC(c.g), refSCC(c.g)
		if !slices.Equal(got.Comp, want.Comp) {
			t.Fatalf("%s: Comp = %v, want %v", c.name, got.Comp, want.Comp)
		}
		if len(got.Comps) != len(want.Comps) {
			t.Fatalf("%s: %d comps, want %d", c.name, len(got.Comps), len(want.Comps))
		}
		for i := range want.Comps {
			if !slices.Equal(got.Comps[i], want.Comps[i]) {
				t.Fatalf("%s: comp %d = %v, want %v", c.name, i, got.Comps[i], want.Comps[i])
			}
		}
		for i := 0; i+1 < len(got.Comps); i++ {
			nextComp := slices.Clone(got.Comps[i+1])
			_ = append(got.Comps[i], -1)
			if !slices.Equal(got.Comps[i+1], nextComp) {
				t.Fatalf("%s: append to comp %d overwrote comp %d", c.name, i, i+1)
			}
		}
	}
}

// SCC's allocations do not grow with the number of components: the
// ledger-shaped network has thousands of singletons.
func TestSCCAllocs(t *testing.T) {
	g := ledgerShaped(20000)
	if k := len(SCC(g).Comps); k < 10000 {
		t.Fatalf("only %d components; the budget check needs many", k)
	}
	if a := testing.AllocsPerRun(3, func() { SCC(g) }); a > 32 {
		t.Fatalf("SCC: %.0f allocs/op, budget 32", a)
	}
}

func BenchmarkSCC(b *testing.B) {
	g := ledgerShaped(100000)
	b.ReportAllocs()
	for b.Loop() {
		SCC(g)
	}
}
