package main

import (
	"fmt"
	"math/rand"
	"os"
	"path/filepath"

	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/partition"
)

// scaleSpec sizes the ledger graph. medium is the benchmark; smoke is a
// 2k-vertex copy with the same shape, only for the package's own test.
type scaleSpec struct {
	name string
	// Background payment network: gen.TransactionNetwork(bgN, bgM,
	// criminals, rings, ringLen, graphSeed).
	bgN, bgM, criminals, rings, ringLen int
	// Dense core: gen.PowerLaw({coreN, coreM, graphSeed+1}, 2.0, 1.9),
	// shifted to ids [bgN, bgN+coreN).
	coreN, coreM int
	// traceReads and traceWrites cap the traced replay's op sequence: every
	// layer twin replays it sequentially, so its length bounds the traced
	// run's time.
	traceReads, traceWrites int
}

var scales = map[string]scaleSpec{
	"medium": {
		name: "medium", bgN: 100000, bgM: 110000, criminals: 200, rings: 4, ringLen: 4,
		coreN: 2000, coreM: 40000, traceReads: 4000, traceWrites: 128,
	},
	"smoke": {
		name: "smoke", bgN: 2000, bgM: 2200, criminals: 20, rings: 4, ringLen: 4,
		coreN: 200, coreM: 4000, traceReads: 400, traceWrites: 32,
	},
}

// repairPool is how many proven non-bridge core edges the repair
// workload cycles through. A 20 s window deletes every edge of the pool
// four or five times, so the runs differ mostly in order. Delete costs vary
// by more than 10x between edges; a run that deleted a different sample
// would move its capacity with the sample.
const repairPool = 120

// ledger is the benchmark graph and the facts the workloads draw on. g is
// the initial graph; nothing mutates it after buildLedger returns.
type ledger struct {
	g          *graph.Digraph
	criminals  []int
	bgLo, bgHi int // background accounts [bgLo, bgHi)
	coreLo     int // dense core [coreLo, n)
	// bgEdges holds the initial background edges, oldest first.
	bgEdges [][2]int
	// repairEdges are core edges whose tail still reaches their head
	// without them, so deleting one can never split a component; the
	// workload cycles through them in this (seeded) order.
	repairEdges [][2]int
}

// graphSeed fixes the ledger's structure. The benchmark's seed varies
// everything a run sends — which accounts are hot, which edges come and
// go, the order of the core-edge repairs, which vertices the oracle checks —
// but not the graph: label size, the size of the largest background
// component and the density of the core all swing by 10-40% between
// generator seeds, and the costs of every layer follow them.
const graphSeed = 1

// buildLedger generates the fixed ledger graph and derives the seeded
// parts of the workloads from it.
func buildLedger(sc scaleSpec, seed int64) *ledger {
	tx := gen.TransactionNetwork(sc.bgN, sc.bgM, sc.criminals, sc.rings, sc.ringLen, graphSeed)
	core := gen.PowerLaw(gen.Config{N: sc.coreN, M: sc.coreM, Seed: graphSeed + 1}, 2.0, 1.9)
	g := tx.G
	l := &ledger{
		g:         g,
		criminals: tx.Criminals,
		bgLo:      sc.criminals * (1 + sc.rings*(sc.ringLen-1)),
		bgHi:      sc.bgN,
		coreLo:    sc.bgN,
	}
	for range sc.coreN {
		g.AddVertex()
	}
	for u := range sc.coreN {
		for _, v := range core.Out(u) {
			_ = g.AddEdge(l.coreLo+u, l.coreLo+int(v)) // core edges are unique and loop-free
		}
	}

	var coreEdges [][2]int
	for u := range g.NumVertices() {
		for _, v := range g.Out(u) {
			e := [2]int{u, int(v)}
			switch {
			case u >= l.bgLo && u < l.bgHi:
				l.bgEdges = append(l.bgEdges, e)
			case u >= l.coreLo:
				coreEdges = append(coreEdges, e)
			}
		}
	}
	// The repair pool is part of the fixed dataset, like the graph: every
	// seed repairs the same edges, in its own order.
	shuffle(rand.New(rand.NewSource(graphSeed)), coreEdges)
	comp := partition.SCC(g)
	for _, e := range coreEdges {
		if len(l.repairEdges) == repairPool {
			break
		}
		if comp.Comp[e[0]] == comp.Comp[e[1]] && partition.ReachableSkip(g, e[0], e[1], e[0], e[1]) {
			l.repairEdges = append(l.repairEdges, e)
		}
	}
	r := rand.New(rand.NewSource(seed + 2))
	shuffle(r, l.bgEdges)
	shuffle(r, l.repairEdges)
	return l
}

func shuffle(r *rand.Rand, es [][2]int) {
	r.Shuffle(len(es), func(i, j int) { es[i], es[j] = es[j], es[i] })
}

// writeGraph writes the initial graph as the daemons' -graph file.
func (l *ledger) writeGraph(dir string) (string, error) {
	path := filepath.Join(dir, "ledger.txt")
	f, err := os.Create(path)
	if err != nil {
		return "", err
	}
	if err := l.g.WriteEdgeList(f); err != nil {
		f.Close()
		return "", fmt.Errorf("write %s: %w", path, err)
	}
	return path, f.Close()
}

// oracleSample is the set of vertices checked against the BFS oracle after
// a window: every planted criminal, plus 64 seeded others — core vertices,
// endpoints the window's writes touched, and background accounts.
func (l *ledger) oracleSample(seed int64, touched []int) []int {
	r := rand.New(rand.NewSource(seed + 3))
	out := append([]int(nil), l.criminals...)
	n := l.g.NumVertices()
	for range 16 {
		out = append(out, l.coreLo+r.Intn(n-l.coreLo))
	}
	for i := 0; i < 24 && len(touched) > 0; i++ {
		out = append(out, touched[r.Intn(len(touched))])
	}
	for len(out) < len(l.criminals)+64 {
		out = append(out, l.bgLo+r.Intn(l.bgHi-l.bgLo))
	}
	return out
}

// zipfReads draws read targets with Zipf(1.1) popularity over a seeded
// permutation of the vertices: every stream of one run shares the hot
// set, and each draws from its own random source.
type zipfReads struct {
	z    *rand.Zipf
	perm []int
}

func newZipfReads(n int, seed, stream int64) *zipfReads {
	perm := rand.New(rand.NewSource(seed + 4)).Perm(n)
	r := rand.New(rand.NewSource(seed*31 + 5 + stream))
	return &zipfReads{z: rand.NewZipf(r, 1.1, 1, uint64(n-1)), perm: perm}
}

func (z *zipfReads) next() int { return z.perm[z.z.Uint64()] }

// txnGen produces the transaction stream: each transaction inserts a new
// random background edge and deletes the oldest background edge, so the
// edge count holds steady. It tracks the graph on its own copy.
type txnGen struct {
	g    *graph.Digraph
	fifo [][2]int
	r    *rand.Rand
	lo   int
	hi   int
}

func newTxnGen(l *ledger, seed int64) *txnGen {
	return &txnGen{
		g:    l.g.Clone(),
		fifo: append([][2]int(nil), l.bgEdges...),
		r:    rand.New(rand.NewSource(seed + 6)),
		lo:   l.bgLo, hi: l.bgHi,
	}
}

func (t *txnGen) next() (ins, del [2]int) {
	for {
		u := t.lo + t.r.Intn(t.hi-t.lo)
		v := t.lo + t.r.Intn(t.hi-t.lo)
		if t.g.AddEdge(u, v) == nil {
			ins = [2]int{u, v}
			break
		}
	}
	t.fifo = append(t.fifo, ins)
	del, t.fifo = t.fifo[0], t.fifo[1:]
	_ = t.g.RemoveEdge(del[0], del[1]) // the oldest edge is always present
	return ins, del
}
