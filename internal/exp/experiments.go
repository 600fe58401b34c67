package exp

import (
	"fmt"
	"math/rand"
	"sort"
	"time"

	"repro/internal/bfscount"
	"repro/internal/cluster"
	"repro/internal/csc"
	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/hpspc"
	"repro/internal/order"
	"repro/internal/pll"
)

// ---------------------------------------------------------------- Table IV

// StatsRow is one row of Table IV (dataset statistics).
type StatsRow struct {
	Name, Paper, Kind string
	N, M              int
}

// Table4 generates every dataset at the given scale and reports its size.
func Table4(s Scale) []StatsRow {
	var rows []StatsRow
	for _, d := range Datasets() {
		g := d.Build(s)
		rows = append(rows, StatsRow{
			Name: d.Name, Paper: d.Paper, Kind: d.Kind,
			N: g.NumVertices(), M: g.NumEdges(),
		})
	}
	return rows
}

// ---------------------------------------------------------------- Figure 9

// BuildRow is one dataset's entry in Figure 9 (index time and size).
type BuildRow struct {
	Dataset            string
	HPTime, CSCTime    time.Duration
	HPBytes, CSCBytes  int // CSCBytes is the reduced (couple-merged) size
	HPEntries, CSCEnts int
}

// Fig9 builds HP-SPC and CSC on one dataset and reports construction time
// and index size. CSC sizes use the §IV-E reduction, matching how the
// paper compares the two.
func Fig9(s Scale, d Dataset) BuildRow {
	g := d.Build(s)
	ord := order.ByDegree(g)

	hpGraph := g.Clone()
	t0 := time.Now()
	hp, _ := hpspc.Build(hpGraph, ord, pll.Redundancy)
	hpTime := time.Since(t0)

	t0 = time.Now()
	x, _ := csc.Build(g, ord, csc.Options{})
	cscTime := time.Since(t0)

	return BuildRow{
		Dataset: d.Name,
		HPTime:  hpTime, CSCTime: cscTime,
		HPBytes: hp.Bytes(), CSCBytes: x.ReducedBytes(),
		HPEntries: hp.EntryCount(), CSCEnts: x.ReducedEntryCount(),
	}
}

// --------------------------------------------------------------- Figure 10

// QueryRow is one degree cluster's average SCCnt query time per algorithm.
type QueryRow struct {
	Cluster         string
	Queries         int
	BFS, HPSPC, CSC time.Duration // average per query; 0 when unmeasured
}

// QueryResult is one sub-figure of Figure 10.
type QueryResult struct {
	Dataset string
	Rows    [5]QueryRow
}

// queryCaps bounds per-cluster query counts. BFS is orders of magnitude
// slower, so it gets a smaller sample, like any reasonable lab notebook.
func queryCaps(s Scale) (idxCap, bfsCap int) {
	switch s {
	case Tiny:
		return 200, 50
	case Small:
		return 1000, 60
	default:
		return 4000, 40
	}
}

// Fig10 measures average SCCnt query time per degree cluster for the BFS
// baseline, HP-SPC and CSC on one dataset, cross-checking that all three
// algorithms agree on every sampled query.
func Fig10(s Scale, d Dataset) (QueryResult, error) {
	g := d.Build(s)
	ord := order.ByDegree(g)
	hp, _ := hpspc.Build(g.Clone(), ord, pll.Redundancy)
	x, _ := csc.Build(g.Clone(), ord, csc.Options{})

	// §VI-A: all vertices (or at least 50,000) split into five clusters by
	// min-in-out degree.
	vs := make([]int, g.NumVertices())
	for i := range vs {
		vs[i] = i
	}
	clusters := cluster.Vertices(g, vs)
	idxCap, bfsCap := queryCaps(s)

	res := QueryResult{Dataset: d.Name}
	r := rand.New(rand.NewSource(42))
	for ci, cvs := range clusters {
		row := QueryRow{Cluster: cluster.Names[ci]}
		if len(cvs) == 0 {
			res.Rows[ci] = row
			continue
		}
		sample := sampleInts(r, cvs, idxCap)
		row.Queries = len(sample)

		// Correctness cross-check on a sub-sample.
		for _, v := range sample[:min(len(sample), 30)] {
			bl, bc := bfscount.CycleCount(g, v)
			hl, hc := hp.CycleCount(v)
			cl, cc := x.CycleCount(v)
			if bl != hl || bc != hc || bl != cl || bc != cc {
				return res, fmt.Errorf("fig10 %s: disagreement at vertex %d: bfs(%d,%d) hp(%d,%d) csc(%d,%d)",
					d.Name, v, bl, bc, hl, hc, cl, cc)
			}
		}

		row.CSC = timePerQuery(sample, func(v int) { x.CycleCount(v) })
		row.HPSPC = timePerQuery(sample, func(v int) { hp.CycleCount(v) })
		bfsSample := sample[:min(len(sample), bfsCap)]
		row.BFS = timePerQuery(bfsSample, func(v int) { bfscount.CycleCount(g, v) })
		res.Rows[ci] = row
	}
	return res, nil
}

func timePerQuery(vs []int, f func(int)) time.Duration {
	if len(vs) == 0 {
		return 0
	}
	start := time.Now()
	for _, v := range vs {
		f(v)
	}
	return time.Since(start) / time.Duration(len(vs))
}

func sampleInts(r *rand.Rand, vs []int, cap int) []int {
	if len(vs) <= cap {
		return vs
	}
	out := make([]int, cap)
	perm := r.Perm(len(vs))
	for i := 0; i < cap; i++ {
		out[i] = vs[perm[i]]
	}
	return out
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}

// --------------------------------------------------------------- Figure 11

// UpdateRow is one dataset's incremental-maintenance entry in Figure 11:
// average time per edge insertion and average index growth, under both
// strategies. MinimalitySkipped mirrors the paper, which omitted the
// minimality strategy on its largest graphs for cost reasons.
type UpdateRow struct {
	Dataset           string
	Updates           int
	RedundancyAvg     time.Duration
	RedundancyGrowth  float64 // label entries added per insertion
	MinimalityAvg     time.Duration
	MinimalityGrowth  float64
	MinimalitySkipped bool
}

func updateCount(s Scale) int {
	switch s {
	case Tiny:
		return 20
	case Small:
		return 60
	default:
		return 200 // paper: [200,500] random edges
	}
}

// Fig11 removes K random edges, builds the CSC index on the reduced
// graph, and measures inserting them back one by one (the paper's §VI-C
// protocol), under the redundancy and minimality strategies.
func Fig11(s Scale, d Dataset, skipMinimality bool) UpdateRow {
	base := d.Build(s)
	k := updateCount(s)
	edges := pickEdges(base, k, 11)

	row := UpdateRow{Dataset: d.Name, Updates: len(edges), MinimalitySkipped: skipMinimality}
	row.RedundancyAvg, row.RedundancyGrowth = runInsertions(base, edges, pll.Redundancy)
	if !skipMinimality {
		row.MinimalityAvg, row.MinimalityGrowth = runInsertions(base, edges, pll.Minimality)
	}
	return row
}

func runInsertions(base *graph.Digraph, edges [][2]int, strat pll.Strategy) (time.Duration, float64) {
	g := base.Clone()
	for _, e := range edges {
		if err := g.RemoveEdge(e[0], e[1]); err != nil {
			panic(err) // edges were sampled from base
		}
	}
	x, _ := csc.Build(g, order.ByDegree(g), csc.Options{Strategy: strat})
	before := x.EntryCount()
	start := time.Now()
	for _, e := range edges {
		if _, err := x.InsertEdge(e[0], e[1]); err != nil {
			panic(err)
		}
	}
	elapsed := time.Since(start)
	growth := float64(x.EntryCount()-before) / float64(len(edges))
	return elapsed / time.Duration(len(edges)), growth
}

func pickEdges(g *graph.Digraph, k int, seed int64) [][2]int {
	es := g.Edges()
	r := rand.New(rand.NewSource(seed))
	r.Shuffle(len(es), func(i, j int) { es[i], es[j] = es[j], es[i] })
	if k > len(es) {
		k = len(es)
	}
	return es[:k]
}

// --------------------------------------------------------------- Figure 12

// DeleteRow is one edge-degree cluster of the decremental experiment.
type DeleteRow struct {
	Cluster    string
	Edges      int
	AvgTime    time.Duration
	AvgRemoved float64 // label entries dropped in step 2 per deletion —
	// the churn Figure 12(b) plots ("a large number of unaffected label
	// entries are removed and recovered later")
	AvgNet float64 // net index change per deletion (can be positive:
	// longer distances can need more covering entries)
	AvgTouched float64 // vertices visited by repair BFSes per deletion
}

// Fig12 deletes random edges from the G04 analog, clustered by edge
// degree (indeg(source)+outdeg(target)), and measures the decremental
// update (§VI-C, Figure 12).
func Fig12(s Scale) [5]DeleteRow {
	d, err := DatasetByName("G04")
	if err != nil {
		panic(err)
	}
	g := d.Build(s)
	k := updateCount(s) * 2
	edges := pickEdges(g, k, 12)
	groups := cluster.Edges(g, edges)

	x, _ := csc.Build(g, order.ByDegree(g), csc.Options{})
	var rows [5]DeleteRow
	for ci, ces := range groups {
		row := DeleteRow{Cluster: cluster.Names[ci], Edges: len(ces)}
		if len(ces) == 0 {
			rows[ci] = row
			continue
		}
		var total time.Duration
		var removed, net, touched int
		for _, e := range ces {
			before := x.EntryCount()
			st, err := x.DeleteEdge(e[0], e[1])
			if err != nil {
				panic(err)
			}
			total += st.Duration
			removed += st.EntriesRemoved
			net += x.EntryCount() - before
			touched += st.Visited
		}
		row.AvgTime = total / time.Duration(len(ces))
		row.AvgRemoved = float64(removed) / float64(len(ces))
		row.AvgNet = float64(net) / float64(len(ces))
		row.AvgTouched = float64(touched) / float64(len(ces))
		rows[ci] = row
	}
	return rows
}

// --------------------------------------------------------- Case study (§VI-D)

// CaseVertex is one account in the case-study ranking.
type CaseVertex struct {
	Vertex   int
	Length   int
	Count    uint64
	Criminal bool
}

// CaseResult is the Figure 13 reproduction: accounts ranked by shortest
// cycle count over a transaction network with planted laundering rings.
type CaseResult struct {
	Top       []CaseVertex
	Criminals []int
	// Recovered reports whether every planted criminal ranks inside the
	// top len(Criminals) accounts by SCCnt.
	Recovered bool
}

// CaseStudy plants laundering rings in a synthetic transaction network and
// checks that ranking accounts by SCCnt surfaces the planted criminals, as
// the paper's MAHINDAS case study does for suspicious accounts.
func CaseStudy(s Scale) CaseResult {
	n, m := 2000, 3000
	if s == Tiny {
		n, m = 400, 600
	}
	tx := gen.TransactionNetwork(n, m, 5, 12, 4, 13)
	x, _ := csc.Build(tx.G, order.ByDegree(tx.G), csc.Options{})

	all := make([]CaseVertex, 0, n)
	criminal := make(map[int]bool, len(tx.Criminals))
	for _, c := range tx.Criminals {
		criminal[c] = true
	}
	for v := 0; v < n; v++ {
		l, c := x.CycleCount(v)
		if l == bfscount.NoCycle {
			continue
		}
		all = append(all, CaseVertex{Vertex: v, Length: l, Count: c, Criminal: criminal[v]})
	}
	// Rank suspicious accounts the way Figure 13 is read: vertex size is
	// the shortest cycle count (bigger = more suspicious); color — the
	// cycle length — breaks ties in favor of quicker feedback loops.
	sort.Slice(all, func(i, j int) bool { return less(all[i], all[j]) })
	top := all
	if len(top) > 10 {
		top = top[:10]
	}
	res := CaseResult{Top: top, Criminals: tx.Criminals, Recovered: true}
	for i := 0; i < len(tx.Criminals) && i < len(all); i++ {
		if !all[i].Criminal {
			res.Recovered = false
		}
	}
	return res
}

func less(a, b CaseVertex) bool {
	if a.Count != b.Count {
		return a.Count > b.Count
	}
	if a.Length != b.Length {
		return a.Length < b.Length
	}
	return a.Vertex < b.Vertex
}

// ------------------------------------------------- Extensions (DESIGN E11/E12)

// ScalingRow records label growth as the graph grows (Theorem IV.1 sanity:
// entries per vertex should grow like ω·log n, i.e. slowly).
type ScalingRow struct {
	N, M             int
	EntriesPerVertex float64
	BuildTime        time.Duration
}

// Scaling sweeps graph size at constant average degree.
func Scaling(sizes []int) []ScalingRow {
	var rows []ScalingRow
	for _, n := range sizes {
		g := gen.ErdosRenyi(gen.Config{N: n, M: 4 * n, Seed: int64(n)})
		t0 := time.Now()
		x, _ := csc.Build(g, order.ByDegree(g), csc.Options{})
		rows = append(rows, ScalingRow{
			N: n, M: 4 * n,
			EntriesPerVertex: float64(x.EntryCount()) / float64(2*n),
			BuildTime:        time.Since(t0),
		})
	}
	return rows
}

// AblationRow compares the couple-vertex-skipping construction against the
// generic engine on the same dataset (identical labels, different work).
type AblationRow struct {
	Dataset          string
	SkippingTime     time.Duration
	GenericTime      time.Duration
	EntriesIdentical bool
	SkippingSpeedup  float64
}

// AblationConstruction quantifies what couple-vertex skipping buys.
func AblationConstruction(s Scale, d Dataset) AblationRow {
	g := d.Build(s)
	ord := order.ByDegree(g)

	t0 := time.Now()
	a, _ := csc.Build(g.Clone(), ord, csc.Options{})
	skipTime := time.Since(t0)

	t0 = time.Now()
	b, _ := csc.Build(g.Clone(), ord, csc.Options{GenericConstruction: true})
	genTime := time.Since(t0)

	return AblationRow{
		Dataset:          d.Name,
		SkippingTime:     skipTime,
		GenericTime:      genTime,
		EntriesIdentical: a.EntryCount() == b.EntryCount(),
		SkippingSpeedup:  float64(genTime) / float64(skipTime),
	}
}
