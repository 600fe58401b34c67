// Package exp is the experiment harness: it holds the registry of
// synthetic analogs standing in for the paper's nine datasets (Table IV)
// and the runners that regenerate every table and figure of the evaluation
// section (§VI). Each runner returns typed rows; format.go renders them in
// the paper's layout.
package exp

import (
	"fmt"

	"repro/internal/gen"
	"repro/internal/graph"
)

// Workers sets the parallelism the experiments use across shards: how
// many components a sharded build constructs at once (0 = all cores,
// 1 = sequential).
// cscbench sets it from -workers. Each label construction is sequential,
// so labels are byte-identical either way; only wall-clock figures
// change.
var Workers = 0

// Scale selects dataset sizes. The paper's originals range up to 139M
// edges; Full keeps their relative ordering at laptop scale, Small is the
// default for quick runs and the Go benchmarks, Tiny exists for the unit
// tests of this package.
type Scale int

const (
	Tiny Scale = iota
	Small
	Full
)

// ParseScale converts a CLI flag value.
func ParseScale(s string) (Scale, error) {
	switch s {
	case "tiny":
		return Tiny, nil
	case "small":
		return Small, nil
	case "full":
		return Full, nil
	}
	return 0, fmt.Errorf("exp: unknown scale %q (tiny|small|full)", s)
}

func (s Scale) String() string {
	switch s {
	case Tiny:
		return "tiny"
	case Small:
		return "small"
	default:
		return "full"
	}
}

// Dataset is one synthetic analog of a paper dataset.
type Dataset struct {
	// Name matches the paper's notation (Table IV).
	Name string
	// Paper records the original network and its size.
	Paper string
	// Kind describes the generator used for the analog.
	Kind string
	// Build generates the graph at the given scale, deterministically.
	Build func(s Scale) *graph.Digraph
}

// size returns (n, m) for a dataset whose full-scale analog is (n0, m0):
// Small divides by 4, Tiny by 40.
func size(s Scale, n0, m0 int) (int, int) {
	switch s {
	case Tiny:
		return n0 / 40, m0 / 40
	case Small:
		return n0 / 4, m0 / 4
	default:
		return n0, m0
	}
}

// Datasets lists the nine analogs in the paper's order. Full-scale sizes
// keep Table IV's relative ordering while remaining buildable on a laptop;
// DESIGN.md documents the substitution.
func Datasets() []Dataset {
	return []Dataset{
		{
			Name:  "G04",
			Paper: "p2p-Gnutella04 (10,879 / 39,994)",
			Kind:  "uniform p2p (Erdős–Rényi, no reciprocal edges)",
			Build: func(s Scale) *graph.Digraph {
				n, m := size(s, 10000, 40000)
				return gen.ErdosRenyi(gen.Config{N: n, M: m, Seed: 104, NoReciprocal: true})
			},
		},
		{
			Name:  "G30",
			Paper: "p2p-Gnutella30 (36,682 / 88,328)",
			Kind:  "uniform p2p (Erdős–Rényi, no reciprocal edges)",
			Build: func(s Scale) *graph.Digraph {
				n, m := size(s, 24000, 60000)
				return gen.ErdosRenyi(gen.Config{N: n, M: m, Seed: 130, NoReciprocal: true})
			},
		},
		{
			Name:  "EME",
			Paper: "email-EuAll (265,214 / 420,045)",
			Kind:  "hub-dominated email (star model)",
			Build: func(s Scale) *graph.Digraph {
				n, m := size(s, 40000, 64000)
				return gen.Star(gen.Config{N: n, M: m, Seed: 201}, 0.01)
			},
		},
		{
			Name:  "WBN",
			Paper: "web-NotreDame (325,729 / 1,497,134)",
			Kind:  "web crawl (copy model with reciprocity)",
			Build: func(s Scale) *graph.Digraph {
				n, _ := size(s, 24000, 0)
				return gen.Copy(gen.Config{N: n, Seed: 301}, 5, 0.6, 0.25)
			},
		},
		{
			Name:  "WKT",
			Paper: "wiki-Talk (2,394,385 / 5,021,410)",
			Kind:  "extreme-skew discussion graph (power law 1.9/2.2)",
			Build: func(s Scale) *graph.Digraph {
				n, m := size(s, 48000, 100000)
				return gen.PowerLaw(gen.Config{N: n, M: m, Seed: 401}, 1.9, 2.2)
			},
		},
		{
			Name:  "WBB",
			Paper: "web-BerkStan (685,231 / 7,600,595)",
			Kind:  "dense web crawl (copy model)",
			Build: func(s Scale) *graph.Digraph {
				n, _ := size(s, 28000, 0)
				return gen.Copy(gen.Config{N: n, Seed: 501}, 11, 0.7, 0.3)
			},
		},
		{
			Name:  "HDR",
			Paper: "Hudong-Related (2,452,715 / 18,854,882)",
			Kind:  "encyclopedia links (power law 2.1/2.1)",
			Build: func(s Scale) *graph.Digraph {
				n, m := size(s, 52000, 400000)
				return gen.PowerLaw(gen.Config{N: n, M: m, Seed: 601}, 2.1, 2.1)
			},
		},
		{
			Name:  "WAR",
			Paper: "wiki_link War (2,093,450 / 38,631,915)",
			Kind:  "dense wiki links (power law 2.0/2.0)",
			Build: func(s Scale) *graph.Digraph {
				n, m := size(s, 48000, 700000)
				return gen.PowerLaw(gen.Config{N: n, M: m, Seed: 701}, 2.0, 2.0)
			},
		},
		{
			Name:  "WSR",
			Paper: "wiki_link SR (3,175,009 / 139,586,199)",
			Kind:  "densest wiki links (power law 2.0/1.9)",
			Build: func(s Scale) *graph.Digraph {
				n, m := size(s, 60000, 1200000)
				return gen.PowerLaw(gen.Config{N: n, M: m, Seed: 801}, 2.0, 1.9)
			},
		},
	}
}

// DatasetByName finds a dataset in the registry.
func DatasetByName(name string) (Dataset, error) {
	for _, d := range Datasets() {
		if d.Name == name {
			return d, nil
		}
	}
	return Dataset{}, fmt.Errorf("exp: unknown dataset %q", name)
}
