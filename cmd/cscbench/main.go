// Command cscbench regenerates the paper's evaluation tables and figures
// (§VI) on the synthetic dataset analogs.
//
// Usage:
//
//	cscbench -exp all -scale small
//	cscbench -exp fig10 -dataset WKT -scale full
//	cscbench -json BENCH_small.json -scale small
//
// Experiments: table4, fig9, fig10, fig11, fig12, case, scaling, ablation,
// ordering, sharding, storage, bench, or all.
// Scales: tiny, small (default), full.
// Figure experiments accept -dataset to restrict the run to one graph.
// -json runs the machine-readable bench suite (see EXPERIMENTS.md) and writes
// the BENCH_*.json file that tracks the perf trajectory across PRs;
// -workers sets how many components a sharded build constructs at once
// (0 = all cores).
package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	"repro/internal/exp"
)

func main() {
	var (
		expName = flag.String("exp", "all", "experiment: table4|fig9|fig10|fig11|fig12|case|scaling|ablation|ordering|sharding|storage|bench|all")
		scaleIn = flag.String("scale", "small", "dataset scale: tiny|small|full")
		dataset = flag.String("dataset", "", "restrict to one dataset (e.g. G04)")
		jsonOut = flag.String("json", "", "write the bench suite as JSON to this file (e.g. BENCH_small.json); implies -exp bench unless -exp is set")
		workers = flag.Int("workers", 0, "components a sharded build constructs at once (0 = all cores, 1 = sequential)")
	)
	flag.Parse()

	scale, err := exp.ParseScale(*scaleIn)
	if err != nil {
		fatal(err)
	}
	exp.Workers = *workers
	if *jsonOut != "" {
		switch *expName {
		case "all":
			*expName = "bench" // -json wants the machine-readable suite only
		case "bench":
		default:
			fatal(fmt.Errorf("-json is produced by the bench suite; drop -exp %s or use -exp bench", *expName))
		}
	}
	datasets := exp.Datasets()
	if *dataset != "" {
		d, err := exp.DatasetByName(*dataset)
		if err != nil {
			fatal(err)
		}
		datasets = []exp.Dataset{d}
	}

	run := func(name string, f func() error) {
		fmt.Printf("== %s (scale %s) ==\n", name, scale)
		start := time.Now()
		if err := f(); err != nil {
			fatal(err)
		}
		fmt.Printf("-- %s done in %s --\n\n", name, time.Since(start).Round(time.Millisecond))
	}

	all := *expName == "all"
	ran := false
	if all || *expName == "table4" {
		ran = true
		run("Table IV: dataset statistics", func() error {
			return exp.WriteTable4(os.Stdout, exp.Table4(scale))
		})
	}
	if all || *expName == "fig9" {
		ran = true
		run("Figure 9: index construction time and size", func() error {
			var rows []exp.BuildRow
			for _, d := range datasets {
				rows = append(rows, exp.Fig9(scale, d))
			}
			return exp.WriteFig9(os.Stdout, rows)
		})
	}
	if all || *expName == "fig10" {
		ran = true
		run("Figure 10: query time by degree cluster", func() error {
			for _, d := range datasets {
				res, err := exp.Fig10(scale, d)
				if err != nil {
					return err
				}
				if err := exp.WriteFig10(os.Stdout, res); err != nil {
					return err
				}
				fmt.Println()
			}
			return nil
		})
	}
	if all || *expName == "fig11" {
		ran = true
		run("Figure 11: incremental maintenance", func() error {
			var rows []exp.UpdateRow
			for _, d := range datasets {
				// The paper skips the minimality strategy on its two
				// largest graphs for cost reasons; mirror that at full
				// scale.
				skip := scale == exp.Full && (d.Name == "WAR" || d.Name == "WSR")
				rows = append(rows, exp.Fig11(scale, d, skip))
			}
			return exp.WriteFig11(os.Stdout, rows)
		})
	}
	if all || *expName == "fig12" {
		ran = true
		run("Figure 12: decremental maintenance (G04)", func() error {
			return exp.WriteFig12(os.Stdout, exp.Fig12(scale))
		})
	}
	if all || *expName == "case" {
		ran = true
		run("Case study: suspicious-account ranking", func() error {
			return exp.WriteCase(os.Stdout, exp.CaseStudy(scale))
		})
	}
	if all || *expName == "scaling" {
		ran = true
		run("Extension: label growth vs graph size", func() error {
			sizes := []int{1000, 2000, 4000, 8000}
			if scale == exp.Tiny {
				sizes = []int{200, 400, 800}
			}
			return exp.WriteScaling(os.Stdout, exp.Scaling(sizes))
		})
	}
	if all || *expName == "ablation" {
		ran = true
		run("Ablation: couple-vertex skipping vs generic construction", func() error {
			var rows []exp.AblationRow
			for _, d := range datasets {
				rows = append(rows, exp.AblationConstruction(scale, d))
			}
			return exp.WriteAblation(os.Stdout, rows)
		})
	}
	if all || *expName == "sharding" {
		ran = true
		run("Extension: condensation sharding vs monolithic build", func() error {
			return exp.WriteSharding(os.Stdout, exp.Sharding(scale))
		})
	}
	if all || *expName == "storage" {
		ran = true
		run("Extension: compressed label storage — arena footprint, bloom screen, v3 cold start", func() error {
			return exp.WriteStorage(os.Stdout, exp.Storage(scale))
		})
	}
	if all || *expName == "ordering" {
		ran = true
		run("Extension: hub-ordering shootout — degree vs random vs coverage", func() error {
			return exp.WriteOrdering(os.Stdout, exp.Ordering(scale))
		})
	}
	if *expName == "bench" {
		ran = true
		run("Bench suite: build/query/update trajectory", func() error {
			res := exp.BenchSuite(scale, datasets)
			if *jsonOut == "" {
				return exp.WriteBenchJSON(os.Stdout, res)
			}
			f, err := os.Create(*jsonOut)
			if err != nil {
				return err
			}
			if err := exp.WriteBenchJSON(f, res); err != nil {
				f.Close()
				return err
			}
			if err := f.Close(); err != nil {
				return err // a truncated BENCH file must not look written
			}
			for _, r := range res {
				fmt.Printf("%-4s build %8.1fms  %9d entries  query %7.0fns  insert %9.0fns  delete %10.0fns\n",
					r.Dataset, float64(r.BuildWallNS)/1e6, r.Entries, r.QueryNS, r.InsertNS, r.DeleteNS)
			}
			fmt.Printf("wrote %s\n", *jsonOut)
			return nil
		})
	}
	if !ran {
		fatal(fmt.Errorf("unknown experiment %q", *expName))
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "cscbench:", err)
	os.Exit(1)
}
