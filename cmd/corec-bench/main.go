// Command corec-bench regenerates the paper's tables and figures against
// the in-process staging cluster. Each experiment prints the same rows or
// series the paper reports (see EXPERIMENTS.md for the mapping and the
// expected shapes); -csv also writes every table it prints to
// <dir>/<section>.csv, from the same rows.
//
// Usage:
//
//	corec-bench -experiment fig2|fig4|fig8|fig9|fig10|fig11|fig12|table1|
//	            table2|read-penalty|model-validation|all [-quick] [-csv dir]
//
// Each sweep runs once per invocation: fig8 and fig9 print the same Fig. 8
// runs, and table2, fig11 and fig12 the same S3D runs.
//
// The repository's gated performance ledger is the staging benchmark in
// bench/ (see BENCHMARK.json), not this command.
package main

import (
	"errors"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"sync"
	"time"

	"corec/internal/harness"
)

// allSections is every section in the order -experiment all prints them.
var allSections = []string{"table1", "fig2", "fig4", "fig8", "fig9", "fig10", "table2", "fig11", "fig12", "read-penalty", "model-validation"}

// withSetup names the experiments that print their setup table first.
var withSetup = map[string]string{"fig8": "table1", "fig11": "table2", "fig12": "table2"}

func main() {
	experiment := flag.String("experiment", "all", "which experiment to run: fig2, fig4, fig8, fig9, fig10, fig11, fig12, table1, table2, read-penalty, model-validation, or all")
	quick := flag.Bool("quick", false, "trim sweeps for a fast smoke run")
	csvDir := flag.String("csv", "", "also write CSV files into this directory")
	flag.Parse()

	if *csvDir != "" {
		if err := os.MkdirAll(*csvDir, 0o755); err != nil {
			fmt.Fprintf(os.Stderr, "corec-bench: %v\n", err)
			os.Exit(1)
		}
	}
	start := time.Now()
	if err := run(*experiment, *quick, *csvDir); err != nil {
		fmt.Fprintf(os.Stderr, "corec-bench: %v\n", err)
		os.Exit(1)
	}
	fmt.Printf("\ncompleted in %v\n", time.Since(start).Round(time.Millisecond))
}

// sections lists what an experiment prints, in order.
func sections(experiment string) ([]string, error) {
	switch {
	case experiment == "all":
		return allSections, nil
	case withSetup[experiment] != "":
		return []string{withSetup[experiment], experiment}, nil
	case slices.Contains(allSections, experiment):
		return []string{experiment}, nil
	}
	return nil, fmt.Errorf("unknown experiment %q", experiment)
}

func run(experiment string, quick bool, csvDir string) error {
	names, err := sections(experiment)
	if err != nil {
		return err
	}
	fig8 := sync.OnceValues(func() ([]harness.CaseResult, error) { return harness.RunFig8(quick) })
	s3d := sync.OnceValues(func() ([]harness.S3DResult, error) { return harness.RunS3D(quick) })
	for i, name := range names {
		if i > 0 {
			fmt.Println()
		}
		if experiment == "all" {
			fmt.Printf("==== %s ====\n", name)
		}
		t, err := section(name, quick, fig8, s3d)
		if err != nil {
			return fmt.Errorf("%s: %w", name, err)
		}
		if t == nil {
			continue
		}
		t.WriteText(os.Stdout)
		if err := writeCSV(csvDir, name, t); err != nil {
			return err
		}
	}
	return nil
}

// section runs what the named section needs (the Fig. 8 and S3D sweeps
// through fig8 and s3d, which run once) and returns its table. The two text
// blocks, Table I and the model validation, it prints itself and returns
// no table.
func section(name string, quick bool, fig8 func() ([]harness.CaseResult, error), s3d func() ([]harness.S3DResult, error)) (*harness.Table, error) {
	// Read penalties, measured write-cost ratios, the classifier's rows and
	// Fig. 2's wall-clock columns are medians or means over repeated runs.
	trials := 5
	if quick {
		trials = 2
	}
	switch name {
	case "table1":
		fmt.Print(harness.TableIDescription())
	case "model-validation":
		v, err := harness.RunModelValidation(trials)
		if err != nil {
			return nil, err
		}
		harness.WriteModelValidation(os.Stdout, v)
	case "fig2":
		edges := []int64{48, 64, 96, 128}
		if quick {
			edges = edges[:2]
		}
		rows, err := harness.RunFig2(edges, trials)
		return harness.Fig2Table(rows), err
	case "fig4":
		pts, err := harness.RunFig4()
		return harness.Fig4Table(pts, []float64{0, 0.2, 0.4}), err
	case "fig8":
		cases, err := fig8()
		return harness.Fig8Table(cases), err
	case "fig9":
		cases, err := fig8()
		return harness.Fig9Table(cases), err
	case "fig10":
		runs, err := harness.RunFig10()
		return harness.Fig10Table(runs), err
	case "table2":
		results, err := s3d()
		return harness.TableII(results), err
	case "fig11":
		results, err := s3d()
		return harness.Fig11Table(results), err
	case "fig12":
		results, err := s3d()
		return harness.Fig12Table(results), err
	case "read-penalty":
		p, err := harness.RunReadPenalty(trials)
		if err != nil {
			return nil, err
		}
		return harness.ReadPenaltyTable(p), nil
	}
	return nil, nil
}

// writeCSV writes t to dir/name.csv (nothing when dir is empty).
func writeCSV(dir, name string, t *harness.Table) error {
	if dir == "" {
		return nil
	}
	path := filepath.Join(dir, name+".csv")
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := errors.Join(t.WriteCSV(f), f.Close()); err != nil {
		return err
	}
	fmt.Printf("(csv written to %s)\n", path)
	return nil
}
