// Command corec-bench regenerates the paper's tables and figures against
// the in-process staging cluster. Each experiment prints the same rows or
// series the paper reports (see EXPERIMENTS.md for the mapping and the
// expected shapes); -csv additionally writes machine-readable files for
// plotting.
//
// Usage:
//
//	corec-bench -experiment fig2|fig4|fig8|fig9|fig10|fig11|fig12|table1|
//	            table2|read-penalty|model-validation|all [-quick] [-csv dir]
//
// The repository's gated performance ledger is the staging benchmark in
// bench/ (see BENCHMARK.json), not this command.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"time"

	"corec/internal/harness"
)

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

// writeCSV invokes f on a freshly created file in dir (no-op when dir is
// empty).
func writeCSV(dir, name string, f func(*os.File) error) error {
	if dir == "" {
		return nil
	}
	file, err := os.Create(filepath.Join(dir, name))
	if err != nil {
		return err
	}
	defer file.Close()
	if err := f(file); err != nil {
		return err
	}
	fmt.Printf("(csv written to %s)\n", file.Name())
	return nil
}

func run(experiment string, quick bool, csvDir string) error {
	var out io.Writer = os.Stdout
	switch experiment {
	case "table1":
		fmt.Fprint(out, harness.TableIDescription())
	case "fig2":
		edges := []int64{48, 64, 96, 128}
		if quick {
			edges = []int64{48, 64}
		}
		rows, err := harness.RunFig2(edges)
		if err != nil {
			return err
		}
		harness.WriteFig2(out, rows)
		if err := writeCSV(csvDir, "fig2.csv", func(f *os.File) error {
			return harness.CSVFig2(f, rows)
		}); err != nil {
			return err
		}
	case "fig4":
		pts, err := harness.RunFig4()
		if err != nil {
			return err
		}
		harness.WriteFig4(out, pts)
		if err := writeCSV(csvDir, "fig4.csv", func(f *os.File) error {
			return harness.CSVFig4(f, pts, []float64{0, 0.2, 0.4})
		}); err != nil {
			return err
		}
	case "fig8":
		fmt.Fprint(out, harness.TableIDescription())
		fmt.Fprintln(out)
		cases, err := harness.RunFig8(quick)
		if err != nil {
			return err
		}
		harness.WriteFig8(out, cases)
		if err := writeCSV(csvDir, "fig8.csv", func(f *os.File) error {
			return harness.CSVFig8(f, cases)
		}); err != nil {
			return err
		}
	case "fig9":
		cases, err := harness.RunFig8(quick)
		if err != nil {
			return err
		}
		harness.WriteFig9(out, cases)
	case "fig10":
		runs, err := harness.RunFig10()
		if err != nil {
			return err
		}
		harness.WriteFig10(out, runs)
		if err := writeCSV(csvDir, "fig10.csv", func(f *os.File) error {
			return harness.CSVFig10(f, runs)
		}); err != nil {
			return err
		}
	case "fig11", "fig12", "table2":
		results, err := harness.RunS3D(quick)
		if err != nil {
			return err
		}
		harness.WriteTableII(out, results)
		if experiment != "table2" {
			read := experiment == "fig11"
			if read {
				harness.WriteFig11(out, results)
			} else {
				harness.WriteFig12(out, results)
			}
			if err := writeCSV(csvDir, experiment+".csv", func(f *os.File) error {
				return harness.CSVS3D(f, results, read)
			}); err != nil {
				return err
			}
		}
	case "read-penalty":
		trials := 5
		if quick {
			trials = 2
		}
		p, err := harness.RunReadPenalty(trials)
		if err != nil {
			return err
		}
		harness.WriteReadPenalty(out, p)
	case "model-validation":
		v, err := harness.RunModelValidation()
		if err != nil {
			return err
		}
		harness.WriteModelValidation(out, v)
	case "all":
		for _, e := range []string{"table1", "fig2", "fig4", "fig8", "fig9", "fig10", "fig11", "fig12", "read-penalty", "model-validation"} {
			fmt.Fprintf(out, "==== %s ====\n", e)
			if err := run(e, quick, csvDir); err != nil {
				return fmt.Errorf("%s: %w", e, err)
			}
			fmt.Fprintln(out)
		}
	default:
		return fmt.Errorf("unknown experiment %q", experiment)
	}
	return nil
}
