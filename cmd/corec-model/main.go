// Command corec-model evaluates the Section II-D analytic cost model and
// prints the Figure 4 curves as CSV, with every model parameter adjustable
// from the command line.
//
// Usage:
//
//	corec-model [-nlevel 1] [-nnode 3] [-fhot 10] [-fcold 1] [-s 0.67]
//	            [-l 1.0] [-c 0.2] [-alpha 1.0] [-samples 41] [-miss 0,0.2,0.4]
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"

	"corec/internal/harness"
	"corec/internal/model"
)

func main() {
	if err := run(os.Args[1:], os.Stdout, os.Stderr); err != nil {
		fmt.Fprintf(os.Stderr, "corec-model: %v\n", err)
		os.Exit(1)
	}
}

// run parses args, prints the curves as CSV to stdout and the model's
// derived constants to stderr.
func run(args []string, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("corec-model", flag.ExitOnError)
	p := model.Default()
	fs.IntVar(&p.NLevel, "nlevel", p.NLevel, "resilience level (replicas / parity count)")
	fs.IntVar(&p.NNode, "nnode", p.NNode, "data objects per stripe (k)")
	fs.Float64Var(&p.FHot, "fhot", p.FHot, "hot-object update frequency")
	fs.Float64Var(&p.FCold, "fcold", p.FCold, "cold-object update frequency")
	fs.Float64Var(&p.S, "s", p.S, "storage-efficiency constraint S (0 disables)")
	fs.Float64Var(&p.L, "l", p.L, "per-object transfer latency l")
	fs.Float64Var(&p.C, "c", p.C, "per-object streaming cost c")
	fs.Float64Var(&p.Alpha, "alpha", p.Alpha, "encoding computation coefficient")
	samples := fs.Int("samples", 41, "points along the hot-fraction axis")
	missFlag := fs.String("miss", "0,0.2,0.4", "comma-separated classifier miss ratios")
	if err := fs.Parse(args); err != nil {
		return err
	}

	var missRatios []float64
	for _, f := range strings.Split(*missFlag, ",") {
		v, err := strconv.ParseFloat(strings.TrimSpace(f), 64)
		if err != nil {
			return fmt.Errorf("bad miss ratio %q: %v", f, err)
		}
		missRatios = append(missRatios, v)
	}
	pts, err := model.Fig4Curves(p, missRatios, *samples)
	if err != nil {
		return err
	}
	if err := harness.Fig4Table(pts, missRatios).WriteCSV(stdout); err != nil {
		return err
	}
	fmt.Fprintf(stderr, "E_r=%.3f E_e=%.3f C_r=%.3f C_e=%.3f P_r(constraint)=%.4f\n",
		p.Er(), p.Ee(), p.Cr(), p.Ce(), p.PrConstraint())
	return nil
}
