package main

import (
	"fmt"
	"io"
	"math"
)

// compareFiles judges side B against side A, one row per (workload,
// end-to-end metric). The sides are separated by the argument "vs"; without
// it the list is split in half. It returns 1 on any "worse" row or on a
// higher failed_ops_share, 0 otherwise.
func compareFiles(paths []string, stdout, stderr io.Writer) int {
	split := len(paths) / 2
	for i, p := range paths {
		if p == "vs" {
			split = i
			paths = append(append([]string(nil), paths[:i]...), paths[i+1:]...)
			break
		}
	}
	if split == 0 || split == len(paths) {
		fmt.Fprintln(stderr, "bench: -compare needs result files for two sides: A.json... vs B.json...")
		return 2
	}
	load := func(paths []string) ([]resultFile, bool) {
		var out []resultFile
		for _, p := range paths {
			var f resultFile
			if err := readJSON(p, &f); err != nil {
				fmt.Fprintf(stderr, "bench: %v\n", err)
				return nil, false
			}
			out = append(out, f)
		}
		return out, true
	}
	a, ok := load(paths[:split])
	if !ok {
		return 2
	}
	b, ok := load(paths[split:])
	if !ok {
		return 2
	}

	status := 0
	fmt.Fprintf(stdout, "%-14s %-20s %12s %12s %9s %6s  %s\n", "workload", "metric", "A median", "B median", "B/A", "bound", "verdict")
	for _, name := range workloadNames {
		fa, fb := failShare(a, name), failShare(b, name)
		if math.IsNaN(fa) || math.IsNaN(fb) {
			continue // workload missing on one side
		}
		for _, d := range endToEnd {
			va, sa := sideValues(a, name, d.Name)
			vb, sb := sideValues(b, name, d.Name)
			ma, mb := median(va), median(vb)
			verdict := judge(d, ma, mb, math.Max(sa, sb))
			if verdict == "worse" {
				status = 1
			}
			fmt.Fprintf(stdout, "%-14s %-20s %12.4f %12.4f %9.4f %6.2f  %s\n", name, d.Name, ma, mb, ratio(mb, ma), d.Bound, verdict)
		}
		verdict := "same"
		if fb > fa {
			verdict, status = "worse", 1
		}
		fmt.Fprintf(stdout, "%-14s %-20s %12.6f %12.6f %9s %6.2f  %s\n", name, "failed_ops_share", fa, fb, "-", 0.0, verdict)
	}
	return status
}

// sideValues returns one side's values of a metric, one per file, and the
// side's own spread as a share of its median: the inter-quartile distance
// between its runs, or — with a single run — between that run's windows.
func sideValues(files []resultFile, workload, metric string) (vals []float64, spread float64) {
	var single measured
	for _, f := range files {
		if r := f.Workloads[workload]; r != nil {
			single = r.EndToEnd[metric]
			vals = append(vals, single.Value)
		}
	}
	if len(vals) == 1 {
		return vals, math.Abs(ratio(single.IQR, single.Value))
	}
	return vals, spreadShare(vals)
}

func failShare(files []resultFile, workload string) float64 {
	worst := math.NaN()
	for _, f := range files {
		if r := f.Workloads[workload]; r != nil && !(r.FailShare <= worst) {
			worst = r.FailShare
		}
	}
	return worst
}

// judge gives the verdict for B against A. A spread wider than the bound on
// either side cannot resolve a change of the bound's size.
func judge(d metricDef, a, b, spread float64) string {
	if spread > d.Bound {
		return "unresolved"
	}
	change := ratio(b-a, a)
	if d.Better == "higher" {
		change = -change
	}
	switch {
	case change > d.Bound:
		return "worse"
	case change < -d.Bound:
		return "better"
	}
	return "same"
}
