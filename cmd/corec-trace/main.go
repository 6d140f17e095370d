// Command corec-trace records staging access traces and replays them
// against a fresh cluster, making experiments portable and reproducible:
//
//	corec-trace record -pattern case3-hotspot -o hotspot.trace
//	corec-trace replay -i hotspot.trace -mode corec
//
// Traces are JSON lines (one put/get per line) so they can be generated
// or post-processed by any tooling.
package main

import (
	"flag"
	"fmt"
	"os"

	"corec"
	"corec/internal/geometry"
	"corec/internal/harness"
	"corec/internal/policy"
	"corec/internal/trace"
	"corec/internal/workload"
)

func main() {
	if len(os.Args) < 2 {
		usage()
	}
	var err error
	switch os.Args[1] {
	case "record":
		err = record(os.Args[2:])
	case "replay":
		err = replay(os.Args[2:])
	default:
		usage()
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "corec-trace: %v\n", err)
		os.Exit(1)
	}
}

func record(args []string) error {
	fs := flag.NewFlagSet("record", flag.ExitOnError)
	patternName := fs.String("pattern", "case1-write-all", "workload pattern to record")
	out := fs.String("o", "workload.trace", "output trace file")
	edge := fs.Int64("edge", 64, "cubic domain edge length")
	block := fs.Int64("block", 16, "cubic block edge length")
	steps := fs.Int("steps", 20, "time steps")
	seed := fs.Int64("seed", 42, "workload seed")
	_ = fs.Parse(args) // ExitOnError: Parse never returns an error

	pattern, err := workload.ParsePattern(*patternName)
	if err != nil {
		return err
	}
	w, err := workload.Generate(workload.Config{
		Pattern:   pattern,
		Domain:    geometry.Box3D(0, 0, 0, *edge, *edge, *edge),
		BlockSize: []int64{*block, *block, *block},
		TimeSteps: *steps,
		Var:       "field",
		Seed:      *seed,
	})
	if err != nil {
		return err
	}
	f, err := os.Create(*out)
	if err != nil {
		return err
	}
	defer f.Close()
	tw := trace.NewWriter(f)
	for _, rec := range trace.FromWorkload(w) {
		if err := tw.Write(rec); err != nil {
			return err
		}
	}
	if err := tw.Flush(); err != nil {
		return err
	}
	fmt.Printf("recorded %d operations (%d steps, %s) to %s\n",
		tw.Count(), len(w.Steps), pattern, *out)
	return nil
}

func replay(args []string) error {
	fs := flag.NewFlagSet("replay", flag.ExitOnError)
	in := fs.String("i", "workload.trace", "input trace file")
	modeName := fs.String("mode", "corec", "resilience policy")
	servers := fs.Int("servers", 8, "staging servers")
	writers := fs.Int("writers", 8, "parallel writer ranks")
	readers := fs.Int("readers", 4, "parallel reader ranks")
	_ = fs.Parse(args) // ExitOnError: Parse never returns an error

	mode, err := policy.ParseMode(*modeName)
	if err != nil {
		return err
	}
	f, err := os.Open(*in)
	if err != nil {
		return err
	}
	records, err := trace.Read(f)
	_ = f.Close() // opened read-only; nothing to flush
	if err != nil {
		return err
	}
	w, err := trace.ToWorkload(records)
	if err != nil {
		return err
	}
	res, err := harness.Replay(harness.Options{
		Label:   fmt.Sprintf("replay(%s)", *in),
		Servers: *servers,
		Writers: *writers,
		Readers: *readers,
		Mode:    corec.Mode(mode),
	}, w)
	if err != nil {
		return err
	}
	harness.SummaryTable([]*harness.Result{res}).WriteText(os.Stdout)
	return nil
}

func usage() {
	fmt.Fprintln(os.Stderr, "usage: corec-trace record|replay [flags]")
	os.Exit(2)
}
