// Command bench is the staging benchmark: four closed-loop workloads against
// an 8-server fleet hosted in this process over the TCP mux fabric, reporting
// the end-to-end metrics a staging user sees and, in a traced pass, per-layer
// metrics timed from outside the program. See README.md.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
)

// defaultSeed and defaultSeconds are the values BENCHMARK.json records.
const (
	defaultSeed    = 1
	defaultSeconds = 24
)

// resultFile is what -out holds: where it was measured and one entry per
// workload that ran.
type resultFile struct {
	Header    header             `json:"header"`
	Claim     *string            `json:"claim"` // a benchmark run claims no gain
	Workloads map[string]*result `json:"workloads"`
}

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// benchDir is the benchmark's own directory as seen from the working
// directory: the command runs from the repository root or from bench/.
func benchDir() string {
	if _, err := os.Stat(filepath.Join("bench", "metrics.go")); err == nil {
		return "bench"
	}
	return "."
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	workload := fs.String("workload", "", "run one workload: step-write, small-mix, degraded-read or tiered-scan (default: all four, each in its own process)")
	seed := fs.Int64("seed", defaultSeed, "seed of the generated op sequence")
	seconds := fs.Float64("seconds", defaultSeconds, "seconds of measurement per workload")
	trace := fs.Int("trace", 0, "1 runs the traced pass: spans, counter deltas and layer probes; 0 measures end to end")
	out := fs.String("out", "", "result file (default <bench>/out/result.json)")
	quick := fs.Bool("quick", false, "smoke-test sizing: small objects, two windows, no meaningful timings")
	compare := fs.Bool("compare", false, "compare result files: A... vs B... (or two halves of the list)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *compare {
		return compareFiles(fs.Args(), stdout, stderr)
	}
	if fs.NArg() > 0 {
		fmt.Fprintf(stderr, "bench: unexpected argument %q\n", fs.Arg(0))
		return 2
	}
	if *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(stderr, "bench: -seconds must be positive and -trace 0 or 1")
		return 2
	}
	outDir := filepath.Join(benchDir(), "out")
	if *out == "" {
		*out = filepath.Join(outDir, "result.json")
	}
	file := resultFile{Header: newHeader(*seed, *seconds, *quick), Workloads: map[string]*result{}}

	if *workload != "" {
		res, err := runWorkload(options{
			workload: *workload, seed: *seed, seconds: *seconds, trace: *trace == 1, quick: *quick, outDir: outDir,
		})
		if err != nil {
			fmt.Fprintf(stderr, "bench: %s: %v\n", *workload, err)
			return 1
		}
		file.Workloads[res.Workload] = res
		printTable(stdout, res)
		if err := writeJSON(*out, &file); err != nil {
			fmt.Fprintf(stderr, "bench: %v\n", err)
			return 1
		}
		// The last line of standard output is the run's result as one object.
		if err := json.NewEncoder(stdout).Encode(lastLine(res)); err != nil {
			return 1
		}
		if !res.Correct {
			return 1
		}
		return 0
	}

	// All four workloads, each in a process of its own so that heap, ports
	// and the peak-memory reading are per workload.
	self, err := os.Executable()
	if err != nil {
		fmt.Fprintf(stderr, "bench: %v\n", err)
		return 1
	}
	status := 0
	for _, name := range workloadNames {
		part := filepath.Join(outDir, "result-"+name+".json")
		argv := []string{"-workload", name, "-seed", fmt.Sprint(*seed), "-seconds", fmt.Sprint(*seconds),
			"-trace", fmt.Sprint(*trace), "-out", part}
		if *quick {
			argv = append(argv, "-quick")
		}
		cmd := exec.Command(self, argv...)
		cmd.Stdout, cmd.Stderr = stdout, stderr
		if err := cmd.Run(); err != nil {
			fmt.Fprintf(stderr, "bench: %s: %v\n", name, err)
			status = 1
		}
		var one resultFile
		if err := readJSON(part, &one); err == nil {
			for k, v := range one.Workloads {
				file.Workloads[k] = v
			}
		}
	}
	if err := writeJSON(*out, &file); err != nil {
		fmt.Fprintf(stderr, "bench: %v\n", err)
		return 1
	}
	fmt.Fprintf(stdout, "\nresult written to %s\n", *out)
	return status
}

// lastLine is the object the driver reads: the end-to-end metrics of an
// untraced run, the per-layer metrics of a traced one.
func lastLine(res *result) map[string]any {
	defs, src := endToEnd, res.EndToEnd
	if res.Trace {
		defs, src = perLayer, res.PerLayer
	}
	ms := make(map[string]any, len(defs))
	for _, d := range defs {
		ms[d.Name] = map[string]any{"value": src[d.Name].Value, "unit": d.Unit}
	}
	return map[string]any{"correct": res.Correct, "attempted": res.Attempted, "failed": res.Failed, "metrics": ms}
}

func writeJSON(path string, v any) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	data, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

func readJSON(path string, v any) error {
	data, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	return json.Unmarshal(data, v)
}
