package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"regexp"
	"strings"
	"testing"
)

type lastLineJSON struct {
	Correct   bool  `json:"correct"`
	Attempted int64 `json:"attempted"`
	Failed    int64 `json:"failed"`
	Metrics   map[string]struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	} `json:"metrics"`
}

// runQuick runs one workload at smoke-test size in this process and parses
// the last line of its standard output.
func runQuick(t *testing.T, workload, trace string) lastLineJSON {
	t.Helper()
	var stdout, stderr bytes.Buffer
	code := run([]string{"-workload", workload, "-quick", "-seconds", "1", "-trace", trace,
		"-out", t.TempDir() + "/result.json"}, &stdout, &stderr)
	if code != 0 {
		t.Fatalf("%s trace %s: exit %d\n%s%s", workload, trace, code, stdout.String(), stderr.String())
	}
	lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
	var out lastLineJSON
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &out); err != nil {
		t.Fatalf("%s trace %s: last line is not the result object: %v", workload, trace, err)
	}
	return out
}

// TestSmoke runs every workload, untraced and traced, at -quick size. It
// asserts no timing: only that the run is clean, that exactly the metrics of
// the table are emitted and finite, and the zeros the workload design
// predicts.
func TestSmoke(t *testing.T) {
	nameRE := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]*$`)
	for _, w := range workloadNames {
		for trace, defs := range map[string][]metricDef{"0": endToEnd, "1": perLayer} {
			got := runQuick(t, w, trace)
			if !got.Correct || got.Failed != 0 || got.Attempted < 1 {
				t.Errorf("%s trace %s: correct=%v attempted=%d failed=%d", w, trace, got.Correct, got.Attempted, got.Failed)
			}
			if len(got.Metrics) != len(defs) {
				t.Errorf("%s trace %s: %d metrics emitted, table has %d", w, trace, len(got.Metrics), len(defs))
			}
			for _, d := range defs {
				m, ok := got.Metrics[d.Name]
				switch {
				case !nameRE.MatchString(d.Name):
					t.Errorf("metric name %q is outside [A-Za-z0-9_.-]", d.Name)
				case !ok:
					t.Errorf("%s trace %s: %s not emitted", w, trace, d.Name)
				case m.Unit != d.Unit || math.IsNaN(m.Value) || math.IsInf(m.Value, 0):
					t.Errorf("%s trace %s: %s = %v %q, want a finite value in %q", w, trace, d.Name, m.Value, m.Unit, d.Unit)
				case trace == "0" && m.Value <= 0:
					t.Errorf("%s: end-to-end metric %s = %v, must never be zero", w, d.Name, m.Value)
				}
			}
			if trace == "1" {
				// Only tiered-scan gives the storage engine a disk tier.
				for _, name := range []string{"storage.spills", "storage.backpressure_stalls", "storage.compactions",
					"storage.cold_reads_share", "storage.disk_bytes_per_user_byte", "storage.get_disk_us"} {
					if v := got.Metrics[name].Value; w != "tiered-scan" && v != 0 {
						t.Errorf("%s: %s = %v, want 0 on an in-RAM workload", w, name, v)
					}
				}
				if v := got.Metrics["storage.spills"].Value; w == "tiered-scan" && v == 0 {
					t.Errorf("tiered-scan: storage.spills = 0, the working set should overflow L1")
				}
				// Every window reads against a dead peer, so retries are never zero.
				if v := got.Metrics["corec.retries_per_kop"].Value; v <= 0 {
					t.Errorf("%s: corec.retries_per_kop = %v, want > 0", w, v)
				}
			}
		}
	}
}

// TestBenchmarkJSONMatchesTables is the drift guard between BENCHMARK.json
// and the tables the program emits and judges with.
func TestBenchmarkJSONMatchesTables(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type row struct {
		Name, Why, Unit, Better string
		Bound                   float64
	}
	var b struct {
		Command    []string `json:"command"`
		Paths      []string `json:"paths"`
		RunSeconds float64  `json:"run_seconds"`
		Workloads  []row    `json:"workloads"`
		EndToEnd   []row    `json:"end_to_end"`
		PerLayer   []row    `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &b); err != nil {
		t.Fatal(err)
	}
	if b.RunSeconds != defaultSeconds {
		t.Errorf("run_seconds = %v, program default is %v", b.RunSeconds, defaultSeconds)
	}
	if len(b.Workloads) != len(workloadNames) {
		t.Fatalf("%d workloads in BENCHMARK.json, program has %d", len(b.Workloads), len(workloadNames))
	}
	for i, w := range b.Workloads {
		if w.Name != workloadNames[i] || w.Why != workloadWhy[w.Name] {
			t.Errorf("workload %d: %q / %q differs from the program's %q / %q", i, w.Name, w.Why, workloadNames[i], workloadWhy[workloadNames[i]])
		}
	}
	check := func(kind string, rows []row, defs []metricDef, bounded bool) {
		if len(rows) != len(defs) {
			t.Fatalf("%s: %d metrics in BENCHMARK.json, table has %d", kind, len(rows), len(defs))
		}
		for i, d := range defs {
			r := rows[i]
			if r.Name != d.Name || r.Unit != d.Unit || r.Better != d.Better || (bounded && r.Bound != d.Bound) {
				t.Errorf("%s[%d]: %+v differs from table row %+v", kind, i, r, d)
			}
		}
	}
	check("end_to_end", b.EndToEnd, endToEnd, true)
	check("per_layer", b.PerLayer, perLayer, false)
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	q1, q3 := quartiles([]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10})
	if q1 != 2.75 || q3 != 8.25 {
		t.Errorf("quartiles = %v, %v; want 2.75, 8.25", q1, q3)
	}
	// statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
	if q1, q3 = quartiles([]float64{3, 1, 2}); q1 != 1 || q3 != 3 {
		t.Errorf("quartiles of three = %v, %v; want 1, 3", q1, q3)
	}
}

func TestJudge(t *testing.T) {
	lower := metricDef{Name: "put_p50_ms", Better: "lower", Bound: 0.10}
	higher := metricDef{Name: "ops_per_s", Better: "higher", Bound: 0.10}
	for _, c := range []struct {
		d            metricDef
		a, b, spread float64
		want         string
	}{
		{lower, 1.0, 1.05, 0.02, "same"},
		{lower, 1.0, 1.20, 0.02, "worse"},
		{lower, 1.0, 0.80, 0.02, "better"},
		{higher, 1000, 850, 0.02, "worse"},
		{higher, 1000, 1200, 0.02, "better"},
		{lower, 1.0, 1.20, 0.15, "unresolved"},
	} {
		if got := judge(c.d, c.a, c.b, c.spread); got != c.want {
			t.Errorf("judge(%s, %v -> %v, spread %v) = %s, want %s", c.d.Name, c.a, c.b, c.spread, got, c.want)
		}
	}
}
