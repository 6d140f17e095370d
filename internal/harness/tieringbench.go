package harness

import (
	"fmt"
	"io"
	"os"
	"runtime"
	"sort"
	"time"

	"corec/internal/storage"
)

// Tiering benchmark: drives a working set ~10x the L1 budget through the
// tiered storage engine and measures what staging out-of-core costs. Three
// arms over the identical seeded workload:
//
//   - mem:        unbounded L1, no lower tiers — the all-in-RAM baseline.
//   - tiered:     10% L1 budget, disk + modeled remote below, prefetch on.
//   - tiered-np:  the same budgets with the prefetch pipeline disabled,
//     isolating how much of the tiered arm's read latency the
//     next-step prefetcher buys back.
//
// The workload stages E epochs of objects (time-step tagged), then an
// analysis pass reads the epochs in order — the sequential access pattern
// the prefetcher is built for — spending a fixed compute budget per block
// after each read (the window the prefetch pipeline overlaps with; only
// the get itself is timed). Reported per arm: read latency p50/p99 and
// the engine's spill/upload/prefetch counters; the tiered arms also report
// p99 degradation versus the mem arm — a column, not a gate: it divides a
// tail of a few cold L3 reads by the p99 of a few dozen in-RAM gets, which
// wanders by 10x run to run. The harness test gates on what the run
// controls instead: every read served, almost all of them by the
// prefetcher, and a median far below the no-prefetch arm's. `make bench`
// serializes the report to BENCH_tiering.json so regressions show up as
// diffs in review.

// TieringBenchRow is one arm's measurement.
type TieringBenchRow struct {
	Arm string `json:"arm"`
	// WorkingSetMiB is the total staged volume; MemBudgetMiB the L1 cap
	// (0 = unbounded).
	WorkingSetMiB float64 `json:"working_set_mib"`
	MemBudgetMiB  float64 `json:"mem_budget_mib"`
	// Reads is the number of measured foreground gets.
	Reads int `json:"reads"`
	// WriteMillis is the staging phase's wall time (including the barrier
	// that drains the spill queue); ReadMillis the analysis pass's,
	// including the modeled per-block compute.
	WriteMillis float64 `json:"write_millis"`
	ReadMillis  float64 `json:"read_millis"`
	// P50Micros/P99Micros are foreground read latencies.
	P50Micros float64 `json:"p50_micros"`
	P99Micros float64 `json:"p99_micros"`
	// P99DegradationX is this arm's p99 over the mem arm's (1 for mem).
	P99DegradationX float64 `json:"p99_degradation_x"`
	// Engine counters after the run.
	Spills             int64   `json:"spills"`
	Uploads            int64   `json:"uploads"`
	ColdReads          int64   `json:"cold_reads"`
	PrefetchIssued     int64   `json:"prefetch_issued"`
	PrefetchHits       int64   `json:"prefetch_hits"`
	PrefetchHitRate    float64 `json:"prefetch_hit_rate"`
	BackpressureStalls int64   `json:"backpressure_stalls"`
	Compactions        int64   `json:"compactions"`
}

// TieringBenchReport is the full harness output.
type TieringBenchReport struct {
	GOMAXPROCS int  `json:"gomaxprocs"`
	Quick      bool `json:"quick"`
	// Epochs×KeysPerEpoch objects of ObjectBytes each; ComputeMicros is
	// the modeled per-block analysis time the prefetcher overlaps with.
	Epochs        int               `json:"epochs"`
	KeysPerEpoch  int               `json:"keys_per_epoch"`
	ObjectBytes   int               `json:"object_bytes"`
	ComputeMicros int               `json:"compute_micros"`
	Rows          []TieringBenchRow `json:"rows"`
}

func tieringKey(epoch, k int) string { return fmt.Sprintf("e%03d/k%04d", epoch, k) }

// tieringArm runs one arm's full workload and returns its row. compute is
// the per-block analysis budget spent after each read (untimed).
func tieringArm(arm string, epochs, keys, objBytes int, memBudget int64, prefetch bool, compute time.Duration) (TieringBenchRow, error) {
	row := TieringBenchRow{
		Arm:           arm,
		WorkingSetMiB: float64(epochs*keys*objBytes) / (1 << 20),
		MemBudgetMiB:  float64(memBudget) / (1 << 20),
	}
	cfg := storage.Config{MemBytes: memBudget}
	var remote *storage.RemoteStore
	if memBudget > 0 {
		dir, err := os.MkdirTemp("", "corec-tieringbench-")
		if err != nil {
			return row, err
		}
		defer os.RemoveAll(dir)
		cfg.Dir = dir
		// Disk holds half the working set; the oldest half spills on to a
		// modeled remote store with sub-millisecond opens.
		cfg.DiskBytes = int64(epochs*keys*objBytes) / 2
		remoteCfg := storage.RemoteConfig{
			OpenLatency:    200 * time.Microsecond,
			BytesPerSecond: 1 << 30,
		}
		cfg.Remote = &remoteCfg
		remote = storage.NewRemoteStore(remoteCfg)
		cfg.Prefetch = prefetch
		cfg.PrefetchDepth = keys // stage a whole next epoch per observation
		cfg.PrefetchMBps = 4096
	}
	eng, err := storage.Open(cfg, remote, "bench/")
	if err != nil {
		return row, err
	}
	defer eng.Close()

	// Staging phase: every epoch's objects, time-step tagged. The payload
	// bytes vary per key so disk records are not trivially compressible by
	// the page cache's zero detection. Each put gets its own buffer: the
	// engine keeps the slice it is handed and spills from it later.
	writeStart := time.Now()
	for e := 0; e < epochs; e++ {
		for k := 0; k < keys; k++ {
			buf := make([]byte, objBytes)
			for i := range buf {
				buf[i] = byte(i + e*31 + k*7)
			}
			eng.PutTagged(tieringKey(e, k), buf, int64(e+1))
		}
	}
	eng.WaitIdle()
	row.WriteMillis = float64(time.Since(writeStart).Microseconds()) / 1e3

	// Analysis phase: read the epochs in order, sequentially within each —
	// exactly the pattern the prefetcher detects. Latency is per-get.
	lat := make([]float64, 0, epochs*keys)
	readStart := time.Now()
	for e := 0; e < epochs; e++ {
		for k := 0; k < keys; k++ {
			t0 := time.Now()
			if _, ok := eng.Get(tieringKey(e, k)); !ok {
				return row, fmt.Errorf("tiering bench %s: %s missing", arm, tieringKey(e, k))
			}
			lat = append(lat, float64(time.Since(t0).Nanoseconds())/1e3)
			if compute > 0 {
				time.Sleep(compute) // per-block analysis; the prefetcher's window
			}
		}
	}
	row.ReadMillis = float64(time.Since(readStart).Microseconds()) / 1e3
	row.Reads = len(lat)
	sort.Float64s(lat)
	row.P50Micros = lat[len(lat)/2]
	row.P99Micros = lat[len(lat)*99/100]

	st := eng.Stats()
	row.Spills = st.Spills
	row.Uploads = st.Uploads
	row.ColdReads = st.ColdReads
	row.PrefetchIssued = st.PrefetchIssued
	row.PrefetchHits = st.PrefetchHits
	if total := st.ColdReads + st.PrefetchHits; total > 0 {
		row.PrefetchHitRate = float64(st.PrefetchHits) / float64(total)
	}
	row.BackpressureStalls = st.BackpressureStalls
	row.Compactions = st.Compactions
	return row, nil
}

// RunTieringBench measures all three arms over the shared workload. quick
// shrinks the working set for CI.
func RunTieringBench(quick bool) (*TieringBenchReport, error) {
	rep := &TieringBenchReport{
		GOMAXPROCS:    runtime.GOMAXPROCS(0),
		Quick:         quick,
		Epochs:        10,
		KeysPerEpoch:  32,
		ObjectBytes:   64 << 10,
		ComputeMicros: 500,
	}
	if quick {
		rep.Epochs = 6
		rep.KeysPerEpoch = 16
		rep.ObjectBytes = 32 << 10
		rep.ComputeMicros = 300
	}
	workingSet := int64(rep.Epochs * rep.KeysPerEpoch * rep.ObjectBytes)
	memBudget := workingSet / 10 // the 10x-RAM working set of the experiment

	arms := []struct {
		name     string
		budget   int64
		prefetch bool
	}{
		{"mem", 0, false},
		{"tiered", memBudget, true},
		{"tiered-np", memBudget, false},
	}
	var memP99 float64
	for _, a := range arms {
		row, err := tieringArm(a.name, rep.Epochs, rep.KeysPerEpoch, rep.ObjectBytes,
			a.budget, a.prefetch, time.Duration(rep.ComputeMicros)*time.Microsecond)
		if err != nil {
			return nil, err
		}
		if a.name == "mem" {
			memP99 = row.P99Micros
		}
		if memP99 > 0 {
			row.P99DegradationX = row.P99Micros / memP99
		}
		rep.Rows = append(rep.Rows, row)
	}
	return rep, nil
}

// WriteTieringBench renders the report as the human-readable companion to
// the JSON artifact.
func WriteTieringBench(w io.Writer, rep *TieringBenchReport) {
	fmt.Fprintf(w, "Tiering benchmarks (GOMAXPROCS=%d, quick=%v): %d epochs x %d keys x %d KiB\n",
		rep.GOMAXPROCS, rep.Quick, rep.Epochs, rep.KeysPerEpoch, rep.ObjectBytes>>10)
	fmt.Fprintf(w, "%-10s %-9s %-8s %-10s %-10s %-8s %-7s %-8s %-9s %-8s %s\n",
		"arm", "set(MiB)", "L1(MiB)", "p50(us)", "p99(us)", "p99 deg", "spills", "uploads", "coldRead", "pf hits", "pf rate")
	for _, r := range rep.Rows {
		fmt.Fprintf(w, "%-10s %-9.1f %-8.1f %-10.1f %-10.1f %-8.1f %-7d %-8d %-9d %-8d %.2f\n",
			r.Arm, r.WorkingSetMiB, r.MemBudgetMiB, r.P50Micros, r.P99Micros,
			r.P99DegradationX, r.Spills, r.Uploads, r.ColdReads, r.PrefetchHits, r.PrefetchHitRate)
	}
}
