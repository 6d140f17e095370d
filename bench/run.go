package main

import (
	"context"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"time"

	"corec"
	"corec/internal/metrics"
	"corec/internal/transport"
)

// options is one workload run's command line.
type options struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	quick    bool
	outDir   string // scratch and span files; created on demand
}

// result is what one workload run reports.
type result struct {
	Workload  string              `json:"workload"`
	Why       string              `json:"why"`
	Trace     bool                `json:"trace"`
	Correct   bool                `json:"correct"`
	Attempted int64               `json:"attempted"`
	Failed    int64               `json:"failed"`
	FailShare float64             `json:"failed_ops_share"`
	Counts    map[string]int64    `json:"counts"`
	EndToEnd  map[string]measured `json:"end_to_end"`
	PerLayer  map[string]measured `json:"per_layer,omitempty"`
	Failures  []string            `json:"failures,omitempty"`
	SpanFile  string              `json:"span_file,omitempty"`
}

// Run shape. A run is set-up, one warm-up window and the measured windows,
// all of one length; the traced run spends one more such share on probes.
const (
	setupsUntraced  = 3 // set-up is repeated and setup_s is the median
	windowsUntraced = 7
	windowsTraced   = 4 // untraced, traced, untraced, traced
)

// runWorkload runs one workload for about o.seconds of measurement.
func runWorkload(o options) (*result, error) {
	s, err := newSpec(o.workload, o.quick)
	if err != nil {
		return nil, err
	}
	if err := os.MkdirAll(o.outDir, 0o755); err != nil {
		return nil, err
	}
	ctx, cancel := context.WithTimeout(context.Background(), time.Duration(o.seconds*float64(time.Second))*3+90*time.Second)
	defer cancel()
	epoch := time.Now()

	setups, windows, shares := setupsUntraced, windowsUntraced, windowsUntraced+1
	if o.trace {
		setups, windows, shares = 1, windowsTraced, windowsTraced+2
	}
	if o.quick {
		setups, windows, shares = 1, 2, shares-windows+2
	}
	budget := time.Duration(o.seconds / float64(shares) * float64(time.Second))

	var r *runner
	var setupS []float64
	for i := 0; i < setups; i++ {
		if r != nil {
			r.close()
			runtime.GC()
		}
		t0 := time.Now()
		if r, err = newRunner(ctx, s, o.seed, o.outDir, epoch); err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		setupS = append(setupS, time.Since(t0).Seconds())
	}
	defer r.close()
	r.traceRun = o.trace

	r.runWindow(budget, false) // warm-up: caches fill, every server has been a victim's peer
	base := takeCounters(r.cluster)
	var ws []windowStats
	for i := 0; i < windows; i++ {
		ws = append(ws, r.runWindow(budget, o.trace && i%2 == 1))
	}
	delta := takeCounters(r.cluster).sub(base)
	r.verifyAll()

	res := &result{
		Workload: s.name,
		Why:      workloadWhy[s.name],
		Trace:    o.trace,
		Counts:   map[string]int64{"windows": int64(len(ws)), "keys": int64(len(s.keys)), "object_bytes": int64(s.objBytes)},
	}
	untraced := ws
	if o.trace {
		untraced = nil
		for _, w := range ws {
			if !w.traced {
				untraced = append(untraced, w)
			}
		}
	}
	res.EndToEnd = endToEndMetrics(untraced, setupS)
	for _, w := range ws {
		res.Counts["steps"] += int64(w.steps)
		res.Counts["puts"] += int64(len(w.lat[kindPut]))
		res.Counts["gets"] += int64(len(w.lat[kindGet]))
		res.Counts["degraded_gets"] += int64(len(w.lat[kindDegradedGet]))
	}
	if o.trace {
		res.PerLayer = perLayerMetrics(r, ws, delta, res.EndToEnd, budget, o)
		res.SpanFile = filepath.Join(o.outDir, "trace-"+s.name+".jsonl")
		tracers := []*tracer{r.tr}
		for _, c := range r.clients {
			tracers = append(tracers, c.tr)
		}
		if _, err := writeSpans(res.SpanFile, tracers...); err != nil {
			return nil, err
		}
	}
	// Peak memory is read last so it covers everything the run did.
	res.EndToEnd["mem_peak_mb"] = measured{Value: peakRSSMB(), Unit: "MB", Samples: 1}
	res.Attempted, res.Failed = r.tally()
	res.FailShare = ratio(float64(res.Failed), float64(res.Attempted))
	res.Failures = r.failures
	res.Correct = res.Failed == 0 && len(res.Failures) == 0 // a failed probe records a failure without an op
	return res, nil
}

// windowMedian reports the median over windows of one per-window value,
// with the windows' inter-quartile spread and the smallest sample count.
func windowMedian(ws []windowStats, unit string, f func(w *windowStats) (value float64, samples int)) measured {
	var vals []float64
	min := int64(-1)
	for i := range ws {
		v, n := f(&ws[i])
		vals = append(vals, v)
		if min < 0 || int64(n) < min {
			min = int64(n)
		}
	}
	return measured{Value: median(vals), Unit: unit, IQR: iqr(vals), Samples: min, Windows: vals}
}

func p50Of(kind int) func(w *windowStats) (float64, int) {
	return func(w *windowStats) (float64, int) { return median(w.lat[kind]), len(w.lat[kind]) }
}

// endToEndMetrics folds the measured windows into the end-to-end table
// (mem_peak_mb is added by the caller, after everything else has run).
func endToEndMetrics(ws []windowStats, setupS []float64) map[string]measured {
	return map[string]measured{
		"setup_s":             {Value: median(setupS), Unit: "s", IQR: iqr(setupS), Samples: int64(len(setupS))},
		"put_p50_ms":          windowMedian(ws, "ms", p50Of(kindPut)),
		"get_p50_ms":          windowMedian(ws, "ms", p50Of(kindGet)),
		"degraded_get_p50_ms": windowMedian(ws, "ms", p50Of(kindDegradedGet)),
		"ops_per_s": windowMedian(ws, "1/s", func(w *windowStats) (float64, int) {
			return float64(w.ops) / w.mainWall.Seconds(), int(w.ops)
		}),
		"goodput_MBps": windowMedian(ws, "MB/s", func(w *windowStats) (float64, int) {
			return float64(w.bytes) / 1e6 / w.mainWall.Seconds(), int(w.ops)
		}),
		"step_ms": windowMedian(ws, "ms", func(w *windowStats) (float64, int) {
			return median(w.stepMs), len(w.stepMs)
		}),
		"storage_overhead": windowMedian(ws, "ratio", func(w *windowStats) (float64, int) { return w.overhead, 1 }),
	}
}

// counters is the cluster-wide and process-wide state the per-layer deltas
// are taken from. Unlike per-server counters these survive a server's kill.
type counters struct {
	at        time.Time
	cpu       time.Duration
	phases    *metrics.Snapshot
	fabric    corec.FabricStatus
	mem       runtime.MemStats
	poolHits  int64
	poolMiss  int64
	muxRedial int64
}

func takeCounters(c *corec.Cluster) counters {
	k := counters{at: time.Now(), cpu: cpuTime(), phases: c.Collector().Snapshot(), fabric: c.FabricStatus()}
	runtime.ReadMemStats(&k.mem)
	k.poolHits, k.poolMiss = transport.BufferPoolStats()
	k.muxRedial = k.fabric.Transport.MuxRedials
	return k
}

// counterDelta is the change of counters over the measured windows.
type counterDelta struct {
	wall, cpu           time.Duration
	phase               [metrics.Classify + 1]time.Duration // by metrics.Bucket
	retries, failovers  int64
	poolHits, poolMiss  int64
	muxRedials          int64
	mallocs, allocBytes uint64
	gcPause             time.Duration
	gcCycles            uint32
	cacheHits, cacheMis int64
}

func (k counters) sub(b counters) counterDelta {
	d := counterDelta{
		wall:       k.at.Sub(b.at),
		cpu:        k.cpu - b.cpu,
		retries:    k.fabric.Retries - b.fabric.Retries,
		failovers:  k.fabric.Failovers - b.fabric.Failovers,
		poolHits:   k.poolHits - b.poolHits,
		poolMiss:   k.poolMiss - b.poolMiss,
		muxRedials: k.muxRedial - b.muxRedial,
		mallocs:    k.mem.Mallocs - b.mem.Mallocs,
		allocBytes: k.mem.TotalAlloc - b.mem.TotalAlloc,
		gcPause:    time.Duration(k.mem.PauseTotalNs - b.mem.PauseTotalNs),
		gcCycles:   k.mem.NumGC - b.mem.NumGC,
		// Decode-cache tallies live partly on servers, which a kill resets;
		// the totals since fleet start are the stable reading.
		cacheHits: k.fabric.Encoding.DecodeCacheHits,
		cacheMis:  k.fabric.Encoding.DecodeCacheMisses,
	}
	for bucket := range d.phase {
		d.phase[bucket] = k.phases.Phase(metrics.Bucket(bucket)) - b.phases.Phase(metrics.Bucket(bucket))
	}
	return d
}

// printTable prints every metric of the result by name, with its unit, the
// windows' spread and the sample count behind it.
func printTable(w io.Writer, res *result) {
	fmt.Fprintf(w, "\n== %s (trace %v): attempted %d, failed %d, failed_ops_share %g\n",
		res.Workload, res.Trace, res.Attempted, res.Failed, res.FailShare)
	keys := make([]string, 0, len(res.Counts))
	for k := range res.Counts {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		fmt.Fprintf(w, "   %s=%d", k, res.Counts[k])
	}
	fmt.Fprintln(w)
	row := func(d metricDef, m measured) {
		fmt.Fprintf(w, "  %-34s %14.4f %-6s iqr %10.4f  n=%d\n", d.Name, m.Value, d.Unit, m.IQR, m.Samples)
	}
	for _, d := range endToEnd {
		row(d, res.EndToEnd[d.Name])
	}
	if res.Trace {
		fmt.Fprintln(w, "  -- per layer")
		for _, d := range perLayer {
			row(d, res.PerLayer[d.Name])
		}
	}
	for _, f := range res.Failures {
		fmt.Fprintf(w, "  FAILED: %s\n", f)
	}
}
