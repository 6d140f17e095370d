// Package harness drives the paper's experiments: it builds staging
// clusters, executes workloads with parallel writer/reader ranks, injects
// failures and recoveries, and collects the response-time and breakdown
// statistics each figure reports. The cmd/corec-bench binary and the
// repository's benchmark suite are thin wrappers over this package.
package harness

import (
	"context"
	"fmt"
	"math/rand"
	"sync"
	"time"

	"corec"
	"corec/internal/checkpoint"
	"corec/internal/failure"
	"corec/internal/geometry"
	"corec/internal/metrics"
	"corec/internal/ndarray"
	"corec/internal/simnet"
	"corec/internal/types"
	"corec/internal/workload"
)

// FailureScenario selects the failure/recovery treatment of a run.
type FailureScenario int

// Failure scenarios, matching the Figure 8 legend.
const (
	// NoFailures runs failure-free.
	NoFailures FailureScenario = iota
	// Degraded kills servers mid-run with no replacement: reads take the
	// degraded path for the rest of the run (CoREC+1d / CoREC+2d).
	Degraded
	// LazyRecovery kills servers and later joins replacements using
	// CoREC's lazy scheme (CoREC+1f / CoREC+2f).
	LazyRecovery
	// AggressiveRecovery kills servers and recovers everything immediately
	// (Erasure+1f / Erasure+2f baseline).
	AggressiveRecovery
)

// String implements fmt.Stringer.
func (f FailureScenario) String() string {
	switch f {
	case Degraded:
		return "degraded"
	case LazyRecovery:
		return "lazy"
	case AggressiveRecovery:
		return "aggressive"
	default:
		return "none"
	}
}

// Options configures one experiment run.
type Options struct {
	// Label names the run in reports (e.g. "CoREC+1f").
	Label string
	// Config is the staging cluster the run builds; start from
	// corec.DefaultConfig. Its Seed also seeds the workload, and a run
	// under AggressiveRecovery recovers aggressively whatever its
	// RecoveryMode.
	Config corec.Config
	// Writers and Readers are the parallel client rank counts.
	Writers, Readers int
	// Pattern and workload geometry.
	Pattern   workload.Pattern
	BlockSize []int64
	TimeSteps int
	// Failures is the number of servers to kill (with FailureScenario).
	Failures int
	Scenario FailureScenario
	// Checkpoints, when positive, attaches the Checkpoint/Restart baseline:
	// the run checkpoints the staged data to the simulated PFS this many
	// times, spread evenly over its time steps (Figure 2).
	Checkpoints int
	// PFS is the parallel-file-system model for checkpointing and the PFS
	// I/O baseline.
	PFS simnet.PFSModel
}

// Result captures one run's measurements.
type Result struct {
	Label string
	// MeanWrite and MeanRead are the client-observed response times.
	MeanWrite, MeanRead time.Duration
	// WriteEfficiency is the paper's metric: write response time divided
	// by storage efficiency (lower is better).
	WriteEfficiency float64
	// Storage is the end-of-run storage accounting.
	Storage corec.StorageReport
	// Snapshot is the full metrics snapshot (phase breakdowns, series).
	Snapshot *metrics.Snapshot
	// Elapsed is the total workflow wall time.
	Elapsed time.Duration
	// CheckpointTime and Checkpoints report the Figure 2 baseline's cost.
	CheckpointTime time.Duration
	Checkpoints    int
	// RestartTime is the modelled global-restart cost (Figure 2).
	RestartTime time.Duration
	// Demotions and Promotions count CoREC transitions.
	Demotions, Promotions int
	// ReadErrors counts failed reads (should be zero within tolerance).
	ReadErrors int
}

func (o *Options) withDefaults() Options {
	out := *o
	if out.Writers == 0 {
		out.Writers = 8
	}
	if out.Readers == 0 {
		out.Readers = 4
	}
	if out.BlockSize == nil {
		out.BlockSize = []int64{16, 16, 16}
	}
	if out.TimeSteps == 0 {
		out.TimeSteps = 20
	}
	if out.Label == "" {
		out.Label = fmt.Sprintf("%v/%v", out.Config.Mode, out.Scenario)
	}
	return out
}

// clusterAdapter lets the failure.Schedule drive a corec.Cluster.
type clusterAdapter struct {
	c  *corec.Cluster
	wg *sync.WaitGroup
}

func (a *clusterAdapter) Kill(id types.ServerID) { a.c.Kill(id) }

func (a *clusterAdapter) Alive(id types.ServerID) bool { return a.c.Alive(id) }

func (a *clusterAdapter) Recover(id types.ServerID) {
	if _, err := a.c.Replace(id); err != nil {
		return
	}
	a.wg.Add(1)
	go func() {
		defer a.wg.Done()
		// Best-effort: unrecovered objects surface in the read-back check.
		_, _ = a.c.NewClient().RecoverServer(context.Background(), id, a.c.Config().RecoveryMode)
	}()
}

// Run executes one experiment and returns its measurements.
func Run(opts Options) (*Result, error) {
	opts = opts.withDefaults()
	wl, err := opts.workload()
	if err != nil {
		return nil, err
	}
	return execute(opts, wl)
}

// workload generates the run's synthetic workload over the cluster's domain.
func (o *Options) workload() (*workload.Workload, error) {
	return workload.Generate(workload.Config{
		Pattern:   o.Pattern,
		Domain:    o.Config.Domain,
		BlockSize: o.BlockSize,
		TimeSteps: o.TimeSteps,
		Var:       "field",
		Seed:      o.Config.Seed,
	})
}

func execute(opts Options, wl *workload.Workload) (*Result, error) {
	ccfg := opts.Config
	if opts.Scenario == AggressiveRecovery {
		ccfg.RecoveryMode = corec.RecoveryAggressive
	}
	cluster, err := corec.NewCluster(ccfg)
	if err != nil {
		return nil, err
	}
	defer cluster.Close()

	sched := buildSchedule(opts)
	var recWG sync.WaitGroup
	adapter := &clusterAdapter{c: cluster, wg: &recWG}

	var cp *checkpoint.Checkpointer
	if opts.Checkpoints > 0 {
		cp = checkpoint.New(opts.PFS)
	}

	res := &Result{Label: opts.Label}
	writers := makeClients(cluster, opts.Writers)
	readers := makeClients(cluster, opts.Readers)
	start := time.Now()

	var demoted, promoted int
	for i, step := range wl.Steps {
		if sched != nil {
			sched.Advance(step.TS, adapter)
		}
		runWrites(cluster, writers, wl.Cfg.Var, step, opts, res)
		runReads(cluster, readers, wl.Cfg.Var, step, opts, res)
		d, p := cluster.EndTimeStep(step.TS)
		demoted += d
		promoted += p
		if cp != nil {
			// After step i the run has taken (i+1)*Checkpoints/steps.
			n := len(wl.Steps)
			for due := (i+1)*opts.Checkpoints/n - i*opts.Checkpoints/n; due > 0; due-- {
				cp.Checkpoint(cluster)
			}
		}
	}
	recWG.Wait()
	res.Elapsed = time.Since(start)
	res.Demotions, res.Promotions = demoted, promoted
	res.Storage = cluster.StorageReport()
	res.Snapshot = cluster.Collector().Snapshot()
	res.MeanWrite = res.Snapshot.MeanWrite()
	res.MeanRead = res.Snapshot.MeanRead()
	if res.Storage.Efficiency > 0 {
		res.WriteEfficiency = float64(res.MeanWrite) / res.Storage.Efficiency / float64(time.Millisecond)
	}
	if cp != nil {
		n, _, total := cp.Stats()
		res.Checkpoints = n
		res.CheckpointTime = total
		if n > 0 {
			if d, _, err := cp.Restart(); err == nil {
				res.RestartTime = d
			}
		}
	}
	return res, nil
}

func buildSchedule(opts Options) *failure.Schedule {
	if opts.Scenario == NoFailures || opts.Failures == 0 {
		return nil
	}
	// Victims: spread across distinct groups; the schedule mirrors Figure
	// 10 (failures at steps 4 and 6, recoveries at 8 and 12).
	a := types.ServerID(1 % opts.Config.Servers)
	b := types.ServerID(5 % opts.Config.Servers)
	if b == a {
		b = types.ServerID((int(a) + 1) % opts.Config.Servers)
	}
	events := []failure.Event{{TimeStep: 4, Kind: failure.Kill, Server: a}}
	if opts.Failures >= 2 {
		events = append(events, failure.Event{TimeStep: 6, Kind: failure.Kill, Server: b})
	}
	if opts.Scenario != Degraded {
		events = append(events, failure.Event{TimeStep: 8, Kind: failure.Recover, Server: a})
		if opts.Failures >= 2 {
			events = append(events, failure.Event{TimeStep: 12, Kind: failure.Recover, Server: b})
		}
	}
	return failure.NewSchedule(events)
}

func makeClients(c *corec.Cluster, n int) []*corec.Client {
	out := make([]*corec.Client, n)
	for i := range out {
		out[i] = c.NewClient()
	}
	return out
}

// runWrites distributes the step's blocks round-robin over the writer
// ranks, which write concurrently (each block is one Put).
func runWrites(c *corec.Cluster, writers []*corec.Client, varName string, step workload.Step, opts Options, res *Result) {
	if len(step.Writes) == 0 {
		return
	}
	var wg sync.WaitGroup
	for w := range writers {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(opts.Config.Seed + int64(step.TS)*1000 + int64(w)))
			for i := w; i < len(step.Writes); i += len(writers) {
				box := step.Writes[i]
				buf := make([]byte, ndarray.BufferSize(box, opts.Config.ElemSize))
				rng.Read(buf)
				// Chaos runs expect some writes to fail mid-crash; losses
				// show up in the degraded-read measurements.
				_ = writers[w].Put(context.Background(), varName, box, step.TS, buf)
			}
		}(w)
	}
	wg.Wait()
}

// runReads splits each read region across the reader ranks along the first
// dimension, mirroring a parallel analysis application.
func runReads(c *corec.Cluster, readers []*corec.Client, varName string, step workload.Step, opts Options, res *Result) {
	if len(step.Reads) == 0 {
		return
	}
	var wg sync.WaitGroup
	var mu sync.Mutex
	for _, region := range step.Reads {
		pieces := splitRegion(region, len(readers))
		for i, piece := range pieces {
			wg.Add(1)
			go func(r int, piece geometry.Box) {
				defer wg.Done()
				if _, err := readers[r%len(readers)].Get(context.Background(), varName, piece, step.TS); err != nil {
					mu.Lock()
					res.ReadErrors++
					mu.Unlock()
				}
			}(i, piece)
		}
	}
	wg.Wait()
}

// splitRegion cuts a box into up to n contiguous slabs along its longest
// dimension.
func splitRegion(b geometry.Box, n int) []geometry.Box {
	if n <= 1 {
		return []geometry.Box{b}
	}
	d := b.LongestDim()
	size := b.Size(d)
	if size < int64(n) {
		n = int(size)
	}
	out := make([]geometry.Box, 0, n)
	for i := 0; i < n; i++ {
		lo := b.Lo[d] + size*int64(i)/int64(n)
		hi := b.Lo[d] + size*int64(i+1)/int64(n)
		if lo >= hi {
			continue
		}
		piece := b.Clone()
		piece.Lo[d] = lo
		piece.Hi[d] = hi
		out = append(out, piece)
	}
	return out
}

// RunPFSBaseline models the paper's "S3D without data staging" runs:
// writers persist their blocks straight to the parallel file system and
// readers pull them back, sharing the PFS's aggregate bandwidth. It
// produces the same Result shape as Run for side-by-side reporting.
func RunPFSBaseline(opts Options) (*Result, error) {
	opts = opts.withDefaults()
	wl, err := opts.workload()
	if err != nil {
		return nil, err
	}
	col := metrics.NewCollector()
	start := time.Now()
	for _, step := range wl.Steps {
		var wg sync.WaitGroup
		for w := 0; w < opts.Writers; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				for i := w; i < len(step.Writes); i += opts.Writers {
					size := int(step.Writes[i].Volume()) * opts.Config.ElemSize
					t0 := time.Now()
					time.Sleep(opts.PFS.WriteDelay(size, opts.Writers))
					col.RecordWrite(int64(step.TS), time.Since(t0))
				}
			}(w)
		}
		wg.Wait()
		for _, region := range step.Reads {
			pieces := splitRegion(region, opts.Readers)
			var rg sync.WaitGroup
			for _, piece := range pieces {
				rg.Add(1)
				go func(piece geometry.Box) {
					defer rg.Done()
					size := int(piece.Volume()) * opts.Config.ElemSize
					t0 := time.Now()
					time.Sleep(opts.PFS.WriteDelay(size, opts.Readers))
					col.RecordRead(int64(step.TS), time.Since(t0))
				}(piece)
			}
			rg.Wait()
		}
	}
	snap := col.Snapshot()
	return &Result{
		Label:     opts.Label,
		MeanWrite: snap.MeanWrite(),
		MeanRead:  snap.MeanRead(),
		Snapshot:  snap,
		Elapsed:   time.Since(start),
		Storage:   corec.StorageReport{Efficiency: 1},
	}, nil
}
