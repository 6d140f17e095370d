package corec_test

// One benchmark per paper table/figure (see DESIGN.md's experiment index),
// plus micro-benchmarks of the staging hot paths. The figure benches run a
// scaled-down configuration per iteration so `go test -bench=.` finishes in
// minutes; use cmd/corec-bench for the full sweeps with report output.

import (
	"context"
	"math/rand"
	"testing"
	"time"

	"corec"
	"corec/internal/geometry"
	"corec/internal/harness"
	"corec/internal/model"
	"corec/internal/ndarray"
	"corec/internal/simnet"
	"corec/internal/workload"
)

func benchOptions(mode corec.Mode, pattern workload.Pattern) harness.Options {
	cfg := corec.DefaultConfig(8)
	cfg.Mode = mode
	cfg.Domain = geometry.Box3D(0, 0, 0, 32, 32, 32)
	cfg.MTBF = 4 * time.Second
	cfg.Seed = 1
	return harness.Options{
		Config:    cfg,
		Writers:   4,
		Readers:   2,
		Pattern:   pattern,
		BlockSize: []int64{16, 16, 16},
		TimeSteps: 5,
	}
}

func runBench(b *testing.B, opts harness.Options) {
	b.Helper()
	for i := 0; i < b.N; i++ {
		res, err := harness.Run(opts)
		if err != nil {
			b.Fatal(err)
		}
		if res.ReadErrors != 0 {
			b.Fatalf("%d read errors", res.ReadErrors)
		}
	}
}

// BenchmarkFig2Checkpoint measures the Checkpoint/Restart baseline of
// Figure 2: staged data periodically written to the simulated PFS.
func BenchmarkFig2Checkpoint(b *testing.B) {
	opts := benchOptions(corec.PolicyNone, workload.Case1WriteAll)
	opts.Checkpoints = opts.TimeSteps
	opts.PFS = simnet.PFSModel{OpenLatency: 200 * time.Microsecond, BytesPerSecond: 1 << 30}
	runBench(b, opts)
}

// BenchmarkFig2CoREC measures the same workload protected by CoREC instead
// of checkpointing (the Exec-CoREC bar of Figure 2).
func BenchmarkFig2CoREC(b *testing.B) {
	runBench(b, benchOptions(corec.PolicyCoREC, workload.Case1WriteAll))
}

// BenchmarkFig4Model evaluates the analytic model curves of Figure 4.
func BenchmarkFig4Model(b *testing.B) {
	p := model.Default()
	for i := 0; i < b.N; i++ {
		if _, err := model.Fig4Curves(p, []float64{0, 0.2, 0.4}, 41); err != nil {
			b.Fatal(err)
		}
	}
}

// Figure 8: one benchmark per synthetic case, running the CoREC mechanism
// (the paper's headline bars). The -bench regexp selects cases.
func BenchmarkFig8Case1WriteAll(b *testing.B) {
	runBench(b, benchOptions(corec.PolicyCoREC, workload.Case1WriteAll))
}

func BenchmarkFig8Case2RoundRobin(b *testing.B) {
	runBench(b, benchOptions(corec.PolicyCoREC, workload.Case2RoundRobin))
}

func BenchmarkFig8Case3Hotspot(b *testing.B) {
	runBench(b, benchOptions(corec.PolicyCoREC, workload.Case3Hotspot))
}

func BenchmarkFig8Case4Random(b *testing.B) {
	runBench(b, benchOptions(corec.PolicyCoREC, workload.Case4Random))
}

func BenchmarkFig8Case5ReadAll(b *testing.B) {
	runBench(b, benchOptions(corec.PolicyCoREC, workload.Case5ReadAll))
}

// Figure 8 baselines on Case 1 for direct comparison runs.
func BenchmarkFig8BaselineReplicate(b *testing.B) {
	runBench(b, benchOptions(corec.PolicyReplicate, workload.Case1WriteAll))
}

func BenchmarkFig8BaselineErasure(b *testing.B) {
	runBench(b, benchOptions(corec.PolicyErasure, workload.Case1WriteAll))
}

func BenchmarkFig8BaselineHybrid(b *testing.B) {
	runBench(b, benchOptions(corec.PolicyHybrid, workload.Case1WriteAll))
}

// BenchmarkFig9Breakdown exercises the instrumented write path whose phase
// buckets populate Figure 9 (transport/metadata/encode/classify).
func BenchmarkFig9Breakdown(b *testing.B) {
	opts := benchOptions(corec.PolicyCoREC, workload.Case1WriteAll)
	for i := 0; i < b.N; i++ {
		res, err := harness.Run(opts)
		if err != nil {
			b.Fatal(err)
		}
		if res.Snapshot.PhaseCount[0] == 0 {
			b.Fatal("no transport samples")
		}
	}
}

// BenchmarkFig10LazyRecovery runs the failure/recovery timeline study:
// reads across a failure at TS 4 and lazy recovery from TS 8.
func BenchmarkFig10LazyRecovery(b *testing.B) {
	opts := benchOptions(corec.PolicyCoREC, workload.Case5ReadAll)
	opts.TimeSteps = 10
	opts.Failures = 1
	opts.Scenario = harness.LazyRecovery
	opts.Config.MTBF = 400 * time.Millisecond
	runBench(b, opts)
}

// BenchmarkFig10AggressiveRecovery is the aggressive-recovery baseline.
func BenchmarkFig10AggressiveRecovery(b *testing.B) {
	opts := benchOptions(corec.PolicyErasure, workload.Case5ReadAll)
	opts.TimeSteps = 10
	opts.Failures = 1
	opts.Scenario = harness.AggressiveRecovery
	runBench(b, opts)
}

// Figures 11/12: the S3D coupled workflow (writes + analysis reads) at the
// smallest Table II scale, CoREC vs the erasure baseline.
func BenchmarkFig11S3DRead(b *testing.B) {
	opts := benchOptions(corec.PolicyCoREC, workload.S3D)
	opts.Config.Domain = geometry.Box3D(0, 0, 0, 64, 32, 32)
	runBench(b, opts)
}

func BenchmarkFig12S3DWrite(b *testing.B) {
	opts := benchOptions(corec.PolicyErasure, workload.S3D)
	opts.Config.Domain = geometry.Box3D(0, 0, 0, 64, 32, 32)
	runBench(b, opts)
}

// --- staging hot-path micro-benchmarks ---

func newBenchCluster(b *testing.B, mode corec.Mode) (*corec.Cluster, *corec.Client) {
	b.Helper()
	cfg := corec.DefaultConfig(8)
	cfg.Mode = mode
	cluster, err := corec.NewCluster(cfg)
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(cluster.Close)
	return cluster, cluster.NewClient()
}

func benchPut(b *testing.B, mode corec.Mode) {
	_, client := newBenchCluster(b, mode)
	box := corec.Box3D(0, 0, 0, 32, 32, 32)
	data := make([]byte, ndarray.BufferSize(box, 8))
	rand.New(rand.NewSource(3)).Read(data)
	ctx := context.Background()
	b.SetBytes(int64(len(data)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := client.Put(ctx, "v", box, corec.Version(i+1), data); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkPutNone(b *testing.B)      { benchPut(b, corec.PolicyNone) }
func BenchmarkPutReplicate(b *testing.B) { benchPut(b, corec.PolicyReplicate) }
func BenchmarkPutErasure(b *testing.B)   { benchPut(b, corec.PolicyErasure) }
func BenchmarkPutCoREC(b *testing.B)     { benchPut(b, corec.PolicyCoREC) }

func BenchmarkGetReplicated(b *testing.B) { benchGet(b, corec.PolicyReplicate, false) }
func BenchmarkGetEncoded(b *testing.B)    { benchGet(b, corec.PolicyErasure, false) }
func BenchmarkGetDegraded(b *testing.B)   { benchGet(b, corec.PolicyErasure, true) }

func benchGet(b *testing.B, mode corec.Mode, kill bool) {
	cluster, client := newBenchCluster(b, mode)
	box := corec.Box3D(0, 0, 0, 32, 32, 32)
	data := make([]byte, ndarray.BufferSize(box, 8))
	rand.New(rand.NewSource(4)).Read(data)
	ctx := context.Background()
	if err := client.Put(ctx, "v", box, 1, data); err != nil {
		b.Fatal(err)
	}
	if kill {
		metas, err := client.Query(ctx, "v", box)
		if err != nil || len(metas) == 0 {
			b.Fatalf("query: %v", err)
		}
		cluster.Kill(metas[0].Primary)
	}
	b.SetBytes(int64(len(data)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := client.Get(ctx, "v", box, 1); err != nil {
			b.Fatal(err)
		}
	}
}

// Scaling benches: the same workload at increasing writer parallelism,
// showing how the staging cluster absorbs concurrent producers.
func BenchmarkScalingWriters2(b *testing.B)  { benchScaling(b, 2) }
func BenchmarkScalingWriters8(b *testing.B)  { benchScaling(b, 8) }
func BenchmarkScalingWriters32(b *testing.B) { benchScaling(b, 32) }

func benchScaling(b *testing.B, writers int) {
	opts := benchOptions(corec.PolicyCoREC, workload.Case1WriteAll)
	opts.Writers = writers
	for i := 0; i < b.N; i++ {
		res, err := harness.Run(opts)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(float64(res.MeanWrite)/1e6, "write-ms")
	}
}

// BenchmarkDeleteEviction measures the eviction path (drop copies, shards
// and metadata) that bounds staging memory between time steps.
func BenchmarkDeleteEviction(b *testing.B) {
	cluster, client := newBenchCluster(b, corec.PolicyErasure)
	ctx := context.Background()
	box := corec.Box3D(0, 0, 0, 16, 16, 16)
	data := make([]byte, ndarray.BufferSize(box, 8))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		if err := client.Put(ctx, "ev", box, corec.Version(i+1), data); err != nil {
			b.Fatal(err)
		}
		b.StartTimer()
		if _, err := client.Delete(ctx, "ev", box); err != nil {
			b.Fatal(err)
		}
	}
	_ = cluster
}
