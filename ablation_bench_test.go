package corec_test

// Ablation benchmarks for the design choices DESIGN.md calls out: the
// load-balancing helper delegation, the classifier's spatial and temporal
// rules, the storage-efficiency constraint, and the recovery strategy.
// Compare variants with, e.g.:
//
//	go test -bench 'Ablation' -benchtime 3x .

import (
	"testing"
	"time"

	"corec"
	"corec/internal/classifier"
	"corec/internal/geometry"
	"corec/internal/harness"
	"corec/internal/workload"
)

func ablationOptions(pattern workload.Pattern) harness.Options {
	cfg := corec.DefaultConfig(8)
	cfg.Domain = geometry.Box3D(0, 0, 0, 48, 48, 48)
	cfg.MTBF = 4 * time.Second
	cfg.Seed = 3
	return harness.Options{
		Config:    cfg,
		Writers:   8,
		Readers:   4,
		Pattern:   pattern,
		BlockSize: []int64{12, 12, 12},
		TimeSteps: 8,
	}
}

func runAblation(b *testing.B, opts harness.Options) {
	b.Helper()
	for i := 0; i < b.N; i++ {
		res, err := harness.Run(opts)
		if err != nil {
			b.Fatal(err)
		}
		if res.ReadErrors != 0 {
			b.Fatalf("%d read errors", res.ReadErrors)
		}
		b.ReportMetric(float64(res.MeanWrite)/1e6, "write-ms")
		b.ReportMetric(res.Storage.Efficiency, "storage-eff")
	}
}

// --- helper delegation (conflict-avoiding encode workflow) ---

func BenchmarkAblationHelperOn(b *testing.B) {
	opts := ablationOptions(workload.Case1WriteAll)
	opts.Config.HelperLoadDelta = 2
	runAblation(b, opts)
}

func BenchmarkAblationHelperOff(b *testing.B) {
	opts := ablationOptions(workload.Case1WriteAll)
	opts.Config.HelperLoadDelta = -1 // never delegate
	runAblation(b, opts)
}

// --- classifier rules (hotspot workload benefits from both) ---

func classifierBase(domain geometry.Box) classifier.Config {
	return classifier.DefaultConfig(domain)
}

func BenchmarkAblationClassifierFull(b *testing.B) {
	opts := ablationOptions(workload.Case3Hotspot)
	opts.Config.Classifier = classifierBase(opts.Config.Domain)
	runAblation(b, opts)
}

func BenchmarkAblationClassifierNoSpatial(b *testing.B) {
	opts := ablationOptions(workload.Case3Hotspot)
	cc := classifierBase(opts.Config.Domain)
	cc.SpatialRadius = 0
	opts.Config.Classifier = cc
	runAblation(b, opts)
}

func BenchmarkAblationClassifierNoLookahead(b *testing.B) {
	opts := ablationOptions(workload.Case2RoundRobin) // periodic writes
	cc := classifierBase(opts.Config.Domain)
	cc.HistoryDepth = 2 // minimum; effectively no period detection benefit
	opts.Config.Classifier = cc
	runAblation(b, opts)
}

func BenchmarkAblationClassifierTinyWindow(b *testing.B) {
	opts := ablationOptions(workload.Case3Hotspot)
	cc := classifierBase(opts.Config.Domain)
	cc.Window = 1
	opts.Config.Classifier = cc
	runAblation(b, opts)
}

// --- storage-efficiency constraint sweep ---

func BenchmarkAblationConstraintNone(b *testing.B) { benchConstraint(b, 0) }
func BenchmarkAblationConstraint50(b *testing.B)   { benchConstraint(b, 0.50) }
func BenchmarkAblationConstraint67(b *testing.B)   { benchConstraint(b, 0.67) }
func BenchmarkAblationConstraint74(b *testing.B)   { benchConstraint(b, 0.74) }

func benchConstraint(b *testing.B, s float64) {
	opts := ablationOptions(workload.Case1WriteAll)
	opts.Config.StorageEfficiencyMin = s
	runAblation(b, opts)
}

// --- recovery strategy under an identical failure schedule ---

func BenchmarkAblationRecoveryLazy(b *testing.B) {
	opts := ablationOptions(workload.Case5ReadAll)
	opts.TimeSteps = 12
	opts.Failures = 1
	opts.Scenario = harness.LazyRecovery
	opts.Config.MTBF = time.Second
	runAblation(b, opts)
}

func BenchmarkAblationRecoveryAggressive(b *testing.B) {
	opts := ablationOptions(workload.Case5ReadAll)
	opts.TimeSteps = 12
	opts.Failures = 1
	opts.Scenario = harness.AggressiveRecovery
	runAblation(b, opts)
}
