package harness

import (
	"bytes"
	"strings"
	"testing"
	"time"

	"corec"
	"corec/internal/geometry"
	"corec/internal/simnet"
	"corec/internal/workload"
)

// smallOptions keeps unit-test runs fast: tiny domain, few steps, free
// network.
func smallOptions(mode corec.Mode, pattern workload.Pattern) Options {
	cfg := corec.DefaultConfig(8)
	cfg.Mode = mode
	cfg.Domain = geometry.Box3D(0, 0, 0, 16, 16, 16)
	cfg.Seed = 11
	return Options{
		Config:    cfg,
		Writers:   4,
		Readers:   2,
		Pattern:   pattern,
		BlockSize: []int64{8, 8, 8},
		TimeSteps: 6,
	}
}

func TestRunFailureFreeAllModes(t *testing.T) {
	for _, mode := range []corec.Mode{corec.PolicyNone, corec.PolicyReplicate, corec.PolicyErasure, corec.PolicyHybrid, corec.PolicyCoREC} {
		res, err := Run(smallOptions(mode, workload.Case1WriteAll))
		if err != nil {
			t.Fatalf("%v: %v", mode, err)
		}
		if res.ReadErrors != 0 {
			t.Fatalf("%v: %d read errors in failure-free run", mode, res.ReadErrors)
		}
		if res.Snapshot.WriteCount == 0 || res.Snapshot.ReadCount == 0 {
			t.Fatalf("%v: missing response samples", mode)
		}
		if res.MeanWrite <= 0 {
			t.Fatalf("%v: non-positive mean write", mode)
		}
	}
}

func TestRunDegradedScenarioServesReads(t *testing.T) {
	opts := smallOptions(corec.PolicyCoREC, workload.Case5ReadAll)
	opts.TimeSteps = 8
	opts.Failures = 1
	opts.Scenario = Degraded
	res, err := Run(opts)
	if err != nil {
		t.Fatal(err)
	}
	if res.ReadErrors != 0 {
		t.Fatalf("%d read errors in single-failure degraded run", res.ReadErrors)
	}
}

func TestRunLazyRecoveryScenario(t *testing.T) {
	opts := smallOptions(corec.PolicyErasure, workload.Case5ReadAll)
	opts.TimeSteps = 10
	opts.Failures = 1
	opts.Scenario = LazyRecovery
	opts.Config.MTBF = 400 * time.Millisecond
	res, err := Run(opts)
	if err != nil {
		t.Fatal(err)
	}
	if res.ReadErrors != 0 {
		t.Fatalf("%d read errors across failure and recovery", res.ReadErrors)
	}
}

func TestRunWithCheckpointBaseline(t *testing.T) {
	opts := smallOptions(corec.PolicyNone, workload.Case1WriteAll)
	opts.Checkpoints = opts.TimeSteps
	opts.PFS = simnet.PFSModel{OpenLatency: 100 * time.Microsecond, BytesPerSecond: 1 << 30}
	res, err := Run(opts)
	if err != nil {
		t.Fatal(err)
	}
	if res.Checkpoints == 0 || res.CheckpointTime <= 0 {
		t.Fatalf("checkpointing inactive: %+v", res)
	}
	if res.RestartTime <= 0 {
		t.Fatal("restart cost not measured")
	}
}

// TestRunSpreadsCheckpointCount pins the cadence rule: a run takes exactly
// Checkpoints checkpoints over its time steps, fewer than one per step or
// one per step, and on a stage-once workload each costs one restart.
func TestRunSpreadsCheckpointCount(t *testing.T) {
	for _, n := range []int{13, 20} {
		opts := smallOptions(corec.PolicyNone, workload.Case5ReadAll)
		opts.TimeSteps = 20
		opts.Checkpoints = n
		opts.PFS = simnet.PFSModel{OpenLatency: 100 * time.Microsecond, BytesPerSecond: 1 << 30}
		res, err := Run(opts)
		if err != nil {
			t.Fatal(err)
		}
		if res.Checkpoints != n {
			t.Fatalf("Checkpoints %d over 20 steps took %d", n, res.Checkpoints)
		}
		if d := res.CheckpointTime - time.Duration(n)*res.RestartTime; d < -time.Duration(n)*time.Microsecond || d > time.Duration(n)*time.Microsecond {
			t.Fatalf("%d checkpoints cost %v, restart %v", n, res.CheckpointTime, res.RestartTime)
		}
	}
}

func TestWriteEfficiencyComputed(t *testing.T) {
	res, err := Run(smallOptions(corec.PolicyReplicate, workload.Case1WriteAll))
	if err != nil {
		t.Fatal(err)
	}
	if res.WriteEfficiency <= 0 {
		t.Fatal("write efficiency not computed")
	}
	// write-eff = write(ms) / storage-eff; replication's eff ~0.5 doubles
	// the metric relative to raw time.
	raw := float64(res.MeanWrite) / float64(time.Millisecond)
	if res.WriteEfficiency < raw {
		t.Fatalf("write efficiency %v below raw write time %v despite eff<1", res.WriteEfficiency, raw)
	}
}

func TestSplitRegion(t *testing.T) {
	b := geometry.Box3D(0, 0, 0, 10, 4, 4)
	pieces := splitRegion(b, 3)
	if len(pieces) != 3 {
		t.Fatalf("got %d pieces", len(pieces))
	}
	if geometry.CoverVolume(pieces) != b.Volume() || !geometry.Disjoint(pieces) {
		t.Fatal("split is not an exact disjoint cover")
	}
	if got := splitRegion(b, 1); len(got) != 1 || !got[0].Equal(b) {
		t.Fatal("n=1 must return the box")
	}
	thin := geometry.Box3D(0, 0, 0, 2, 1, 1)
	if got := splitRegion(thin, 8); len(got) != 2 {
		t.Fatalf("thin box split into %d pieces, want 2", len(got))
	}
}

func TestRunPFSBaseline(t *testing.T) {
	opts := smallOptions(corec.PolicyNone, workload.S3D)
	opts.PFS = simnet.PFSModel{OpenLatency: 50 * time.Microsecond, BytesPerSecond: 1 << 30}
	res, err := RunPFSBaseline(opts)
	if err != nil {
		t.Fatal(err)
	}
	if res.MeanWrite <= 0 || res.MeanRead <= 0 {
		t.Fatalf("PFS baseline produced no costs: %+v", res)
	}
}

func TestRunFig4AndFormat(t *testing.T) {
	pts, err := RunFig4()
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	Fig4Table(pts, []float64{0, 0.2, 0.4}).WriteText(&buf)
	out := buf.String()
	if !strings.Contains(out, "replica") || !strings.Contains(out, "corec_rm0.4") {
		t.Fatalf("Fig4 output malformed:\n%s", out)
	}
	if len(strings.Split(strings.TrimSpace(out), "\n")) < 22 {
		t.Fatal("Fig4 table too short")
	}
}

func TestFormatters(t *testing.T) {
	res, err := Run(smallOptions(corec.PolicyCoREC, workload.Case1WriteAll))
	if err != nil {
		t.Fatal(err)
	}
	cr := []CaseResult{{Pattern: workload.Case1WriteAll, Results: []*Result{res}}}
	var buf bytes.Buffer
	Fig8Table(cr).WriteText(&buf)
	Fig9Table(cr).WriteText(&buf)
	out := buf.String()
	for _, want := range []string{"Figure 8", "Figure 9", "transport_ms", "write_eff"} {
		if !strings.Contains(out, want) {
			t.Fatalf("formatter output missing %q:\n%s", want, out)
		}
	}
}

func TestFig10SeriesShape(t *testing.T) {
	// One failure at TS 4 with degraded reads must not error, and the
	// series must span all time steps.
	opts := smallOptions(corec.PolicyCoREC, workload.Case5ReadAll)
	opts.TimeSteps = 10
	opts.Failures = 1
	opts.Scenario = Degraded
	res, err := Run(opts)
	if err != nil {
		t.Fatal(err)
	}
	reads := 0
	for _, s := range res.Snapshot.Steps {
		if s.ReadCount > 0 {
			reads++
		}
	}
	if reads != 10 {
		t.Fatalf("read series covers %d steps, want 10", reads)
	}
	var buf bytes.Buffer
	Fig10Table([]Fig10Run{{Label: "x", Result: res}}).WriteText(&buf)
	if !strings.Contains(buf.String(), "Figure 10") {
		t.Fatal("Fig10 formatter broken")
	}
}

func TestTableIDescription(t *testing.T) {
	s := TableIDescription()
	for _, want := range []string{"8", "3 / 1", "67%"} {
		if !strings.Contains(s, want) {
			t.Fatalf("Table I description missing %q:\n%s", want, s)
		}
	}
}

func TestScenarioString(t *testing.T) {
	if NoFailures.String() != "none" || Degraded.String() != "degraded" ||
		LazyRecovery.String() != "lazy" || AggressiveRecovery.String() != "aggressive" {
		t.Fatal("scenario strings wrong")
	}
}

func TestMechanismAndPatternLists(t *testing.T) {
	if len(Fig8Mechanisms()) != 11 {
		t.Fatalf("%d mechanisms, want 11", len(Fig8Mechanisms()))
	}
	if len(Fig8Patterns()) != 5 {
		t.Fatalf("%d patterns, want 5", len(Fig8Patterns()))
	}
}
