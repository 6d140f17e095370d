package harness

import (
	"fmt"
	"time"

	"corec"
	"corec/internal/geometry"
	"corec/internal/model"
	"corec/internal/simnet"
	"corec/internal/workload"
)

// Experiment defaults shared by the synthetic figures: the Table I setup
// scaled to one machine. The domain is 64^3 float64 (2 MiB per full write,
// 40 MiB over 20 steps), 8 staging servers, RS(3+1), S = 67%.
func tableIOptions() Options {
	return Options{
		Servers:   8,
		Writers:   8,
		Readers:   4,
		Domain:    geometry.Box3D(0, 0, 0, 64, 64, 64),
		BlockSize: []int64{16, 16, 16},
		TimeSteps: 20,
		ElemSize:  8,
		Link:      simnet.Titan(1),
		MTBF:      4 * time.Second,
		Seed:      42,
	}
}

// TableIDescription prints the experimental setup, mirroring Table I.
func TableIDescription() string {
	o := tableIOptions()
	dataBytes := o.Domain.Volume() * int64(o.ElemSize)
	return fmt.Sprintf(`Table I: experimental setup for synthetic tests (scaled)
  writers / staging / readers : %d / %d / %d
  volume size                 : %dx%dx%d float64
  in-staging data size (20TS) : %.1f MiB per full-domain write
  replicas                    : 1
  RS data/parity objects      : 3 / 1
  storage efficiency bound S  : 67%%
`, o.Writers, o.Servers, o.Readers,
		o.Domain.Size(0), o.Domain.Size(1), o.Domain.Size(2),
		float64(dataBytes)/(1<<20))
}

// Mechanism is one bar of Figure 8.
type Mechanism struct {
	Label    string
	Mode     corec.Mode
	Failures int
	Scenario FailureScenario
}

// Fig8Mechanisms returns the mechanism list of Figure 8's legend.
func Fig8Mechanisms() []Mechanism {
	return []Mechanism{
		{Label: "DataSpaces", Mode: corec.PolicyNone},
		{Label: "Replicate", Mode: corec.PolicyReplicate},
		{Label: "Erasure", Mode: corec.PolicyErasure},
		{Label: "Hybrid", Mode: corec.PolicyHybrid},
		{Label: "CoREC", Mode: corec.PolicyCoREC},
		{Label: "CoREC+1d", Mode: corec.PolicyCoREC, Failures: 1, Scenario: Degraded},
		{Label: "CoREC+2d", Mode: corec.PolicyCoREC, Failures: 2, Scenario: Degraded},
		{Label: "CoREC+1f", Mode: corec.PolicyCoREC, Failures: 1, Scenario: LazyRecovery},
		{Label: "CoREC+2f", Mode: corec.PolicyCoREC, Failures: 2, Scenario: LazyRecovery},
		{Label: "Erasure+1f", Mode: corec.PolicyErasure, Failures: 1, Scenario: AggressiveRecovery},
		{Label: "Erasure+2f", Mode: corec.PolicyErasure, Failures: 2, Scenario: AggressiveRecovery},
	}
}

// Fig8Patterns returns the five synthetic cases.
func Fig8Patterns() []workload.Pattern {
	return []workload.Pattern{
		workload.Case1WriteAll,
		workload.Case2RoundRobin,
		workload.Case3Hotspot,
		workload.Case4Random,
		workload.Case5ReadAll,
	}
}

// CaseResult groups one case's mechanism results.
type CaseResult struct {
	Pattern workload.Pattern
	Results []*Result
}

// RunFig8 executes the Figure 8 sweep: every mechanism on every case.
// quick=true trims to the failure-free mechanisms for fast smoke runs.
func RunFig8(quick bool) ([]CaseResult, error) {
	mechanisms := Fig8Mechanisms()
	if quick {
		mechanisms = mechanisms[:5]
	}
	var out []CaseResult
	for _, p := range Fig8Patterns() {
		cr := CaseResult{Pattern: p}
		for _, m := range mechanisms {
			opts := tableIOptions()
			opts.Label = m.Label
			opts.Mode = m.Mode
			opts.Pattern = p
			opts.Failures = m.Failures
			opts.Scenario = m.Scenario
			res, err := Run(opts)
			if err != nil {
				return nil, fmt.Errorf("fig8 %v/%s: %w", p, m.Label, err)
			}
			cr.Results = append(cr.Results, res)
		}
		out = append(out, cr)
	}
	return out, nil
}

// RunFig2 executes the checkpointing-overhead comparison across staged
// data sizes: failure-free execution (Exec), CoREC (Exec-CoREC), and
// checkpointed staging (Exec-check) with per-size checkpoint/restart cost.
type Fig2Row struct {
	StagedMiB  float64
	Exec       time.Duration
	ExecCoREC  time.Duration
	ExecCheck  time.Duration
	Checkpoint time.Duration
	Restart    time.Duration
	NumCkpts   int
}

// RunFig2 sweeps the staged data size (cubic domains of the given edge
// sizes) and measures the three execution modes. The workflow is the
// paper's checkpointing scenario: data staged once, then read by the
// analysis every step while the staging servers are periodically
// checkpointed to the PFS.
func RunFig2(edges []int64) ([]Fig2Row, error) {
	if len(edges) == 0 {
		edges = []int64{48, 64, 96, 128}
	}
	var rows []Fig2Row
	for _, e := range edges {
		base := tableIOptions()
		base.Pattern = workload.Case5ReadAll
		base.Domain = geometry.Box3D(0, 0, 0, e, e, e)
		base.BlockSize = []int64{e / 4, e / 4, e / 4}
		base.TimeSteps = 20

		plain := base
		plain.Label = "Exec"
		plain.Mode = corec.PolicyNone
		rPlain, err := Run(plain)
		if err != nil {
			return nil, err
		}

		withCoREC := base
		withCoREC.Label = "Exec-CoREC"
		withCoREC.Mode = corec.PolicyCoREC
		rCoREC, err := Run(withCoREC)
		if err != nil {
			return nil, err
		}

		checked := base
		checked.Label = "Exec-check"
		checked.Mode = corec.PolicyNone
		// The paper checkpoints every 4 s, yielding 12-13 checkpoints per
		// run; scale the period to this run's measured duration.
		checked.CheckpointPeriod = rPlain.Elapsed / 13
		if checked.CheckpointPeriod <= 0 {
			checked.CheckpointPeriod = time.Nanosecond
		}
		checked.MaxCheckpoints = 13
		checked.PFS = simnet.PFSModel{OpenLatency: 2 * time.Millisecond, BytesPerSecond: 256 << 20}
		rCheck, err := Run(checked)
		if err != nil {
			return nil, err
		}

		rows = append(rows, Fig2Row{
			StagedMiB:  float64(base.Domain.Volume()*8) / (1 << 20),
			Exec:       rPlain.Elapsed,
			ExecCoREC:  rCoREC.Elapsed,
			ExecCheck:  rCheck.Elapsed,
			Checkpoint: rCheck.CheckpointTime,
			Restart:    rCheck.RestartTime,
			NumCkpts:   rCheck.Checkpoints,
		})
	}
	return rows, nil
}

// RunFig4 samples the analytic model curves.
func RunFig4() ([]model.Point, error) {
	return model.Fig4Curves(model.Default(), []float64{0, 0.2, 0.4}, 21)
}

// Fig10Run is one curve of Figure 10: per-time-step read response times
// under a failure/recovery schedule.
type Fig10Run struct {
	Label  string
	Result *Result
}

// RunFig10 executes the lazy-recovery timeline study: Case 5 reads over 20
// steps with failures at steps 4/6 and recoveries starting at steps 8/12,
// for CoREC (lazy) and erasure coding (aggressive), 1 and 2 failures.
func RunFig10() ([]Fig10Run, error) {
	mk := func(label string, mode corec.Mode, failures int, scen FailureScenario) (Fig10Run, error) {
		opts := tableIOptions()
		opts.Label = label
		opts.Mode = mode
		opts.Pattern = workload.Case5ReadAll
		opts.Failures = failures
		opts.Scenario = scen
		// A long MTBF stretches lazy recovery across time steps so the
		// gradual-repair shape is visible in the series.
		opts.MTBF = 8 * time.Second
		res, err := Run(opts)
		return Fig10Run{Label: label, Result: res}, err
	}
	var out []Fig10Run
	for _, spec := range []struct {
		label    string
		mode     corec.Mode
		failures int
		scen     FailureScenario
	}{
		{"CoREC-lazy+1f", corec.PolicyCoREC, 1, LazyRecovery},
		{"CoREC-lazy+2f", corec.PolicyCoREC, 2, LazyRecovery},
		{"Erasure-aggr+1f", corec.PolicyErasure, 1, AggressiveRecovery},
		{"Erasure-aggr+2f", corec.PolicyErasure, 2, AggressiveRecovery},
	} {
		run, err := mk(spec.label, spec.mode, spec.failures, spec.scen)
		if err != nil {
			return nil, err
		}
		out = append(out, run)
	}
	return out, nil
}

// S3DResult groups one Table II scale's mechanism results.
type S3DResult struct {
	Scale   workload.S3DScale
	Results []*Result
}

// RunS3D executes the Figure 11/12 S3D workflow sweep across the Table II
// scales. quick=true runs only the smallest scale.
func RunS3D(quick bool) ([]S3DResult, error) {
	scales := workload.TableIIScales(16)
	if quick {
		scales = scales[:1]
	}
	mechanisms := []Mechanism{
		{Label: "PFS (no staging)"},
		{Label: "DataSpaces", Mode: corec.PolicyNone},
		{Label: "Replicate", Mode: corec.PolicyReplicate},
		{Label: "Erasure", Mode: corec.PolicyErasure},
		{Label: "CoREC", Mode: corec.PolicyCoREC},
		{Label: "CoREC+1f", Mode: corec.PolicyCoREC, Failures: 1, Scenario: Degraded},
		{Label: "CoREC+2f", Mode: corec.PolicyCoREC, Failures: 2, Scenario: Degraded},
		{Label: "Erasure+1f", Mode: corec.PolicyErasure, Failures: 1, Scenario: Degraded},
		{Label: "Erasure+2f", Mode: corec.PolicyErasure, Failures: 2, Scenario: Degraded},
	}
	var out []S3DResult
	for _, sc := range scales {
		sr := S3DResult{Scale: sc}
		// Two concurrent failures are only within tolerance when they can
		// land in distinct coding groups (the paper's Titan runs had
		// hundreds of staging cores; our smallest scale has a single
		// coding group and must skip the +2f variants).
		codingGroups := sc.Staging / 4 // RS(3+1)
		for _, m := range mechanisms {
			if m.Failures >= 2 && codingGroups < 2 {
				continue
			}
			opts := tableIOptions()
			opts.Label = m.Label
			opts.Pattern = workload.S3D
			opts.Domain = sc.Domain
			opts.BlockSize = sc.BlockSize
			opts.Servers = sc.Staging
			opts.Writers = min(sc.Writers, 32)
			opts.Readers = min(sc.Readers, 8)
			opts.TimeSteps = 10
			opts.Mode = m.Mode
			opts.Failures = m.Failures
			opts.Scenario = m.Scenario
			var res *Result
			var err error
			if m.Label == "PFS (no staging)" {
				opts.PFS = simnet.PFSModel{OpenLatency: 2 * time.Millisecond, BytesPerSecond: 256 << 20}
				res, err = RunPFSBaseline(opts)
			} else {
				res, err = Run(opts)
			}
			if err != nil {
				return nil, fmt.Errorf("s3d %s/%s: %w", sc.Name, m.Label, err)
			}
			sr.Results = append(sr.Results, res)
		}
		out = append(out, sr)
	}
	return out, nil
}
