package harness

import (
	"fmt"
	"strconv"
	"time"

	"corec"
	"corec/internal/workload"
)

// ReadPenalty quantifies the paper's Case-5 failure-mode percentages: the
// increase in read response time relative to the failure-free run for
// degraded operation and lazy recovery with one and two server failures
// (the paper reports +4.11%/+23.4% degraded and +2.41%/+8.43% lazy).
type ReadPenalty struct {
	Baseline time.Duration
	Rows     []ReadPenaltyRow
}

// ReadPenaltyRow is one scenario's outcome.
type ReadPenaltyRow struct {
	Label      string
	MeanRead   time.Duration
	PenaltyPct float64
	ReadErrors int
}

// RunReadPenalty executes the study on the Case-5 workload. Each scenario
// runs `trials` times and only the steps inside the failure window (TS 4
// onward, where the schedule injects failures) are compared against the
// same steps of the failure-free runs, which keeps warm-up noise out of
// the percentages.
func RunReadPenalty(trials int) (*ReadPenalty, error) {
	if trials < 1 {
		trials = 3
	}
	base := tableIOptions()
	base.Pattern = workload.Case5ReadAll
	base.Config.Mode = corec.PolicyCoREC
	base.Label = "failure-free"

	windowMean := func(res *Result) time.Duration {
		var sum time.Duration
		var n int64
		for _, s := range res.Snapshot.Steps {
			if s.TimeStep >= 4 && s.ReadCount > 0 {
				sum += s.MeanRead * time.Duration(s.ReadCount)
				n += s.ReadCount
			}
		}
		if n == 0 {
			return 0
		}
		return sum / time.Duration(n)
	}
	runMean := func(opts Options) (time.Duration, int, error) {
		var total time.Duration
		errs := 0
		for i := 0; i < trials; i++ {
			opts.Config.Seed = base.Config.Seed + int64(i)*101
			res, err := Run(opts)
			if err != nil {
				return 0, 0, err
			}
			total += windowMean(res)
			errs += res.ReadErrors
		}
		return total / time.Duration(trials), errs, nil
	}

	baseline, _, err := runMean(base)
	if err != nil {
		return nil, err
	}
	out := &ReadPenalty{Baseline: baseline}
	scenarios := []struct {
		label    string
		failures int
		scen     FailureScenario
	}{
		{"degraded +1", 1, Degraded},
		{"degraded +2", 2, Degraded},
		{"lazy +1", 1, LazyRecovery},
		{"lazy +2", 2, LazyRecovery},
	}
	for _, sc := range scenarios {
		opts := base
		opts.Label = sc.label
		opts.Failures = sc.failures
		opts.Scenario = sc.scen
		mean, errs, err := runMean(opts)
		if err != nil {
			return nil, fmt.Errorf("read-penalty %s: %w", sc.label, err)
		}
		row := ReadPenaltyRow{Label: sc.label, MeanRead: mean, ReadErrors: errs}
		if baseline > 0 {
			row.PenaltyPct = (float64(mean)/float64(baseline) - 1) * 100
		}
		out.Rows = append(out.Rows, row)
	}
	return out, nil
}

// ReadPenaltyTable is the study's table, the failure-free baseline first.
func ReadPenaltyTable(p *ReadPenalty) *Table {
	t := &Table{
		Title:  "Case-5 read penalties vs failure-free CoREC (paper: degraded +4.1%/+23.4%, lazy +2.4%/+8.4%)",
		Header: []string{"scenario", "read_ms", "penalty_pct", "read_errors"},
		Rows:   [][]string{{"failure-free", ms(p.Baseline), "", "0"}},
	}
	for _, r := range p.Rows {
		t.Rows = append(t.Rows, []string{r.Label, ms(r.MeanRead), fmt.Sprintf("%+.1f", r.PenaltyPct), strconv.Itoa(r.ReadErrors)})
	}
	return t
}
