package harness

import (
	"bytes"
	"strings"
	"testing"
	"time"

	"corec"
	"corec/internal/classifier"
	"corec/internal/workload"
)

func TestRunFig2SmallSweep(t *testing.T) {
	if testing.Short() {
		t.Skip("experiment sweep skipped in -short mode")
	}
	rows, err := RunFig2([]int64{16, 24}, 3)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 {
		t.Fatalf("got %d rows", len(rows))
	}
	for _, r := range rows {
		if r.Exec <= 0 || r.ExecCoREC <= 0 || r.ExecCheck <= 0 {
			t.Fatalf("missing timings: %+v", r)
		}
		if r.NumCkpts != paperCheckpoints || r.Restart <= 0 {
			t.Fatalf("want %d checkpoints and a restart: %+v", paperCheckpoints, r)
		}
		// Every checkpoint writes the whole staged set, which a restart
		// reads back once.
		slack := time.Duration(r.NumCkpts) * time.Microsecond
		if d := r.Checkpoint - time.Duration(r.NumCkpts)*r.Restart; d < -slack || d > slack {
			t.Fatalf("%d checkpoints cost %v, restart %v", r.NumCkpts, r.Checkpoint, r.Restart)
		}
		// The core Figure 2 claim is that checkpointed execution carries the
		// checkpoint cost on top of plain execution. The checkpoint cost is
		// modelled and asserted exactly above; the wall-clock totals are
		// medians of three short runs each, so a strict ExecCheck > Exec
		// comparison can still flake on loaded machines, and only an
		// implausibly cheap checkpointed total is rejected.
		if r.ExecCheck*2 < r.Exec {
			t.Fatalf("checkpointed run implausibly cheap: %+v", r)
		}
	}
	// Checkpoint cost must grow with staged size.
	if rows[1].Checkpoint <= rows[0].Checkpoint {
		t.Fatalf("checkpoint cost did not grow with size: %v vs %v",
			rows[0].Checkpoint, rows[1].Checkpoint)
	}
	var buf bytes.Buffer
	Fig2Table(rows).WriteText(&buf)
	if !strings.Contains(buf.String(), "exec_corec_ms") {
		t.Fatal("Fig2 formatter broken")
	}
}

func TestRunS3DQuick(t *testing.T) {
	if testing.Short() {
		t.Skip("experiment sweep skipped in -short mode")
	}
	results, err := RunS3D(true)
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 1 {
		t.Fatalf("quick mode ran %d scales", len(results))
	}
	sr := results[0]
	// The smallest scale has a single coding group, so the two +2f
	// variants are skipped (out of tolerance there).
	if len(sr.Results) != 7 {
		t.Fatalf("got %d mechanisms", len(sr.Results))
	}
	var pfs, plain, corecRes, erasure *Result
	for _, r := range sr.Results {
		switch r.Label {
		case "PFS (no staging)":
			pfs = r
		case "DataSpaces":
			plain = r
		case "CoREC":
			corecRes = r
		case "Erasure":
			erasure = r
		}
		if r.ReadErrors != 0 {
			t.Fatalf("%s: %d read errors", r.Label, r.ReadErrors)
		}
	}
	if pfs == nil || plain == nil || corecRes == nil || erasure == nil {
		t.Fatal("missing mechanisms")
	}
	// Headline S3D shapes, comparing like against like (the PFS baseline
	// is a pure cost model, so it is only compared with the equally lean
	// no-resilience staging run; CPU-inflating environments like -race
	// would otherwise skew real-execution mechanisms against it).
	if !raceEnabled && pfs.MeanWrite <= plain.MeanWrite {
		t.Fatalf("PFS writes (%v) not slower than plain staging (%v)", pfs.MeanWrite, plain.MeanWrite)
	}
	if corecRes.MeanWrite >= erasure.MeanWrite {
		t.Fatalf("CoREC writes (%v) not faster than erasure (%v)", corecRes.MeanWrite, erasure.MeanWrite)
	}
	var buf bytes.Buffer
	TableII(results).WriteText(&buf)
	Fig11Table(results).WriteText(&buf)
	Fig12Table(results).WriteText(&buf)
	out := buf.String()
	for _, want := range []string{"Table II", "Figure 11", "Figure 12", "PFS (no staging)"} {
		if !strings.Contains(out, want) {
			t.Fatalf("S3D formatters missing %q", want)
		}
	}
}

func TestAblationKnobs(t *testing.T) {
	// HelperLoadDelta and classifier overrides must flow through to the
	// cluster (smoke: the run works with delegation disabled and a custom
	// classifier window).
	opts := smallOptions(corec.PolicyCoREC, workload.Case1WriteAll)
	opts.Config.HelperLoadDelta = -1
	opts.Config.Classifier = classifier.Config{HotThreshold: 1, Window: 3, HistoryDepth: 3, Domain: opts.Config.Domain}
	res, err := Run(opts)
	if err != nil {
		t.Fatal(err)
	}
	if res.ReadErrors != 0 {
		t.Fatal("read errors with delegation disabled")
	}
}

func TestModelValidationStudy(t *testing.T) {
	if testing.Short() {
		t.Skip("experiment sweep skipped in -short mode")
	}
	v, err := RunModelValidation(5)
	if err != nil {
		t.Fatal(err)
	}
	// Case 3's ground truth: a quarter of the blocks are hot.
	if v.GroundTruthHot < 0.2 || v.GroundTruthHot > 0.3 {
		t.Fatalf("ground-truth hot fraction = %v, want ~0.25", v.GroundTruthHot)
	}
	// The classifier must identify cold data near-perfectly in this
	// pattern (it is written exactly once).
	if v.ColdEncoded < 0.9 {
		t.Fatalf("cold specificity = %v, want >= 0.9", v.ColdEncoded)
	}
	// A solid majority of the hot set stays replicated (capped near
	// P_r/hot ~= 0.96 here; allow generous slack for churn).
	if v.EmpiricalHotReplicated < 0.4 {
		t.Fatalf("hot objects replicated = %v, want >= 0.4", v.EmpiricalHotReplicated)
	}
	// The lookahead predictor must be firing and mostly right.
	if v.LookaheadPredictions == 0 || v.LookaheadHits*2 < v.LookaheadPredictions {
		t.Fatalf("lookahead %d/%d", v.LookaheadHits, v.LookaheadPredictions)
	}
	// Orderings: the model is deterministic and must sandwich CoREC
	// strictly; the measured ratios are medians of five noisy runs, and
	// CoREC vs replication (which differ by only tens of percent) gets slack
	// while erasure (several times slower) must stay clearly above CoREC.
	if v.ModelCoRECOverReplica <= 1 || v.ModelErasureOverCoREC <= 1 {
		t.Fatalf("model ordering broken: corec/repl %v, erasure/corec %v",
			v.ModelCoRECOverReplica, v.ModelErasureOverCoREC)
	}
	if v.MeasuredCoRECOverReplica < 0.7 {
		t.Fatalf("measured CoREC writes far below replication: %v", v.MeasuredCoRECOverReplica)
	}
	if v.MeasuredErasureOverCoREC <= 1.2 {
		t.Fatalf("measured erasure not clearly above CoREC: %v", v.MeasuredErasureOverCoREC)
	}
	var buf bytes.Buffer
	WriteModelValidation(&buf, v)
	if !strings.Contains(buf.String(), "Model validation") {
		t.Fatal("formatter broken")
	}
}

func TestReadPenaltyStudy(t *testing.T) {
	if testing.Short() {
		t.Skip("experiment sweep skipped in -short mode")
	}
	p, err := RunReadPenalty(2)
	if err != nil {
		t.Fatal(err)
	}
	if p.Baseline <= 0 {
		t.Fatal("no baseline read time")
	}
	if len(p.Rows) != 4 {
		t.Fatalf("got %d scenarios", len(p.Rows))
	}
	for _, r := range p.Rows {
		if r.ReadErrors != 0 {
			t.Fatalf("%s: %d read errors", r.Label, r.ReadErrors)
		}
		if r.MeanRead <= 0 {
			t.Fatalf("%s: no read time", r.Label)
		}
	}
	var buf bytes.Buffer
	ReadPenaltyTable(p).WriteText(&buf)
	if !strings.Contains(buf.String(), "penalty") {
		t.Fatal("formatter broken")
	}
}
