package harness

import (
	"bytes"
	"encoding/csv"
	"strings"
	"testing"
	"time"

	"corec"
	"corec/internal/workload"
)

func parseCSV(t *testing.T, buf *bytes.Buffer) [][]string {
	t.Helper()
	rows, err := csv.NewReader(buf).ReadAll()
	if err != nil {
		t.Fatalf("invalid CSV: %v\n%s", err, buf.String())
	}
	return rows
}

func TestCSVFig2(t *testing.T) {
	rows := []Fig2Row{{StagedMiB: 2, Exec: time.Millisecond, ExecCoREC: 2 * time.Millisecond,
		ExecCheck: 3 * time.Millisecond, Checkpoint: time.Millisecond, Restart: time.Millisecond, NumCkpts: 13}}
	var buf bytes.Buffer
	if err := Fig2Table(rows).WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	got := parseCSV(t, &buf)
	if len(got) != 2 || got[0][0] != "staged_mib" || got[1][6] != "13" {
		t.Fatalf("CSV = %v", got)
	}
}

func TestCSVFig4(t *testing.T) {
	pts, err := RunFig4()
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := Fig4Table(pts, []float64{0, 0.2, 0.4}).WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	got := parseCSV(t, &buf)
	if len(got) != 22 || len(got[0]) != 7 {
		t.Fatalf("CSV shape = %dx%d", len(got), len(got[0]))
	}
	if !strings.HasPrefix(got[0][4], "corec_rm") {
		t.Fatalf("header = %v", got[0])
	}
}

func TestCSVFig8AndFig10(t *testing.T) {
	res, err := Run(smallOptions(corec.PolicyCoREC, workload.Case5ReadAll))
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := Fig8Table([]CaseResult{{Pattern: workload.Case5ReadAll, Results: []*Result{res}}}).WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	if got := parseCSV(t, &buf); len(got) != 2 || got[1][1] == "" {
		t.Fatalf("fig8 CSV = %v", got)
	}
	buf.Reset()
	if err := Fig10Table([]Fig10Run{{Label: "x", Result: res}}).WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	if got := parseCSV(t, &buf); len(got) < 2 {
		t.Fatalf("fig10 CSV = %v", got)
	}
}

func TestCSVS3D(t *testing.T) {
	res, err := Run(smallOptions(corec.PolicyCoREC, workload.S3D))
	if err != nil {
		t.Fatal(err)
	}
	sr := []S3DResult{{Scale: workload.TableIIScales(16)[0], Results: []*Result{res}}}
	var buf bytes.Buffer
	if err := Fig11Table(sr).WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	got := parseCSV(t, &buf)
	if len(got) != 2 || got[1][1] == "" {
		t.Fatalf("s3d CSV = %v", got)
	}
}
