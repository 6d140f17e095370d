package harness

import (
	"encoding/csv"
	"fmt"
	"io"
	"strconv"
	"strings"
	"text/tabwriter"
	"time"

	"corec/internal/model"
	"corec/internal/workload"
)

// Table is one table or figure of the evaluation, built once from a run's
// results. Header holds the CSV's column names, and every cell is formatted
// when the table is built, so the text and CSV printers show the same rows
// with the same digits. An empty cell is a value the run did not produce:
// CSV leaves it empty and text shows "-".
type Table struct {
	Title  string
	Header []string
	Rows   [][]string
}

// WriteText prints the title, then the header and rows aligned in columns.
func (t *Table) WriteText(w io.Writer) {
	if t.Title != "" {
		fmt.Fprintln(w, t.Title)
	}
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, strings.Join(t.Header, "\t"))
	for _, row := range t.Rows {
		for i, cell := range row {
			if i > 0 {
				fmt.Fprint(tw, "\t")
			}
			if cell == "" {
				cell = "-"
			}
			fmt.Fprint(tw, cell)
		}
		fmt.Fprintln(tw)
	}
	tw.Flush()
}

// WriteCSV writes the header row, then the rows.
func (t *Table) WriteCSV(w io.Writer) error {
	return csv.NewWriter(w).WriteAll(append([][]string{t.Header}, t.Rows...))
}

func ms(d time.Duration) string {
	return num(float64(d)/float64(time.Millisecond), 4)
}

func num(v float64, prec int) string {
	return strconv.FormatFloat(v, 'f', prec, 64)
}

// Fig2Table is the checkpoint-overhead sweep (Figure 2).
func Fig2Table(rows []Fig2Row) *Table {
	t := &Table{
		Title:  "Figure 2: impact of checkpointing on staging-based workflows",
		Header: []string{"staged_mib", "exec_ms", "exec_corec_ms", "exec_check_ms", "checkpoint_ms", "restart_ms", "checkpoints", "check_overhead_pct"},
	}
	for _, r := range rows {
		overhead := 0.0
		if r.Exec > 0 {
			overhead = float64(r.ExecCheck-r.Exec) / float64(r.Exec) * 100
		}
		t.Rows = append(t.Rows, []string{
			num(r.StagedMiB, 2), ms(r.Exec), ms(r.ExecCoREC), ms(r.ExecCheck),
			ms(r.Checkpoint), ms(r.Restart), strconv.Itoa(r.NumCkpts), num(overhead, 1),
		})
	}
	return t
}

// Fig4Table is the analytic-model curves (Figure 4): relative write cost
// versus hot-data fraction, one CoREC column per classifier miss ratio.
func Fig4Table(pts []model.Point, missRatios []float64) *Table {
	t := &Table{
		Title:  "Figure 4: analytic relative write cost vs hot-data fraction (RS(4,3))",
		Header: []string{"p_h", "replica", "erasure", "hybrid"},
	}
	for _, rm := range missRatios {
		t.Header = append(t.Header, fmt.Sprintf("corec_rm%.2g", rm))
	}
	for _, p := range pts {
		row := []string{num(p.Ph, 4), num(p.Replica, 6), num(p.Erasure, 6), num(p.Hybrid, 6)}
		for _, v := range p.CoREC {
			row = append(row, num(v, 6))
		}
		t.Rows = append(t.Rows, row)
	}
	return t
}

// Fig8Table is the per-case mechanism comparison (Figure 8): average
// write/read response time and write efficiency.
func Fig8Table(cases []CaseResult) *Table {
	t := &Table{
		Title:  "Figure 8: response time and efficiency per case and mechanism",
		Header: []string{"case", "mechanism", "write_ms", "read_ms", "storage_eff", "write_eff", "read_errors"},
	}
	for _, cr := range cases {
		for _, r := range cr.Results {
			t.Rows = append(t.Rows, []string{
				cr.Pattern.String(), r.Label, ms(r.MeanWrite), ms(r.MeanRead),
				num(r.Storage.Efficiency, 4), num(r.WriteEfficiency, 4), strconv.Itoa(r.ReadErrors),
			})
		}
	}
	return t
}

// Fig9Table is the execution-time breakdown (Figure 9) of the write cases
// 1-4: transport / metadata / encode / decode / classify.
func Fig9Table(cases []CaseResult) *Table {
	t := &Table{
		Title:  "Figure 9: phase time summed across servers, cases 1-4",
		Header: []string{"case", "mechanism", "transport_ms", "metadata_ms", "encode_ms", "decode_ms", "classify_ms"},
	}
	for _, cr := range cases {
		if cr.Pattern == workload.Case5ReadAll {
			continue
		}
		for _, r := range cr.Results {
			row := []string{cr.Pattern.String(), r.Label}
			for _, d := range r.Snapshot.PhaseTotal {
				row = append(row, ms(d))
			}
			t.Rows = append(t.Rows, row)
		}
	}
	return t
}

// Fig10Table is the per-time-step read response series (Figure 10), one
// column per run.
func Fig10Table(runs []Fig10Run) *Table {
	t := &Table{
		Title:  "Figure 10: per-time-step read response (ms); failures at TS 4/6, recoveries from TS 8/12",
		Header: []string{"ts"},
	}
	maxTS := 0
	for _, r := range runs {
		t.Header = append(t.Header, r.Label)
		for _, s := range r.Result.Snapshot.Steps {
			maxTS = max(maxTS, int(s.TimeStep))
		}
	}
	for ts := 1; ts <= maxTS; ts++ {
		row := []string{strconv.Itoa(ts)}
		for _, r := range runs {
			val := ""
			for _, s := range r.Result.Snapshot.Steps {
				if int(s.TimeStep) == ts && s.ReadCount > 0 {
					val = ms(s.MeanRead)
				}
			}
			row = append(row, val)
		}
		t.Rows = append(t.Rows, row)
	}
	return t
}

// TableII is the scaled Table II configuration of the S3D runs.
func TableII(results []S3DResult) *Table {
	t := &Table{
		Title:  "Table II (scaled): S3D workflow configurations",
		Header: []string{"scale", "writers", "staging", "readers", "domain", "data_mib"},
	}
	for _, sr := range results {
		sc := sr.Scale
		t.Rows = append(t.Rows, []string{
			sc.Name, strconv.Itoa(sc.Writers), strconv.Itoa(sc.Staging), strconv.Itoa(sc.Readers),
			fmt.Sprintf("%dx%dx%d", sc.Domain.Size(0), sc.Domain.Size(1), sc.Domain.Size(2)),
			num(float64(sc.Domain.Volume()*8)/(1<<20), 1),
		})
	}
	return t
}

// Fig11Table is the cumulative read response comparison (Figure 11).
func Fig11Table(results []S3DResult) *Table {
	return s3dTable("Figure 11: cumulative read response time (s) per reader rank, S3D workflow", results, true)
}

// Fig12Table is the cumulative write response comparison (Figure 12).
func Fig12Table(results []S3DResult) *Table {
	return s3dTable("Figure 12: cumulative write response time (s) per writer rank, S3D workflow", results, false)
}

// s3dTable is one row per mechanism and one column per scale. Mechanism
// lists can differ per scale (the +2f variants are skipped where only one
// coding group exists), so rows are keyed by label and a mechanism a scale
// did not run is an empty cell.
func s3dTable(title string, results []S3DResult, read bool) *Table {
	t := &Table{Title: title, Header: []string{"mechanism"}}
	var labels []string
	seen := make(map[string]bool)
	for _, sr := range results {
		t.Header = append(t.Header, sr.Scale.Name)
		for _, r := range sr.Results {
			if !seen[r.Label] {
				seen[r.Label] = true
				labels = append(labels, r.Label)
			}
		}
	}
	for _, label := range labels {
		row := []string{label}
		for _, sr := range results {
			cell := ""
			for _, r := range sr.Results {
				if r.Label != label {
					continue
				}
				total := r.Snapshot.WriteTotal
				if read {
					total = r.Snapshot.ReadTotal
				}
				cell = num((total / time.Duration(countRanks(r, read))).Seconds(), 6)
			}
			row = append(row, cell)
		}
		t.Rows = append(t.Rows, row)
	}
	return t
}

// countRanks estimates the number of parallel ranks as the most reads (or
// writes) any one step saw, so cumulative time is per rank rather than
// summed across all ranks. It is at least 1.
func countRanks(r *Result, read bool) int64 {
	ranks := int64(1)
	for _, s := range r.Snapshot.Steps {
		c := s.WriteCount
		if read {
			c = s.ReadCount
		}
		ranks = max(ranks, c)
	}
	return ranks
}
