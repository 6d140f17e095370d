package main

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"
)

// TestGolden holds stdout to the files in testdata: the CSV corec-model
// printed with its own formatter before it printed through
// harness.Fig4Table, for the default flags and for one non-default set.
func TestGolden(t *testing.T) {
	for _, tc := range []struct {
		golden string
		args   []string
	}{
		{"default.golden", nil},
		{"samples5-miss0-0.5.golden", []string{"-samples", "5", "-miss", "0,0.5"}},
	} {
		var stdout, stderr bytes.Buffer
		if err := run(tc.args, &stdout, &stderr); err != nil {
			t.Fatalf("%v: %v", tc.args, err)
		}
		want, err := os.ReadFile(filepath.Join("testdata", tc.golden))
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(stdout.Bytes(), want) {
			t.Errorf("%v: stdout differs from %s:\n%s", tc.args, tc.golden, stdout.String())
		}
		if want := "E_r=0.500 E_e=0.750 C_r=1.200 C_e=4.533 P_r(constraint)=0.2388\n"; stderr.String() != want {
			t.Errorf("%v: stderr = %q, want %q", tc.args, stderr.String(), want)
		}
	}
}
