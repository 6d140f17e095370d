package harness

import (
	"os"
	"testing"
)

// TestTieringBenchQuick runs the quick tiering experiment end to end: the
// 10x-RAM working set must complete with every read served, the tiered
// arms must actually exercise the lower tiers, and the prefetcher must
// carry the sequential scan — all but a handful of reads found staged
// (the detector needs the first reads of the scan to arm), which puts the
// tiered arm's median far under the no-prefetch arm's cold-read median.
// The p99 ratio against the mem arm is reported, not gated (see
// tieringbench.go).
func TestTieringBenchQuick(t *testing.T) {
	if testing.Short() {
		t.Skip("tiering bench does real disk I/O")
	}
	rep, err := RunTieringBench(true)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Rows) != 3 {
		t.Fatalf("rows = %d, want 3", len(rep.Rows))
	}
	byArm := map[string]TieringBenchRow{}
	for _, r := range rep.Rows {
		byArm[r.Arm] = r
		wantReads := rep.Epochs * rep.KeysPerEpoch
		if r.Reads != wantReads {
			t.Fatalf("%s read %d objects, want %d", r.Arm, r.Reads, wantReads)
		}
	}
	mem, tiered, np := byArm["mem"], byArm["tiered"], byArm["tiered-np"]
	if mem.Spills != 0 || mem.ColdReads != 0 {
		t.Fatalf("mem arm touched lower tiers: %+v", mem)
	}
	if tiered.Spills == 0 || tiered.ColdReads+tiered.PrefetchHits == 0 {
		t.Fatalf("tiered arm never left L1: %+v", tiered)
	}
	if np.PrefetchIssued != 0 {
		t.Fatalf("no-prefetch arm issued prefetches: %+v", np)
	}
	if tiered.PrefetchIssued == 0 {
		t.Fatalf("tiered arm never prefetched: %+v", tiered)
	}
	if tiered.ColdReads > 8 || tiered.PrefetchHitRate < 0.9 {
		t.Fatalf("prefetcher lost the sequential scan: %d cold reads, hit rate %.2f (want <= 8, >= 0.9): %+v",
			tiered.ColdReads, tiered.PrefetchHitRate, tiered)
	}
	if tiered.P50Micros > np.P50Micros/10 {
		t.Fatalf("tiered p50 %.1fus not 10x under tiered-np p50 %.1fus", tiered.P50Micros, np.P50Micros)
	}
	WriteTieringBench(os.Stderr, rep)
}
