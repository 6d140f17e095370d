package harness

import (
	"encoding/json"
	"strings"
	"testing"
)

func TestRunErasureBenchQuickShape(t *testing.T) {
	if testing.Short() {
		t.Skip("benchmark harness skipped in -short mode")
	}
	rep, err := RunErasureBench(true)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Quick {
		t.Fatal("quick flag not recorded")
	}
	// Two geometries x two worker settings.
	if len(rep.Encode) != 4 {
		t.Fatalf("encode rows = %d, want 4", len(rep.Encode))
	}
	seenBaseline := 0
	for _, r := range rep.Encode {
		if r.NsPerByte <= 0 || r.SpeedupVsWorkers1 <= 0 || r.StripeBytes <= 0 {
			t.Fatalf("degenerate encode row: %+v", r)
		}
		if r.Workers == 1 {
			seenBaseline++
			if r.SpeedupVsWorkers1 != 1 {
				t.Fatalf("baseline row speedup = %v", r.SpeedupVsWorkers1)
			}
			// The baseline is pinned to the seed's scalar kernel so the
			// regression series stays comparable across kernel upgrades.
			if r.Kernel != "table" {
				t.Fatalf("baseline row kernel = %q, want table", r.Kernel)
			}
		} else if r.Kernel == "" {
			t.Fatalf("engine row missing kernel: %+v", r)
		}
	}
	if seenBaseline != 2 {
		t.Fatalf("baseline rows = %d, want 2", seenBaseline)
	}
	// Two geometries x two shard sizes.
	if len(rep.Reconstruct) != 4 {
		t.Fatalf("reconstruct rows = %d, want 4", len(rep.Reconstruct))
	}
	for _, r := range rep.Reconstruct {
		if r.ColdNsPerOp <= 0 || r.CachedNsPerOp <= 0 || r.CachedSpeedup <= 0 || r.Erased <= 0 {
			t.Fatalf("degenerate reconstruct row: %+v", r)
		}
	}
	if len(rep.Digest) != 3 {
		t.Fatalf("digest rows = %d, want 3", len(rep.Digest))
	}
	for _, r := range rep.Digest {
		if r.PayloadBytes <= 0 || r.MBps <= 0 {
			t.Fatalf("degenerate digest row: %+v", r)
		}
	}
	// The JSON artifact must round-trip with its regression-tracked keys.
	data, err := json.Marshal(rep)
	if err != nil {
		t.Fatal(err)
	}
	for _, key := range []string{"ns_per_byte", "speedup_vs_workers1", "cached_speedup", "gomaxprocs", "kernel", "payload_bytes"} {
		if !strings.Contains(string(data), key) {
			t.Fatalf("JSON report missing key %q", key)
		}
	}
	var sb strings.Builder
	WriteErasureBench(&sb, rep)
	if !strings.Contains(sb.String(), "8+3") || !strings.Contains(sb.String(), "cached speedup") {
		t.Fatalf("human report incomplete:\n%s", sb.String())
	}
}
