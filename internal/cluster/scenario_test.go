package cluster

import (
	"context"
	"encoding/json"
	"testing"
	"time"
)

// quickScenarios is the CI-sized scenario matrix: 3 servers over 3
// processes and a few seconds of offered load per cell.
var quickScenarios = []Scenario{
	{
		// S3D-style bursts: larger objects, Poisson arrivals, a step
		// boundary closing mid-run.
		Name: "s3d-burst", Servers: 3, Procs: 3,
		Rate: 60, Duration: 3 * time.Second, Arrival: ArrivalPoisson,
		ObjectBytes: 16 << 10, Slots: 48, GetFraction: 0.1,
		StepEvery: time.Second,
	},
	{
		// Uniform small-object churn: 1 KiB puts/gets.
		Name: "small-churn", Servers: 3, Procs: 3,
		Rate: 150, Duration: 3 * time.Second, Arrival: ArrivalConstant,
		ObjectBytes: 1 << 10, Slots: 128, GetFraction: 0.3,
	},
	{
		// Read-heavy analysis storm over a preloaded set, with the
		// anti-entropy scrubber running underneath.
		Name: "read-storm", Servers: 3, Procs: 3, Scrub: true,
		Rate: 150, Duration: 3 * time.Second, Arrival: ArrivalPoisson,
		ObjectBytes: 4 << 10, Slots: 96, GetFraction: 0.9,
	},
}

// TestQuickScenarioMatrix runs every quick scenario under both fault arms
// against fresh multi-process fleets (open-loop load, the kill-restart arm
// SIGKILLing a process mid-run) and checks the SLO invariants of each row.
// Each row is logged as one JSON line before it is checked, so a failing
// run's log still carries the SLO table.
func TestQuickScenarioMatrix(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns OS process fleets")
	}
	ctx := context.Background()
	for _, sc := range quickScenarios {
		for _, arm := range []FaultArm{FaultNone, FaultKillRestart} {
			r, err := RunScenario(ctx, sc, arm)
			if err != nil {
				t.Fatalf("%s/%s: %v", sc.Name, arm, err)
			}
			row, err := json.Marshal(r)
			if err != nil {
				t.Fatal(err)
			}
			t.Logf("%s", row)
			if r.OfferedOps == 0 || r.CompletedOps == 0 {
				t.Errorf("%s/%s: empty run (offered=%d completed=%d)", r.Scenario, r.Arm, r.OfferedOps, r.CompletedOps)
			}
			if r.OfferedRate <= 0 || r.AchievedRate <= 0 {
				t.Errorf("%s/%s: rates not recorded (offered=%.1f achieved=%.1f)", r.Scenario, r.Arm, r.OfferedRate, r.AchievedRate)
			}
			if r.P50Ms <= 0 || r.P99Ms < r.P50Ms || r.P999Ms < r.P99Ms {
				t.Errorf("%s/%s: latency quantiles not monotone (p50=%.2f p99=%.2f p999=%.2f)", r.Scenario, r.Arm, r.P50Ms, r.P99Ms, r.P999Ms)
			}
			if r.AckedWrites == 0 {
				t.Errorf("%s/%s: no acknowledged writes in the ledger", r.Scenario, r.Arm)
			}
			// The headline invariant: no acknowledged write may ever be
			// lost or corrupted, in either arm.
			if r.LostObjects != 0 || r.CorruptObjects != 0 {
				t.Errorf("%s/%s: %d lost, %d corrupt of %d acked writes", r.Scenario, r.Arm, r.LostObjects, r.CorruptObjects, r.AckedWrites)
			}
			switch arm {
			case FaultKillRestart:
				if len(r.KilledServers) == 0 {
					t.Errorf("%s/%s: fault arm killed no servers", r.Scenario, r.Arm)
				}
			case FaultNone:
				if len(r.KilledServers) != 0 {
					t.Errorf("%s/%s: fault-free arm killed servers %v", r.Scenario, r.Arm, r.KilledServers)
				}
			}
		}
	}
}
