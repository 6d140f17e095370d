package cluster

import (
	"context"
	"fmt"
	"math/rand"
	"time"

	"corec"
	"corec/internal/metrics"
)

// Scenario is one mixed workload profile the harness can offer to a
// fleet. Profiles model the staging patterns the paper's evaluation is
// built around: S3D-style time-step bursts of analysis variables, uniform
// small-object churn, read-heavy analysis storms, and foreground load with
// the anti-entropy scrubber running underneath.
type Scenario struct {
	// Name labels report rows ("s3d-burst", "small-churn", ...).
	Name string
	// Servers/Procs shape the fleet for this profile (0 = harness pick).
	Servers, Procs int
	// Scrub runs the background scrubber in every process during the run.
	Scrub bool
	// Rate is the offered load (ops/s); Duration the offered window.
	Rate     float64
	Duration time.Duration
	// Arrival selects the inter-arrival process.
	Arrival Arrival
	// ObjectBytes is the payload size of each staged object.
	ObjectBytes int
	// Slots is the keyspace width (distinct object regions).
	Slots int
	// GetFraction is the probability an op is a read (reads address
	// already-preloaded slots, so they always have a target).
	GetFraction float64
	// StepEvery closes a time step (EndTimeStepAll) this often during the
	// run; 0 disables mid-run step boundaries.
	StepEvery time.Duration
}

// opSeed pins an op's payload to its identity (variable, slot, version),
// NOT to its position in the schedule: concurrent rewrites of one slot
// then write identical bytes, so last-write-wins races cannot make the
// ledger disagree with the service.
func opSeed(name string, slot int64, v corec.Version) int64 {
	h := int64(1469598103934665603)
	for _, c := range name {
		h = (h ^ int64(c)) * 1099511628211
	}
	return h ^ slot<<20 ^ int64(v)
}

// NextOp builds the scenario's i-th operation (the LoadConfig hook).
func (sc *Scenario) NextOp(i int64, rng *rand.Rand) Op {
	slot := rng.Int63n(int64(sc.Slots))
	kind := OpPut
	if rng.Float64() < sc.GetFraction {
		kind = OpGet
	}
	return Op{
		Kind:    kind,
		Var:     sc.Name,
		Offset:  slot * int64(sc.ObjectBytes),
		Len:     sc.ObjectBytes,
		Version: 1,
		Seed:    opSeed(sc.Name, slot, 1),
	}
}

// Preload stages every slot once (version 1) so reads always find data
// and rewrites during the run are idempotent. Runs closed-loop and
// untimed; it is setup, not measurement.
func (sc *Scenario) Preload(ctx context.Context, cl *corec.Cluster, ledger *Ledger) error {
	client := cl.NewClient()
	for slot := int64(0); slot < int64(sc.Slots); slot++ {
		op := Op{
			Kind:    OpPut,
			Var:     sc.Name,
			Offset:  slot * int64(sc.ObjectBytes),
			Len:     sc.ObjectBytes,
			Version: 1,
			Seed:    opSeed(sc.Name, slot, 1),
		}
		box := corec.Box{Lo: []int64{op.Offset}, Hi: []int64{op.Offset + int64(op.Len)}}
		if err := client.Put(ctx, op.Var, box, op.Version, Payload(op.Seed, op.Len)); err != nil {
			return fmt.Errorf("preload slot %d: %w", slot, err)
		}
		if ledger != nil {
			ledger.RecordAck(op)
		}
	}
	return nil
}

// FaultArm selects the fault orchestration running alongside the load.
type FaultArm string

const (
	// FaultNone runs the scenario fault-free.
	FaultNone FaultArm = "none"
	// FaultKillRestart SIGKILLs one process a third into the run, leaves
	// it dead through the middle third (measuring degraded reads), then
	// restarts it and runs full replacement recovery on its servers.
	FaultKillRestart FaultArm = "kill-restart"
)

// RunReport is the outcome of one scenario x fault-arm cell: the SLO row.
type RunReport struct {
	Scenario string `json:"scenario"`
	Arm      string `json:"arm"`
	Servers  int    `json:"servers"`
	Procs    int    `json:"procs"`

	// Open-loop accounting. OfferedRate is what the arrival process
	// generated; AchievedRate what the fleet completed.
	OfferedOps   int64   `json:"offered_ops"`
	CompletedOps int64   `json:"completed_ops"`
	FailedOps    int64   `json:"failed_ops"`
	OfferedRate  float64 `json:"offered_ops_per_sec"`
	AchievedRate float64 `json:"achieved_ops_per_sec"`

	// Coordinated-omission-safe latency (completion minus intended
	// start), in milliseconds.
	P50Ms  float64 `json:"p50_ms"`
	P99Ms  float64 `json:"p99_ms"`
	P999Ms float64 `json:"p999_ms"`
	MaxMs  float64 `json:"max_ms"`

	// Resilience accounting (kill-restart arm).
	KilledServers   []int   `json:"killed_servers,omitempty"`
	AckedWrites     int     `json:"acked_writes"`
	LostObjects     int     `json:"lost_objects"`
	CorruptObjects  int     `json:"corrupt_objects"`
	RepairedObjects int     `json:"repaired_objects,omitempty"`
	DegradedReads   int64   `json:"degraded_reads,omitempty"`
	DegradedP99Ms   float64 `json:"degraded_read_p99_ms,omitempty"`
}

// OfferAndVerify offers sc's open-loop load to cl, preloaded into ledger;
// settle (nil: none) runs once the load ends, and then every acknowledged
// write is read back. rep takes the outcome: the load's counts, its rates and
// latencies to two decimals, and what the ledger check found.
func OfferAndVerify(ctx context.Context, cl *corec.Cluster, sc Scenario, ledger *Ledger, rep *RunReport, settle func() error) error {
	res := RunLoad(ctx, cl, LoadConfig{
		Rate:     sc.Rate,
		Duration: sc.Duration,
		Arrival:  sc.Arrival,
		Workers:  32,
		Seed:     1,
		NextOp:   sc.NextOp,
	}, ledger)
	if settle != nil {
		if err := settle(); err != nil {
			return err
		}
	}
	rep.OfferedOps = res.Offered
	rep.CompletedOps = res.Completed
	rep.FailedOps = res.Failed
	rep.OfferedRate = round2(res.OfferedRate())
	rep.AchievedRate = round2(res.AchievedRate())
	rep.P50Ms = round2(Quantile(res.Lat, 0.50))
	rep.P99Ms = round2(Quantile(res.Lat, 0.99))
	rep.P999Ms = round2(Quantile(res.Lat, 0.999))
	rep.MaxMs = round2(Quantile(res.Lat, 1))

	lost, corrupt, err := VerifyLedger(ctx, cl, ledger)
	if err != nil {
		return err
	}
	rep.AckedWrites = ledger.Len()
	rep.LostObjects = lost
	rep.CorruptObjects = corrupt
	return nil
}

// RunScenario spins up a fresh fleet for the scenario, preloads it,
// offers the open-loop load (with the fault arm's orchestration running
// alongside), verifies every acknowledged write, and returns the SLO row.
func RunScenario(ctx context.Context, sc Scenario, arm FaultArm) (*RunReport, error) {
	fcfg := Config{
		Servers: sc.Servers,
		Procs:   sc.Procs,
		Scrub:   sc.Scrub,
	}
	fleet, err := Start(ctx, fcfg)
	if err != nil {
		return nil, err
	}
	defer fleet.Stop()
	cl, err := fleet.Client()
	if err != nil {
		return nil, err
	}
	defer cl.Close()

	ledger := NewLedger()
	if err := sc.Preload(ctx, cl, ledger); err != nil {
		return nil, err
	}

	rep := &RunReport{
		Scenario: sc.Name,
		Arm:      string(arm),
		Servers:  fleet.cfg.Servers,
		Procs:    fleet.cfg.Procs,
	}

	// Fault orchestration and optional step-boundary driver run alongside
	// the timed load.
	orchCtx, stopOrch := context.WithCancel(ctx)
	orchDone := make(chan error, 2)
	orchestrations := 0
	if arm == FaultKillRestart {
		orchestrations++
		go func() { orchDone <- killRestartArm(orchCtx, fleet, cl, sc, ledger, rep) }()
	}
	if sc.StepEvery > 0 {
		orchestrations++
		go func() { orchDone <- stepDriver(orchCtx, cl, sc.StepEvery) }()
	}

	err = OfferAndVerify(ctx, cl, sc, ledger, rep, func() error {
		stopOrch()
		var orchErr error
		for i := 0; i < orchestrations; i++ {
			if err := <-orchDone; err != nil && orchErr == nil {
				orchErr = err
			}
		}
		return orchErr
	})
	if err != nil {
		return nil, err
	}
	return rep, nil
}

// stepDriver closes a time step over the wire every interval — the S3D
// pattern where the application's EndTimeStep triggers the CoREC
// demote/promote transitions while staging traffic continues.
func stepDriver(ctx context.Context, cl *corec.Cluster, every time.Duration) error {
	client := cl.NewClient()
	ts := corec.Version(1)
	for {
		select {
		case <-ctx.Done():
			return nil
		case <-time.After(every):
		}
		stepCtx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		_, _, err := client.EndTimeStepAll(stepCtx, ts)
		cancel()
		if err != nil {
			return fmt.Errorf("step driver: %w", err)
		}
		ts++
	}
}

// killRestartArm is the fault orchestration: a third into the load window
// it SIGKILLs the last process slot (losing that address space outright),
// measures degraded reads against the survivors, restarts the process at
// two thirds, and drives full replacement recovery for its servers.
func killRestartArm(ctx context.Context, fleet *Fleet, cl *corec.Cluster, sc Scenario, ledger *Ledger, rep *RunReport) error {
	third := sc.Duration / 3
	select {
	case <-ctx.Done():
		return nil
	case <-time.After(third):
	}
	victim := fleet.Procs()[len(fleet.Procs())-1]
	for _, id := range victim.Servers {
		rep.KilledServers = append(rep.KilledServers, int(id))
	}
	if err := fleet.Kill(victim); err != nil {
		return fmt.Errorf("kill arm: %w", err)
	}

	// Degraded window: read acked objects while the victim is down. These
	// reads exercise failover lookups and erasure-decode reconstruction;
	// their tail is the "bounded degraded-read latency" SLO.
	degraded := metrics.NewHistogram()
	client := cl.NewClient()
	acked := ledger.Acked()
	rng := rand.New(rand.NewSource(2))
	degradeUntil := time.After(third)
	for done := false; !done && len(acked) > 0; {
		select {
		case <-ctx.Done():
			done = true
		case <-degradeUntil:
			done = true
		default:
			op := acked[rng.Intn(len(acked))]
			box := corec.Box{Lo: []int64{op.Offset}, Hi: []int64{op.Offset + int64(op.Len)}}
			t0 := time.Now()
			rdCtx, cancel := context.WithTimeout(ctx, 30*time.Second)
			_, err := client.Get(rdCtx, op.Var, box, op.Version)
			cancel()
			if err == nil {
				degraded.Record(time.Since(t0))
			}
		}
	}
	rep.DegradedReads = degraded.Count()
	rep.DegradedP99Ms = round2(Quantile(degraded, 0.99))

	// Restart the victim process: a genuinely fresh address space that
	// revalidates its L2 disk tier, then full replacement recovery per
	// hosted server so the member is whole before the run ends.
	restartCtx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	if err := fleet.Restart(restartCtx, victim); err != nil {
		return fmt.Errorf("restart arm: %w", err)
	}
	for _, id := range victim.Servers {
		recCtx, cancel := context.WithTimeout(context.Background(), 120*time.Second)
		n, err := client.RecoverServer(recCtx, id, corec.RecoveryAggressive)
		cancel()
		if err != nil {
			return fmt.Errorf("recovery of server %d: %w", id, err)
		}
		rep.RepairedObjects += n
	}
	return nil
}

// VerifyLedger reads back every acknowledged write and proves the service
// still returns exactly the acked bytes: the zero-data-loss check. It
// returns how many objects are lost (unreadable) and how many corrupt
// (readable but wrong bytes).
func VerifyLedger(ctx context.Context, cl *corec.Cluster, ledger *Ledger) (lost, corrupt int, err error) {
	client := cl.NewClient()
	for _, op := range ledger.Acked() {
		box := corec.Box{Lo: []int64{op.Offset}, Hi: []int64{op.Offset + int64(op.Len)}}
		rdCtx, cancel := context.WithTimeout(ctx, 30*time.Second)
		got, gerr := client.Get(rdCtx, op.Var, box, op.Version)
		cancel()
		if gerr != nil {
			lost++
			continue
		}
		want := Payload(op.Seed, op.Len)
		if len(got) != len(want) {
			corrupt++
			continue
		}
		for i := range want {
			if got[i] != want[i] {
				corrupt++
				break
			}
		}
	}
	return lost, corrupt, nil
}
