package harness

import (
	"context"
	"fmt"
	"io"
	"math/rand"
	"runtime"
	"sort"
	"time"

	"corec"
	"corec/internal/membership"
	"corec/internal/transport"
	"corec/internal/types"
)

// Membership benchmark: seeded, tick-driven measurements of the SWIM
// failure detector and the paced live migrator. Two question sets:
//
//  1. Detection — after a fail-stop crash, how many gossip rounds until the
//     first live agent declares the victim dead, and until every live agent
//     converges? Swept over fleet size and message-drop probability.
//  2. False positives — over a healthy steady-state window at each drop
//     rate, how many suspicions of healthy servers arise, and do all of
//     them end refuted (none may ever escalate to a death verdict)?
//
// Plus one cluster-level arm: scale-out rebalance throughput (objects and
// bytes moved per pass, wall time). `make bench` serializes the report to
// BENCH_membership.json so detector regressions show up as diffs in review.

// MembershipBenchRow is one (fleet size, drop rate) detection measurement,
// aggregated over seeds.
type MembershipBenchRow struct {
	// Fleet is the agent count; DropPct the per-message drop probability.
	Fleet   int     `json:"fleet"`
	DropPct float64 `json:"drop_pct"`
	// Seeds is the number of independent seeded runs aggregated.
	Seeds int `json:"seeds"`
	// DetectTicksP50/Max are gossip rounds from crash to the first death
	// verdict, over the seeded runs.
	DetectTicksP50 float64 `json:"detect_ticks_p50"`
	DetectTicksMax float64 `json:"detect_ticks_max"`
	// ConvergeTicksMax is the worst rounds-to-fleet-wide-convergence.
	ConvergeTicksMax float64 `json:"converge_ticks_max"`
	// FalseSuspicions counts suspicions raised against healthy servers
	// during the pre-crash steady-state window, summed over seeds;
	// Refutations counts how many ended refuted. WrongEvictions counts
	// healthy servers that ever reached a death verdict — the hard failure
	// mode, always required to be zero.
	FalseSuspicions int64 `json:"false_suspicions"`
	Refutations     int64 `json:"refutations"`
	WrongEvictions  int64 `json:"wrong_evictions"`
}

// MembershipRebalanceRow is the cluster-level migration arm.
type MembershipRebalanceRow struct {
	Servers int `json:"servers"`
	Objects int `json:"objects"`
	// Moved/Repaired/BytesMoved tally the pass; Millis is its wall time.
	Moved      int     `json:"moved"`
	Repaired   int     `json:"repaired"`
	BytesMoved int64   `json:"bytes_moved"`
	Millis     float64 `json:"millis"`
}

// MembershipBenchReport is the full harness output.
type MembershipBenchReport struct {
	GOMAXPROCS int                      `json:"gomaxprocs"`
	Quick      bool                     `json:"quick"`
	Detection  []MembershipBenchRow     `json:"detection"`
	Rebalance  []MembershipRebalanceRow `json:"rebalance"`
}

// lossyFleet is a deterministic in-memory gossip fabric with seeded
// message drops: the agents tick single-threaded, so one seed produces one
// exact message schedule.
type lossyFleet struct {
	agents map[types.ServerID]*membership.Agent
	down   map[types.ServerID]bool
	drop   float64
	rng    *rand.Rand
}

func (f *lossyFleet) Register(id types.ServerID, h transport.Handler) {}
func (f *lossyFleet) Unregister(id types.ServerID)                    {}

func (f *lossyFleet) Send(ctx context.Context, from, to types.ServerID, req *transport.Message) (*transport.Message, error) {
	if f.down[to] {
		return nil, transport.ErrUnreachable
	}
	if f.drop > 0 && f.rng.Float64() < f.drop {
		return nil, transport.ErrUnreachable
	}
	a, ok := f.agents[to]
	if !ok {
		return nil, transport.ErrUnreachable
	}
	return a.HandleMessage(ctx, req), nil
}

// membershipDetectRun executes one seeded detection scenario and returns
// (ticks to first verdict, ticks to convergence, steady-state tallies).
func membershipDetectRun(fleet int, drop float64, seed int64) (detect, converge int, falseSusp, refuted, wrongEvict int64, err error) {
	ctx := context.Background()
	f := &lossyFleet{
		agents: make(map[types.ServerID]*membership.Agent),
		down:   make(map[types.ServerID]bool),
		drop:   drop,
		rng:    rand.New(rand.NewSource(seed)),
	}
	victim := types.ServerID(int(seed) % fleet)

	var boot []membership.Update
	for i := 0; i < fleet; i++ {
		boot = append(boot, membership.Update{ID: types.ServerID(i), State: membership.StateAlive, Domain: i % 4})
	}
	agents := make([]*membership.Agent, fleet)
	var firstDeath int // tick index of the first EventDied(victim), 0 = not yet
	tick := 0
	for i := 0; i < fleet; i++ {
		a := membership.NewAgent(membership.Config{
			ID:     types.ServerID(i),
			Domain: i % 4,
			Seed:   seed*1000 + int64(i),
			// A generous window keeps lossy-fabric sweeps honest: drops
			// should cost detection latency, not wrong verdicts.
			SuspicionTicks: 6,
			OnEvent: func(ev membership.Event) {
				switch ev.Kind {
				case membership.EventSuspected:
					if ev.ID != victim {
						falseSusp++
					}
				case membership.EventRefuted:
					if ev.ID != victim {
						refuted++
					}
				case membership.EventDied:
					if ev.ID != victim {
						wrongEvict++
					} else if firstDeath == 0 {
						firstDeath = tick
					}
				}
			},
		}, f)
		a.Bootstrap(boot)
		f.agents[types.ServerID(i)] = a
		agents[i] = a
	}

	tickAll := func() {
		tick++
		for _, a := range agents {
			if !f.down[a.ID()] {
				a.Tick(ctx)
			}
		}
	}

	// Healthy steady-state window: false suspicions accumulate here.
	steady := 30
	for i := 0; i < steady; i++ {
		tickAll()
	}

	crashTick := tick
	f.down[victim] = true
	allDead := func() bool {
		for _, a := range agents {
			if a.ID() == victim {
				continue
			}
			if st, _ := a.State(victim); st != membership.StateDead {
				return false
			}
		}
		return true
	}
	limit := tick + 200*fleet
	for !allDead() && tick < limit {
		tickAll()
	}
	if !allDead() {
		return 0, 0, falseSusp, refuted, wrongEvict,
			fmt.Errorf("membership bench: fleet %d drop %.0f%% seed %d never converged", fleet, drop*100, seed)
	}
	if firstDeath == 0 {
		firstDeath = tick
	}
	return firstDeath - crashTick, tick - crashTick, falseSusp, refuted, wrongEvict, nil
}

// membershipRebalanceArm measures one scale-out migration pass on a real
// elastic cluster.
func membershipRebalanceArm(servers, objects int) (MembershipRebalanceRow, error) {
	cfg := corec.DefaultConfig(servers)
	cfg.Mode = corec.PolicyCoREC
	cfg.Seed = 42
	cfg.Membership = &corec.MembershipConfig{Manual: true}
	cfg.Rebalance = &corec.RebalanceConfig{RateMBps: -1} // measure raw pass cost
	c, err := corec.NewCluster(cfg)
	if err != nil {
		return MembershipRebalanceRow{}, err
	}
	defer c.Close()
	cl := c.NewClient()
	ctx := context.Background()
	for i := 0; i < objects; i++ {
		b := corec.Box3D(int64(i)*8, 0, 0, int64(i)*8+8, 8, 8)
		data := make([]byte, b.Volume()*8)
		for j := range data {
			data[j] = byte(i*31 + j)
		}
		if err := cl.Put(ctx, "bench", b, 1, data); err != nil {
			return MembershipRebalanceRow{}, err
		}
	}
	c.EndTimeStep(2)
	if _, err := c.JoinNew(); err != nil {
		return MembershipRebalanceRow{}, err
	}
	for i := 0; i < 4; i++ {
		c.TickMembership(ctx)
	}
	start := time.Now()
	rep, err := c.Rebalance(ctx)
	if err != nil {
		return MembershipRebalanceRow{}, err
	}
	return MembershipRebalanceRow{
		Servers:    servers,
		Objects:    objects,
		Moved:      rep.Moved,
		Repaired:   rep.Repaired,
		BytesMoved: rep.BytesMoved,
		Millis:     float64(time.Since(start).Microseconds()) / 1e3,
	}, nil
}

// RunMembershipBench sweeps the detector over fleet size and drop rate and
// measures a scale-out rebalance pass. quick shrinks the sweep for CI.
func RunMembershipBench(quick bool) (*MembershipBenchReport, error) {
	fleets := []int{8, 16, 32}
	drops := []float64{0, 0.05, 0.10}
	seeds := 5
	if quick {
		fleets = []int{8, 16}
		seeds = 3
	}
	rep := &MembershipBenchReport{GOMAXPROCS: runtime.GOMAXPROCS(0), Quick: quick}
	for _, fleet := range fleets {
		for _, drop := range drops {
			row := MembershipBenchRow{Fleet: fleet, DropPct: drop * 100, Seeds: seeds}
			var detects []float64
			for s := 0; s < seeds; s++ {
				d, cv, fs, rf, we, err := membershipDetectRun(fleet, drop, int64(1000*fleet)+int64(s))
				if err != nil {
					return nil, err
				}
				detects = append(detects, float64(d))
				if float64(cv) > row.ConvergeTicksMax {
					row.ConvergeTicksMax = float64(cv)
				}
				row.FalseSuspicions += fs
				row.Refutations += rf
				row.WrongEvictions += we
			}
			sort.Float64s(detects)
			row.DetectTicksP50 = detects[len(detects)/2]
			row.DetectTicksMax = detects[len(detects)-1]
			rep.Detection = append(rep.Detection, row)
		}
	}
	for _, servers := range []int{8} {
		objects := 32
		if quick {
			objects = 16
		}
		row, err := membershipRebalanceArm(servers, objects)
		if err != nil {
			return nil, err
		}
		rep.Rebalance = append(rep.Rebalance, row)
	}
	return rep, nil
}

// WriteMembershipBench renders the report as the human-readable companion
// to the JSON artifact.
func WriteMembershipBench(w io.Writer, rep *MembershipBenchReport) {
	fmt.Fprintf(w, "Membership benchmarks (GOMAXPROCS=%d, quick=%v)\n", rep.GOMAXPROCS, rep.Quick)
	fmt.Fprintf(w, "%-7s %-7s %-7s %-12s %-12s %-13s %-11s %-9s %s\n",
		"fleet", "drop%", "seeds", "detect p50", "detect max", "converge max", "falseSusp", "refuted", "wrongEvict")
	for _, r := range rep.Detection {
		fmt.Fprintf(w, "%-7d %-7.0f %-7d %-12.0f %-12.0f %-13.0f %-11d %-9d %d\n",
			r.Fleet, r.DropPct, r.Seeds, r.DetectTicksP50, r.DetectTicksMax,
			r.ConvergeTicksMax, r.FalseSuspicions, r.Refutations, r.WrongEvictions)
	}
	for _, r := range rep.Rebalance {
		fmt.Fprintf(w, "rebalance: %d servers, %d objects: moved=%d repaired=%d bytes=%d in %.1f ms\n",
			r.Servers, r.Objects, r.Moved, r.Repaired, r.BytesMoved, r.Millis)
	}
}
