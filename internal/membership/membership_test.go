package membership

import (
	"context"
	"math/rand"
	"reflect"
	"testing"

	"corec/internal/transport"
	"corec/internal/types"
)

// fleet is an in-memory gossip fabric: agents registered by id, messages
// dispatched synchronously, with a per-pair block list to simulate crashes
// and partitions deterministically. With drop > 0 it also loses each
// message with that probability, drawn from rng: the agents tick
// single-threaded, so one seed produces one exact message schedule.
type fleet struct {
	agents  map[types.ServerID]*Agent
	blocked map[[2]types.ServerID]bool
	down    map[types.ServerID]bool
	drop    float64
	rng     *rand.Rand
}

func newFleet() *fleet {
	return &fleet{
		agents:  make(map[types.ServerID]*Agent),
		blocked: make(map[[2]types.ServerID]bool),
		down:    make(map[types.ServerID]bool),
	}
}

func (f *fleet) Register(id types.ServerID, h transport.Handler) {}
func (f *fleet) Unregister(id types.ServerID)                    {}

func (f *fleet) Send(ctx context.Context, from, to types.ServerID, req *transport.Message) (*transport.Message, error) {
	if f.down[to] || f.blocked[[2]types.ServerID{from, to}] {
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

// build starts n manual agents with complete bootstrapped views.
func (f *fleet) build(n int) []*Agent {
	return f.buildWith(n, nil)
}

func (f *fleet) buildWith(n int, mut func(*Config)) []*Agent {
	var boot []Update
	for i := 0; i < n; i++ {
		boot = append(boot, Update{ID: types.ServerID(i), State: StateAlive, Domain: i % 4})
	}
	out := make([]*Agent, n)
	for i := 0; i < n; i++ {
		cfg := Config{
			ID:     types.ServerID(i),
			Domain: i % 4,
			Seed:   int64(1000 + i),
		}
		if mut != nil {
			mut(&cfg)
		}
		a := NewAgent(cfg, f)
		a.Bootstrap(boot)
		f.agents[types.ServerID(i)] = a
		out[i] = a
	}
	return out
}

func tickAll(ctx context.Context, agents []*Agent, f *fleet) {
	for _, a := range agents {
		if !f.down[a.ID()] {
			a.Tick(ctx)
		}
	}
}

func TestCodecRoundTrip(t *testing.T) {
	in := []Update{
		{ID: 0, State: StateAlive, Incarnation: 0, Domain: 0, Addr: ""},
		{ID: 7, State: StateSuspect, Incarnation: 3, Domain: 2, Addr: "127.0.0.1:9999"},
		{ID: 12, State: StateDead, Incarnation: 18446744073709551615, Domain: 3},
		{ID: 2, State: StateLeft, Incarnation: 9, Domain: 1},
	}
	out, err := DecodeUpdates(EncodeUpdates(in))
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	if !reflect.DeepEqual(in, out) {
		t.Fatalf("round trip mismatch:\n in: %+v\nout: %+v", in, out)
	}
}

func TestCodecRejectsGarbage(t *testing.T) {
	enc := EncodeUpdates([]Update{{ID: 1, State: StateAlive}})
	for cut := 1; cut < len(enc); cut++ {
		if _, err := DecodeUpdates(enc[:cut]); err == nil {
			t.Fatalf("truncation at %d bytes decoded without error", cut)
		}
	}
	bad := append([]byte(nil), enc...)
	bad[4+8] = 200 // state byte out of range
	if _, err := DecodeUpdates(bad); err == nil {
		t.Fatalf("invalid state decoded without error")
	}
}

func TestGossipDetectsCrash(t *testing.T) {
	ctx := context.Background()
	f := newFleet()
	agents := f.build(6)
	f.down[3] = true

	died := make(map[types.ServerID]bool)
	for _, a := range agents {
		a.cfg.OnEvent = func(ev Event) {
			if ev.Kind == EventDied {
				died[ev.ID] = true
			}
		}
	}
	for round := 0; round < 40; round++ {
		tickAll(ctx, agents, f)
		if died[3] {
			break
		}
	}
	if !died[3] {
		t.Fatalf("crash of server 3 never detected over 40 gossip rounds")
	}
	if died[0] || died[1] || died[2] || died[4] || died[5] {
		t.Fatalf("healthy server declared dead: %v", died)
	}
	// Dissemination: every live agent converges on the death.
	for round := 0; round < 40; round++ {
		tickAll(ctx, agents, f)
	}
	for _, a := range agents {
		if f.down[a.ID()] {
			continue
		}
		if st, ok := a.State(3); !ok || st != StateDead {
			t.Fatalf("agent %d sees server 3 as %v, want dead", a.ID(), st)
		}
	}
}

// TestLossyGossipNeverEvictsHealthy sweeps the detector over fleet size and
// seeded message loss, each run crashing one victim after a healthy window
// of 30 rounds. Lost probes and acks may delay the victim's death verdict,
// but no healthy agent may ever get one (a suspicion of it must end
// refuted), and every live agent must see the victim dead within 200
// rounds per agent.
func TestLossyGossipNeverEvictsHealthy(t *testing.T) {
	ctx := context.Background()
	for _, n := range []int{8, 16, 32} {
		for _, drop := range []float64{0, 0.05, 0.10} {
			for s := int64(0); s < 5; s++ {
				seed := int64(1000*n) + s
				victim := types.ServerID(seed % int64(n))
				f := newFleet()
				f.drop = drop
				f.rng = rand.New(rand.NewSource(seed))
				wrong := make(map[types.ServerID]bool)
				agents := f.buildWith(n, func(c *Config) {
					c.Seed = seed*1000 + int64(c.ID)
					c.SuspicionTicks = 6
					c.OnEvent = func(ev Event) {
						if ev.Kind == EventDied && ev.ID != victim {
							wrong[ev.ID] = true
						}
					}
				})
				for round := 0; round < 30; round++ {
					tickAll(ctx, agents, f)
				}
				f.down[victim] = true
				allDead := func() bool {
					for _, a := range agents {
						if st, _ := a.State(victim); a.ID() != victim && st != StateDead {
							return false
						}
					}
					return true
				}
				rounds := 0
				for ; !allDead() && rounds < 200*n; rounds++ {
					tickAll(ctx, agents, f)
				}
				if len(wrong) > 0 {
					t.Errorf("fleet %d, drop %.0f%%, seed %d: healthy agents declared dead: %v", n, drop*100, seed, wrong)
				}
				if !allDead() {
					t.Errorf("fleet %d, drop %.0f%%, seed %d: victim %d not seen dead fleet-wide after %d rounds", n, drop*100, seed, victim, rounds)
				}
			}
		}
	}
}

func TestSuspicionRefutedNotEvicted(t *testing.T) {
	// Asymmetric reachability: server 0 cannot reach server 2 directly or
	// learn of it via proxies briefly; once the partition heals before the
	// suspicion window closes fleet-wide, 2 must end refuted, not dead.
	ctx := context.Background()
	f := newFleet()
	// A wide refutation window: the test asserts the refutation mechanism,
	// not a race between dissemination latency and the deadline.
	agents := f.buildWith(4, func(c *Config) { c.SuspicionTicks = 10 })

	var refuted, diedWrong bool
	for _, a := range agents {
		a.cfg.OnEvent = func(ev Event) {
			if ev.ID == 2 {
				switch ev.Kind {
				case EventRefuted:
					refuted = true
				case EventDied:
					diedWrong = true
				}
			}
		}
	}

	// Block every path to 2 so some agent suspects it...
	for i := 0; i < 4; i++ {
		f.blocked[[2]types.ServerID{types.ServerID(i), 2}] = true
	}
	suspected := func() bool {
		for _, a := range agents {
			if st, ok := a.State(2); ok && st == StateSuspect {
				return true
			}
		}
		return false
	}
	for round := 0; round < 20 && !suspected(); round++ {
		tickAll(ctx, agents, f)
	}
	if !suspected() {
		t.Fatalf("no agent suspected the partitioned server")
	}
	// ... then heal. Server 2's own ticks now deliver gossip again; when it
	// hears the suspicion of itself it bumps its incarnation and refutes.
	for i := 0; i < 4; i++ {
		delete(f.blocked, [2]types.ServerID{types.ServerID(i), 2})
	}
	for round := 0; round < 60; round++ {
		tickAll(ctx, agents, f)
	}
	if diedWrong {
		t.Fatalf("healthy-but-partitioned server was declared dead")
	}
	if !refuted {
		t.Fatalf("suspicion was never refuted after the partition healed")
	}
	for _, a := range agents {
		if st, _ := a.State(2); st != StateAlive {
			t.Fatalf("agent %d still sees server 2 as %v after refutation", a.ID(), st)
		}
	}
	if agents[2].Incarnation() == 0 {
		t.Fatalf("refutation did not bump the suspect's incarnation")
	}
	if agents[2].Stats().Refutations == 0 {
		t.Fatalf("refutation counter not incremented")
	}
}

func TestIndirectProbeClearsTarget(t *testing.T) {
	// 0 cannot reach 1 directly, but proxies can: the indirect probe must
	// keep 1 alive in 0's view.
	ctx := context.Background()
	f := newFleet()
	agents := f.build(4)
	f.blocked[[2]types.ServerID{0, 1}] = true
	for round := 0; round < 40; round++ {
		agents[0].Tick(ctx)
	}
	if st, _ := agents[0].State(1); st == StateDead {
		t.Fatalf("agent 0 declared 1 dead despite working proxy paths")
	}
	if agents[0].Stats().IndirectProbes == 0 {
		t.Fatalf("no indirect probes issued although the direct path is blocked")
	}
}

func TestJoinFleetAnnounce(t *testing.T) {
	ctx := context.Background()
	f := newFleet()
	agents := f.build(3)
	joiner := NewAgent(Config{ID: 9, Domain: 1, Seed: 99}, f)
	f.agents[9] = joiner
	if n := joiner.JoinFleet(ctx, []types.ServerID{0, 1, 2}); n != 3 {
		t.Fatalf("JoinFleet reached %d peers, want 3", n)
	}
	// The pull responses taught the joiner the whole fleet.
	if got := len(joiner.Members()); got != 4 {
		t.Fatalf("joiner knows %d members, want 4", got)
	}
	// And the announce taught the fleet the joiner.
	for _, a := range agents {
		if st, ok := a.State(9); !ok || st != StateAlive {
			t.Fatalf("agent %d does not know the joiner (state %v ok=%v)", a.ID(), st, ok)
		}
	}
}

func TestReplacementOverridesTombstone(t *testing.T) {
	ctx := context.Background()
	f := newFleet()
	agents := f.build(4)
	f.down[1] = true
	for round := 0; round < 60; round++ {
		tickAll(ctx, agents, f)
	}
	if st, _ := agents[0].State(1); st != StateDead {
		t.Fatalf("setup: server 1 not declared dead (state %v)", st)
	}
	// A replacement bootstrapped at incarnation 0 would lose to the
	// tombstone; at tombstone+1 it must win.
	f.down[1] = false
	repl := NewAgent(Config{ID: 1, Domain: 1, Seed: 77, Incarnation: 1}, f)
	f.agents[1] = repl
	repl.JoinFleet(ctx, []types.ServerID{0, 2, 3})
	for round := 0; round < 40; round++ {
		tickAll(ctx, append(agents[:1:1], append([]*Agent{repl}, agents[2:]...)...), f)
	}
	for _, a := range []*Agent{agents[0], agents[2], agents[3]} {
		if st, _ := a.State(1); st != StateAlive {
			t.Fatalf("agent %d sees the replacement as %v, want alive", a.ID(), st)
		}
	}
}

func TestLeaveIsTerminalNotDead(t *testing.T) {
	ctx := context.Background()
	f := newFleet()
	agents := f.build(4)
	var sawDead bool
	for _, a := range agents[1:] {
		a.cfg.OnEvent = func(ev Event) {
			if ev.ID == 0 && ev.Kind == EventDied {
				sawDead = true
			}
		}
	}
	agents[0].Leave(ctx)
	f.down[0] = true
	for round := 0; round < 60; round++ {
		tickAll(ctx, agents, f)
	}
	if sawDead {
		t.Fatalf("voluntary departure was reported as a death")
	}
	for _, a := range agents[1:] {
		if st, _ := a.State(0); st != StateLeft {
			t.Fatalf("agent %d sees the leaver as %v, want left", a.ID(), st)
		}
	}
}

func TestPiggybackBounded(t *testing.T) {
	f := newFleet()
	a := NewAgent(Config{ID: 0, Seed: 1}, f)
	var boot []Update
	for i := 1; i <= 20; i++ {
		boot = append(boot, Update{ID: types.ServerID(i), State: StateAlive})
	}
	a.Bootstrap(boot)
	// Queue 20 updates through Apply (suspects at fresh incarnations).
	var batch []Update
	for i := 1; i <= 20; i++ {
		batch = append(batch, Update{ID: types.ServerID(i), State: StateSuspect, Incarnation: 1})
	}
	a.Apply(EncodeUpdates(batch))
	pig := a.Piggyback()
	got, err := DecodeUpdates(pig)
	if err != nil {
		t.Fatalf("piggyback decode: %v", err)
	}
	if len(got) != PiggybackLimit {
		t.Fatalf("piggyback carried %d updates, want PiggybackLimit=%d", len(got), PiggybackLimit)
	}
	// Retransmit budget eventually drains the queue entirely.
	for i := 0; i < 200; i++ {
		a.Piggyback()
	}
	if rest := a.Piggyback(); rest != nil {
		t.Fatalf("queue never drained: still carrying %d bytes", len(rest))
	}
}
