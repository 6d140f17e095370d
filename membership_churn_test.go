package corec

import (
	"bytes"
	"context"
	"fmt"
	"slices"
	"testing"
	"time"

	"corec/internal/failure"
	"corec/internal/membership"
	"corec/internal/topology"
	"corec/internal/transport"
	"corec/internal/types"
)

// elasticConfig builds a cluster config with elastic membership in manual
// (test-driven) gossip mode: the protocol only advances on TickMembership,
// so every chaos schedule below is fully deterministic under its seed.
func elasticConfig(n int) Config {
	cfg := DefaultConfig(n)
	cfg.Mode = PolicyCoREC
	cfg.Membership = &MembershipConfig{Manual: true}
	cfg.rebalanceMBps = -1 // unpaced: unit tests value speed
	return cfg
}

func elasticCluster(t *testing.T, cfg Config) *Cluster {
	t.Helper()
	c, err := NewCluster(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(c.Close)
	return c
}

// tickUntil advances the gossip protocol up to `rounds` ticks, stopping
// early once cond holds. Returns whether cond held.
func tickUntil(c *Cluster, rounds int, cond func() bool) bool {
	ctx := context.Background()
	for i := 0; i < rounds; i++ {
		if cond() {
			return true
		}
		c.TickMembership(ctx)
	}
	return cond()
}

func churnBox(i int) Box {
	return Box3D(int64(i)*8, 0, 0, int64(i)*8+8, 8, 8)
}

// seedChurnObjects stages `n` objects at version 1 and cools them through a
// step boundary so the fleet holds a mix of replicated and encoded state.
func seedChurnObjects(t *testing.T, c *Cluster, cl *Client, name string, n int) map[int][]byte {
	t.Helper()
	ctx := context.Background()
	committed := make(map[int][]byte, n)
	for i := 0; i < n; i++ {
		data := regionData(t, churnBox(i), 8, int64(5000+i))
		if err := cl.Put(ctx, name, churnBox(i), 1, data); err != nil {
			t.Fatalf("seed put %d: %v", i, err)
		}
		committed[i] = data
	}
	c.EndTimeStep(2)
	return committed
}

func verifyChurnObjects(t *testing.T, cl *Client, name string, committed map[int][]byte, versions map[int]Version, stage string) {
	t.Helper()
	ctx := context.Background()
	for i, want := range committed {
		v := Version(1)
		if versions != nil {
			if vv, ok := versions[i]; ok {
				v = vv
			}
		}
		got, err := cl.Get(ctx, name, churnBox(i), v)
		if err != nil {
			t.Fatalf("%s: object %d unreadable: %v", stage, i, err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("%s: object %d payload corrupted", stage, i)
		}
	}
}

// TestElasticGossipDetectsKillAndRebalances is the tentpole acceptance
// scenario: a server killed mid-workload is detected by gossip alone (no
// monitor runs), the ring drops it incrementally, a replacement joins under
// the same id, and the paced migrator restores redundancy with zero data
// loss.
func TestElasticGossipDetectsKillAndRebalances(t *testing.T) {
	cfg := elasticConfig(8)
	c := elasticCluster(t, cfg)
	cl := c.NewClient()
	ctx := context.Background()

	const objects = 16
	committed := seedChurnObjects(t, c, cl, "elastic", objects)
	versions := make(map[int]Version)

	// Hot rewrites so replicated state exists alongside the cooled stripes.
	for i := 0; i < 6; i++ {
		data := regionData(t, churnBox(i), 8, int64(7000+i))
		if err := cl.Put(ctx, "elastic", churnBox(i), 3, data); err != nil {
			t.Fatalf("hot put %d: %v", i, err)
		}
		committed[i] = data
		versions[i] = 3
	}

	ring := c.Ring()
	victim := ring.OwnerKey(types.ObjectID{Var: "elastic", Box: churnBox(0)}.Key())
	epoch0 := ring.Epoch()
	c.Kill(ServerID(victim))

	// Workload continues mid-churn: writes whose primary just died must fail
	// over to ring successors while the death is still undetected.
	for i := 6; i < 9; i++ {
		data := regionData(t, churnBox(i), 8, int64(7100+i))
		if err := cl.Put(ctx, "elastic", churnBox(i), 3, data); err != nil {
			t.Fatalf("mid-churn put %d: %v", i, err)
		}
		committed[i] = data
		versions[i] = 3
	}

	// Detection comes from gossip: no monitor is running in this test.
	if !tickUntil(c, 200, func() bool { return !ring.Contains(victim) }) {
		t.Fatalf("gossip never evicted killed server %d from the ring", victim)
	}
	if ring.Size() != 7 {
		t.Fatalf("ring size %d after eviction, want 7", ring.Size())
	}
	if ring.Epoch() <= epoch0 {
		t.Fatalf("ring epoch did not advance on eviction")
	}

	// The death surfaced on the membership event stream.
	sawDeath := false
	for drained := false; !drained; {
		select {
		case ev := <-c.MemberEvents():
			if ev.Kind == MemberDied && ev.ID == victim {
				sawDeath = true
			}
		default:
			drained = true
		}
	}
	if !sawDeath {
		t.Fatalf("no MemberDied event delivered for server %d", victim)
	}

	// Degraded reads stay correct between eviction and rebalance.
	verifyChurnObjects(t, cl, "elastic", committed, versions, "degraded")

	// Replacement joins under the same id; the ring recomputes incrementally
	// (exactly one arc per virtual node moves to the newcomer).
	arcsBefore := c.FabricStatus().Membership.ArcsMoved
	if err := c.Join(ServerID(victim)); err != nil {
		t.Fatalf("join replacement: %v", err)
	}
	if !ring.Contains(victim) || ring.Size() != 8 {
		t.Fatalf("replacement not in ring: contains=%v size=%d", ring.Contains(victim), ring.Size())
	}
	if delta := c.FabricStatus().Membership.ArcsMoved - arcsBefore; delta != topology.DefaultVirtualNodes {
		t.Fatalf("rejoin moved %d arcs, want exactly %d (one per vnode)", delta, topology.DefaultVirtualNodes)
	}
	for i := 0; i < 5; i++ {
		c.TickMembership(ctx)
	}
	// Every surviving agent flipped the tombstone back to alive.
	for _, id := range ring.Members() {
		a := c.MembershipAgent(ServerID(id))
		if a == nil {
			continue
		}
		if st, ok := a.State(victim); !ok || st != membership.StateAlive {
			t.Fatalf("agent %d sees replacement %d as %v", id, victim, st)
		}
	}

	// The migrator restores placement and redundancy with zero loss.
	rep, err := c.Rebalance(ctx)
	if err != nil {
		t.Fatalf("rebalance: %v", err)
	}
	if rep.Errors != 0 {
		t.Fatalf("rebalance reported %d errors: %+v", rep.Errors, rep)
	}
	verifyChurnObjects(t, cl, "elastic", committed, versions, "post-rebalance")

	ms := c.FabricStatus().Membership
	if !ms.Enabled || ms.Probes == 0 || ms.Rebalances == 0 {
		t.Fatalf("membership status not populated: %+v", ms)
	}
}

// TestElasticScaleOutMidWorkload grows the fleet with JoinNew while writes
// are in flight, rebalances, and verifies the newcomer actually owns part
// of the key space with no foreground loss.
func TestElasticScaleOutMidWorkload(t *testing.T) {
	cfg := elasticConfig(6)
	c := elasticCluster(t, cfg)
	cl := c.NewClient()
	ctx := context.Background()

	const objects = 18
	committed := seedChurnObjects(t, c, cl, "scaleout", objects)
	versions := make(map[int]Version)

	id, err := c.JoinNew()
	if err != nil {
		t.Fatalf("join new: %v", err)
	}
	if int(id) != 6 {
		t.Fatalf("JoinNew allocated id %d, want 6", id)
	}
	ring := c.Ring()
	if ring.Size() != 7 {
		t.Fatalf("ring size %d after scale-out, want 7", ring.Size())
	}

	// Foreground writes continue across the membership change.
	for i := 0; i < 6; i++ {
		data := regionData(t, churnBox(i), 8, int64(8000+i))
		if err := cl.Put(ctx, "scaleout", churnBox(i), 3, data); err != nil {
			t.Fatalf("put during scale-out %d: %v", i, err)
		}
		committed[i] = data
		versions[i] = 3
	}
	for i := 0; i < 5; i++ {
		c.TickMembership(ctx)
	}

	// The newcomer owns a share of the key space.
	owned := 0
	for i := 0; i < 500; i++ {
		if ring.OwnerKey(fmt.Sprintf("sample/%d", i)) == types.ServerID(id) {
			owned++
		}
	}
	if owned == 0 {
		t.Fatalf("joiner owns no keys out of 500 sampled")
	}

	rep, err := c.Rebalance(ctx)
	if err != nil {
		t.Fatalf("rebalance: %v", err)
	}
	if rep.Errors != 0 {
		t.Fatalf("rebalance errors: %+v", rep)
	}
	verifyChurnObjects(t, cl, "scaleout", committed, versions, "post-scale-out")
}

// TestElasticRollingRestart drains, removes, and rejoins every server in
// turn — the rolling-upgrade schedule — with reads verified at every stage
// and writes landing mid-roll (fenced writes must fail over, not fail).
func TestElasticRollingRestart(t *testing.T) {
	if testing.Short() {
		t.Skip("rolling restart skipped in -short mode")
	}
	cfg := elasticConfig(6)
	c := elasticCluster(t, cfg)
	cl := c.NewClient()
	ctx := context.Background()

	const objects = 12
	committed := seedChurnObjects(t, c, cl, "roll", objects)
	versions := make(map[int]Version)
	ring := c.Ring()

	for id := 0; id < 6; id++ {
		rep, err := c.DrainAndLeave(ctx, ServerID(id))
		if err != nil {
			t.Fatalf("drain %d: %v", id, err)
		}
		if rep.Errors != 0 {
			t.Fatalf("drain %d rebalance errors: %+v", id, rep)
		}
		if ring.Contains(types.ServerID(id)) || ring.Size() != 5 {
			t.Fatalf("ring after drain %d: contains=%v size=%d", id, ring.Contains(types.ServerID(id)), ring.Size())
		}
		verifyChurnObjects(t, cl, "roll", committed, versions, fmt.Sprintf("drained %d", id))

		// A write mid-roll: version advances on one object per round.
		obj := id % objects
		v := Version(3 + id)
		data := regionData(t, churnBox(obj), 8, int64(9000+id))
		if err := cl.Put(ctx, "roll", churnBox(obj), v, data); err != nil {
			t.Fatalf("mid-roll put (server %d down): %v", id, err)
		}
		committed[obj] = data
		versions[obj] = v

		if err := c.Join(ServerID(id)); err != nil {
			t.Fatalf("rejoin %d: %v", id, err)
		}
		for i := 0; i < 4; i++ {
			c.TickMembership(ctx)
		}
		if _, err := c.Rebalance(ctx); err != nil {
			t.Fatalf("rebalance after rejoin %d: %v", id, err)
		}
		verifyChurnObjects(t, cl, "roll", committed, versions, fmt.Sprintf("rejoined %d", id))
	}
	if ring.Size() != 6 {
		t.Fatalf("fleet size %d after full roll, want 6", ring.Size())
	}
}

// TestElasticJoinLeaveFlapping flaps extra capacity in and out repeatedly —
// including a rejoin under an id that previously left, which must override
// the Left tombstone via the incarnation bump.
func TestElasticJoinLeaveFlapping(t *testing.T) {
	cfg := elasticConfig(6)
	c := elasticCluster(t, cfg)
	cl := c.NewClient()
	ctx := context.Background()

	const objects = 10
	committed := seedChurnObjects(t, c, cl, "flap", objects)
	ring := c.Ring()
	lastEpoch := ring.Epoch()

	flapID, err := c.JoinNew()
	if err != nil {
		t.Fatalf("initial join: %v", err)
	}
	for cycle := 0; cycle < 3; cycle++ {
		for i := 0; i < 3; i++ {
			c.TickMembership(ctx)
		}
		if _, err := c.DrainAndLeave(ctx, flapID); err != nil {
			t.Fatalf("cycle %d leave: %v", cycle, err)
		}
		if ring.Size() != 6 {
			t.Fatalf("cycle %d: ring size %d after leave, want 6", cycle, ring.Size())
		}
		verifyChurnObjects(t, cl, "flap", committed, nil, fmt.Sprintf("cycle %d out", cycle))

		// Same id rejoins: the Left tombstone must lose to the replacement.
		if err := c.Join(flapID); err != nil {
			t.Fatalf("cycle %d rejoin: %v", cycle, err)
		}
		if !ring.Contains(types.ServerID(flapID)) {
			t.Fatalf("cycle %d: flapping server not re-admitted", cycle)
		}
		if ep := ring.Epoch(); ep <= lastEpoch {
			t.Fatalf("cycle %d: epoch stalled at %d", cycle, ep)
		} else {
			lastEpoch = ep
		}
		if _, err := c.Rebalance(ctx); err != nil {
			t.Fatalf("cycle %d rebalance: %v", cycle, err)
		}
		verifyChurnObjects(t, cl, "flap", committed, nil, fmt.Sprintf("cycle %d in", cycle))
	}
	if _, err := c.DrainAndLeave(ctx, flapID); err != nil {
		t.Fatalf("final leave: %v", err)
	}
	verifyChurnObjects(t, cl, "flap", committed, nil, "final")
}

// TestElasticRejoinRestoresNamedPieces: a server that holds pieces leaves
// without a drain and rejoins under its id. Records still name it, so when
// Join returns the newcomer must hold every copy and shard they name, read
// from its own storage, with no decode.
func TestElasticRejoinRestoresNamedPieces(t *testing.T) {
	c := elasticCluster(t, elasticConfig(8))
	cl := c.NewClient()
	const objects = 16
	seedChurnObjects(t, c, cl, "rejoin", objects)
	for i := 0; i < objects/2; i++ { // hot rewrites keep some objects replicated
		if err := cl.Put(context.Background(), "rejoin", churnBox(i), 3, regionData(t, churnBox(i), 8, int64(7000+i))); err != nil {
			t.Fatalf("hot put %d: %v", i, err)
		}
	}
	victim := objectRecord(t, cl, "rejoin", 0).Primary
	c.Leave(ServerID(victim))
	if err := c.Join(ServerID(victim)); err != nil {
		t.Fatalf("rejoin %d: %v", victim, err)
	}
	srv := c.Server(ServerID(victim))
	named := 0
	for i := 0; i < objects; i++ {
		m := objectRecord(t, c.NewClient(), "rejoin", i)
		key := types.ObjectID{Var: "rejoin", Box: churnBox(i)}.Key()
		if m.Primary == victim && m.State != types.StateEncoded {
			named++
			if !srv.HasObject(key) {
				t.Fatalf("object %d: rejoined primary %d lacks its copy: %+v", i, victim, m)
			}
		}
		if slices.Contains(m.Replicas, victim) {
			named++
			if !srv.HasReplica(key) {
				t.Fatalf("object %d: rejoined server %d lacks its replica: %+v", i, victim, m)
			}
		}
		if m.Layout != nil {
			for _, mb := range m.Layout.Members {
				if mb.Server == victim {
					named++
					if !srv.HasShard(m.Stripe, mb.Index) {
						t.Fatalf("object %d: rejoined server %d lacks shard %d of stripe %v", i, victim, mb.Index, m.Stripe)
					}
				}
			}
		}
	}
	if named == 0 {
		t.Fatalf("no record names server %d: the test restores nothing", victim)
	}
}

// TestElasticPartitionRefutationNotEviction drives the seeded
// false-suspicion scenario: a healthy server cut off by an asymmetric
// partition is suspected, but once the partition heals inside the
// refutation window it bumps its incarnation and stays a member — counted
// as a false positive, not a death.
func TestElasticPartitionRefutationNotEviction(t *testing.T) {
	cfg := elasticConfig(8)
	cfg.Membership.SuspicionTicks = 12
	cfg.FaultPlan = &failure.FaultPlan{} // quiet injector: manual partitions only
	c := elasticCluster(t, cfg)
	ring := c.Ring()

	const victim = types.ServerID(5)
	var rest []types.ServerID
	for i := types.ServerID(0); i < 8; i++ {
		if i != victim {
			rest = append(rest, i)
		}
	}
	heal := c.Faults().Partition([]types.ServerID{victim}, rest)

	suspected := func() bool {
		for _, id := range rest {
			a := c.MembershipAgent(ServerID(id))
			if a == nil {
				continue
			}
			if st, ok := a.State(victim); ok && st == membership.StateSuspect {
				return true
			}
		}
		return false
	}
	if !tickUntil(c, 60, suspected) {
		t.Fatalf("partitioned server was never suspected")
	}
	heal()

	converged := func() bool {
		for i := types.ServerID(0); i < 8; i++ {
			a := c.MembershipAgent(ServerID(i))
			if a == nil {
				return false
			}
			if st, _ := a.State(victim); st != membership.StateAlive {
				return false
			}
		}
		return true
	}
	if !tickUntil(c, 120, converged) {
		t.Fatalf("fleet never converged back to alive for the partitioned server")
	}
	if !ring.Contains(victim) {
		t.Fatalf("healthy-but-partitioned server evicted from the ring")
	}
	// The refutation bumped the victim's incarnation and was tallied.
	if a := c.MembershipAgent(ServerID(victim)); a == nil || a.Incarnation() == 0 {
		t.Fatalf("victim's incarnation never bumped (no refutation)")
	}
	ms := c.FabricStatus().Membership
	if ms.Refutations == 0 || ms.FalsePositives == 0 {
		t.Fatalf("refutation counters empty: %+v", ms)
	}
	// And no death event was ever published for the victim.
	for drained := false; !drained; {
		select {
		case ev := <-c.MemberEvents():
			if ev.Kind == MemberDied && ev.ID == victim {
				t.Fatalf("MemberDied published for a healthy partitioned server")
			}
		default:
			drained = true
		}
	}
}

// TestElasticEvictionIsNotPermanent holds the partition past the suspicion
// deadline so the victim genuinely gets evicted — then heals and checks the
// incarnation-bump rejoin path re-admits it without operator action.
func TestElasticEvictionIsNotPermanent(t *testing.T) {
	cfg := elasticConfig(8)
	cfg.FaultPlan = &failure.FaultPlan{}
	c := elasticCluster(t, cfg)
	ring := c.Ring()

	const victim = types.ServerID(2)
	var rest []types.ServerID
	for i := types.ServerID(0); i < 8; i++ {
		if i != victim {
			rest = append(rest, i)
		}
	}
	heal := c.Faults().Partition([]types.ServerID{victim}, rest)
	if !tickUntil(c, 300, func() bool { return !ring.Contains(victim) }) {
		t.Fatalf("sustained partition never led to eviction")
	}
	heal()
	if !tickUntil(c, 300, func() bool { return ring.Contains(victim) }) {
		t.Fatalf("evicted-but-healthy server never re-admitted after heal")
	}
}

// TestElasticMonitorRecoversGossipDeath runs the monitor on an elastic
// fleet: whether its own heartbeat or gossip's death verdict marks the
// killed server down first, the monitor reads it from the one liveness
// table, surfaces the failure and drives auto-recovery.
func TestElasticMonitorRecoversGossipDeath(t *testing.T) {
	cfg := elasticConfig(8)
	c := elasticCluster(t, cfg)
	cl := c.NewClient()
	ctx := context.Background()

	const objects = 8
	committed := seedChurnObjects(t, c, cl, "monel", objects)

	m := c.StartMonitor(MonitorConfig{Interval: 10 * time.Millisecond, AutoRecover: true})
	defer m.Stop()

	c.Kill(3)
	waitUntil(t, 5*time.Second, "monitor to surface the failure", func() bool {
		c.TickMembership(ctx)
		for _, ev := range m.Events() {
			if ev.Kind == EventFailureDetected && ev.Server == 3 {
				return true
			}
		}
		return false
	})
	// Auto-recovery replaces the server; the replacement re-enters the ring.
	if !tickUntil(c, 2000, func() bool { return c.Ring().Contains(3) && c.Alive(3) }) {
		t.Fatalf("auto-recovery never restored server 3")
	}
	verifyChurnObjects(t, cl, "monel", committed, nil, "post-auto-recovery")
}

// TestGossipDeathMarksPeerDown: gossip's death verdict is first-hand news
// for the fabric's PeerHealth table, so the evicted member is marked down
// before any client has paid a retry budget to learn it, and a replacement
// under its ID is re-admitted.
func TestGossipDeathMarksPeerDown(t *testing.T) {
	c := elasticCluster(t, elasticConfig(8))
	ring := c.Ring()
	c.Kill(3)
	if got := c.FabricStatus().Transport.PeersDown; got != 0 {
		t.Fatalf("PeersDown = %d right after Kill, want 0", got)
	}
	if !tickUntil(c, 200, func() bool { return !ring.Contains(3) }) {
		t.Fatal("gossip never evicted killed server 3 from the ring")
	}
	st := c.FabricStatus()
	if st.Transport.PeersDown != 1 || !c.health.Down(3) {
		t.Fatalf("after eviction: PeersDown = %d, Down(3) = %v; want 1 and true", st.Transport.PeersDown, c.health.Down(3))
	}
	if st.Retries != 0 {
		t.Fatalf("%d retries spent: the mark must come from gossip, not a send", st.Retries)
	}
	if _, err := c.Replace(3); err != nil {
		t.Fatal(err)
	}
	if got := c.FabricStatus().Transport.PeersDown; got != 0 || c.health.Down(3) {
		t.Fatalf("after Replace: PeersDown = %d, Down(3) = %v; want 0 and false", got, c.health.Down(3))
	}
}

// TestReplacementOutrunningGossipStaysInRing: the monitor can replace a
// killed server while gossip still only suspects it. The replacement starts
// above the killed incarnation and announces itself, so a death verdict on
// the killed incarnation — even one an agent emits after the replacement
// joined — neither evicts the live replacement nor marks it down, and every
// agent ends up seeing it alive.
func TestReplacementOutrunningGossipStaysInRing(t *testing.T) {
	c := elasticCluster(t, elasticConfig(8))
	ring := c.Ring()
	c.Kill(3)
	suspected := func() bool {
		for i := ServerID(0); i < 8; i++ {
			if a := c.MembershipAgent(i); a != nil {
				if st, _ := a.State(3); st == membership.StateSuspect {
					return true
				}
			}
		}
		return false
	}
	if !tickUntil(c, 200, suspected) || !ring.Contains(3) {
		t.Fatal("gossip never suspected killed server 3 while it was still in the ring")
	}
	if _, err := c.Replace(3); err != nil {
		t.Fatal(err)
	}
	c.onMembershipEvent(MembershipEvent{Kind: MemberDied, ID: 3, Incarnation: 0}) // the late verdict
	for i := 0; i < 100; i++ {
		if !ring.Contains(3) || c.health.Down(3) {
			t.Fatalf("tick %d: live replacement evicted (in ring %v, marked down %v)", i, ring.Contains(3), c.health.Down(3))
		}
		c.TickMembership(context.Background())
	}
	for i := ServerID(0); i < 8; i++ {
		if st, _ := c.MembershipAgent(i).State(3); st != membership.StateAlive {
			t.Fatalf("agent %d sees the replacement as %v", i, st)
		}
	}
}

// TestRebalanceRestoresLostReplica: a replica holder leaves the fleet, and a
// rebalance pass restores its copies on live servers the records then name.
// The primary can die afterwards and every object still reads back.
func TestRebalanceRestoresLostReplica(t *testing.T) {
	cfg := elasticConfig(8)
	cfg.Mode = PolicyReplicate
	c := elasticCluster(t, cfg)
	cl := c.NewClient()
	ctx := context.Background()

	const objects = 16
	committed := make(map[int][]byte, objects)
	for i := 0; i < objects; i++ {
		data := regionData(t, churnBox(i), 8, int64(9000+i))
		if err := cl.Put(ctx, "lostrep", churnBox(i), 1, data); err != nil {
			t.Fatalf("put %d: %v", i, err)
		}
		committed[i] = data
	}
	record := func() types.ObjectMeta {
		t.Helper()
		metas, err := cl.Query(ctx, "lostrep", churnBox(0))
		if err != nil || len(metas) != 1 {
			t.Fatalf("query: %v (%d metas)", err, len(metas))
		}
		return metas[0]
	}
	before := record()
	if len(before.Replicas) == 0 {
		t.Fatalf("object 0 has no replica: %+v", before)
	}
	gone := before.Replicas[0]
	c.Leave(ServerID(gone))

	rep, err := c.Rebalance(ctx)
	if err != nil {
		t.Fatalf("rebalance: %v", err)
	}
	if rep.Errors != 0 || rep.Repaired < 1 {
		t.Fatalf("rebalance after a replica holder left: %+v", rep)
	}
	after := record()
	if after.Primary != before.Primary {
		t.Fatalf("primary moved %d -> %d: the leaver was only a replica holder", before.Primary, after.Primary)
	}
	fresh := false
	for _, r := range after.Replicas {
		if r == gone {
			t.Fatalf("record still names departed server %d: %v", gone, after.Replicas)
		}
		if !slices.Contains(before.Replicas, r) && c.Ring().Contains(r) && c.Alive(ServerID(r)) {
			fresh = true
		}
	}
	if !fresh {
		t.Fatalf("replicas %v -> %v: no live new holder", before.Replicas, after.Replicas)
	}

	c.Kill(ServerID(after.Primary))
	verifyChurnObjects(t, cl, "lostrep", committed, nil, "primary dead after rebalance")
}

// TestClientPingLeavesGossipQueued: a ping from outside the fleet (a client,
// the monitor) gets a plain ack. It neither carries nor spends the gossip a
// member's agent still has to piggyback on its probes.
func TestClientPingLeavesGossipQueued(t *testing.T) {
	c := elasticCluster(t, elasticConfig(8))
	if _, err := c.JoinNew(); err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	for i := 0; i < 40; i++ {
		resp, err := c.net.Send(ctx, -1, 0, &transport.Message{Kind: transport.MsgPing})
		if err != nil || resp.Kind != transport.MsgOK {
			t.Fatalf("ping %d: %v %+v", i, err, resp)
		}
		if len(resp.Data) != 0 {
			t.Fatalf("ping %d from outside the fleet came back carrying %d bytes of gossip", i, len(resp.Data))
		}
	}
	if c.MembershipAgent(0).Piggyback() == nil {
		t.Fatal("client pings drained server 0's gossip queue")
	}
}

// TestMonitorProbeDeadlineIsInterval: in static mode each heartbeat RPC may
// take one sweep interval, and a server killed between sweeps is declared
// dead by the first sweep that finds it unreachable.
func TestMonitorProbeDeadlineIsInterval(t *testing.T) {
	c := testCluster(t, PolicyReplicate)
	m := c.StartMonitor(MonitorConfig{Interval: 10 * time.Millisecond})
	defer m.Stop()
	c.Kill(5)
	waitForEvent(t, m, EventFailureDetected, 5, 3*time.Second)
}
