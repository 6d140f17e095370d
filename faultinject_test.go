package corec

import (
	"bytes"
	"context"
	"errors"
	"math/rand"
	"strings"
	"sync"
	"testing"
	"time"

	"corec/internal/failure"
	"corec/internal/geometry"
	"corec/internal/recovery"
	"corec/internal/transport"
	"corec/internal/types"
)

// TestChaosWithNetworkFaults is the chaos invariant under a hostile fabric:
// the same kill/recover workload as TestChaosSustainedFailures, but every
// message additionally risks a 1% drop, 0.5% CRC corruption, 0.5% duplicate
// delivery and up to 5ms of jitter, with two transient partitions scripted
// between singleton sets in different replication groups. The retry layer
// must absorb all of it: no read may fail and no payload may be wrong.
func TestChaosWithNetworkFaults(t *testing.T) {
	if testing.Short() {
		t.Skip("chaos test skipped in -short mode")
	}
	cfg := DefaultConfig(8)
	cfg.Mode = PolicyCoREC
	cfg.MTBF = 500 * time.Millisecond
	cfg.FaultPlan = &failure.FaultPlan{
		Seed: 7,
		Links: []failure.LinkFault{{
			DropProb:    0.01,
			CorruptProb: 0.005,
			DupProb:     0.005,
			Jitter:      5 * time.Millisecond,
		}},
		// Servers 2 and 6 sit in different replication groups ({2,3} vs
		// {6,7}) and different coding groups, so every replica push and
		// 2-member directory group keeps a reachable path while the
		// partition is up. Directory writes cut off from one mirror land
		// single-homed and must be re-mirrored by the hinted-handoff flush
		// at the next step boundary — a kill of the surviving mirror later
		// in the run is exactly what this test punishes. Windows avoid the
		// recovery steps (4, 7, 10, 13).
		Partitions: []failure.Partition{
			{A: []ServerID{2}, B: []ServerID{6}, FromStep: 5, ToStep: 6},
			{A: []ServerID{1}, B: []ServerID{5}, FromStep: 8, ToStep: 9},
		},
	}
	cluster, err := NewCluster(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer cluster.Close()

	const objects = 24
	ctx := context.Background()
	client := cluster.NewClient()

	var mu sync.Mutex
	committed := make(map[int][]byte)
	boxFor := func(i int) Box {
		return Box3D(int64(i)*8, 0, 0, int64(i)*8+8, 8, 8)
	}
	for i := 0; i < objects; i++ {
		data := regionData(t, boxFor(i), 8, int64(4000+i))
		if err := client.Put(ctx, "fchaos", boxFor(i), 1, data); err != nil {
			t.Fatal(err)
		}
		committed[i] = data
	}

	rng := rand.New(rand.NewSource(43))
	var dead types.ServerID = types.InvalidServer
	for ts := Version(2); ts <= 14; ts++ {
		if dead == types.InvalidServer && ts%3 == 2 {
			dead = types.ServerID(rng.Intn(cluster.NumServers()))
			cluster.Kill(dead)
		} else if dead != types.InvalidServer && ts%3 == 1 {
			srv, err := cluster.Replace(dead)
			if err != nil {
				t.Fatalf("ts %d: replace: %v", ts, err)
			}
			if _, err := srv.RunRecovery(ctx, recovery.Aggressive); err != nil {
				t.Fatalf("ts %d: recovery: %v", ts, err)
			}
			dead = types.InvalidServer
		}

		for _, i := range rng.Perm(objects)[:6] {
			b := boxFor(i)
			primary := cluster.place.Primary(types.ObjectID{Var: "fchaos", Box: b})
			if primary == dead {
				continue
			}
			data := regionData(t, b, 8, int64(ts)*1000+int64(i))
			if err := client.Put(ctx, "fchaos", b, ts, data); err != nil {
				t.Fatalf("ts %d obj %d: put: %v", ts, i, err)
			}
			mu.Lock()
			committed[i] = data
			mu.Unlock()
		}

		var wg sync.WaitGroup
		errCh := make(chan error, objects)
		for i := 0; i < objects; i++ {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				got, err := client.Get(ctx, "fchaos", boxFor(i), ts)
				if err != nil {
					errCh <- err
					return
				}
				mu.Lock()
				want := committed[i]
				mu.Unlock()
				if !bytes.Equal(got, want) {
					errCh <- errMismatch(i, int(ts))
				}
			}(i)
		}
		wg.Wait()
		close(errCh)
		for err := range errCh {
			t.Fatalf("ts %d: %v", ts, err)
		}
		cluster.EndTimeStep(ts)
	}

	// The run is only meaningful if the injector actually fired and the
	// retry layer actually worked for a living.
	fs := cluster.FabricStatus()
	if fs.Injected.Drops == 0 {
		t.Fatalf("fault injector dropped nothing: %+v", fs.Injected)
	}
	if fs.Retries == 0 {
		t.Fatalf("no retries recorded under a 1%% drop plan: %+v", fs)
	}
	rep := cluster.StorageReport()
	if rep.Efficiency < 0.55 {
		t.Fatalf("storage efficiency collapsed under network faults: %+v", rep)
	}
}

// TestChaosGuardRetriesDisabled is the control experiment for the chaos
// test above: the same class of fault plan with the retry layer disabled
// must visibly break the workload. If this guard ever stops failing
// operations, the fault injector has regressed and the chaos test's pass
// is meaningless.
func TestChaosGuardRetriesDisabled(t *testing.T) {
	cfg := DefaultConfig(8)
	cfg.Mode = PolicyReplicate
	cfg.Retry = &transport.RetryPolicy{MaxAttempts: 1}
	cfg.FaultPlan = &failure.FaultPlan{
		Seed:  11,
		Links: []failure.LinkFault{{DropProb: 0.10}},
	}
	cluster, err := NewCluster(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer cluster.Close()
	client := cluster.NewClient()
	ctx := context.Background()

	// Without retries an operation still survives most drops through the
	// redundancy built into the paths themselves (write failover, mirrored
	// directory groups, replica reads): what fails is a put whose primary
	// send and failover send both drop, about one pair in a hundred here. A
	// get asks one directory group, not the fleet, so the message count no
	// longer decides which pair a seed fails; enough pairs do.
	const pairs = 1000
	failures := 0
	for i := 0; i < pairs; i++ {
		x, y := int64(i%32)*8, int64(i/32)*8
		b := Box3D(x, y, 0, x+8, y+8, 8)
		data := regionData(t, b, 8, int64(5000+i))
		if err := client.Put(ctx, "guard", b, 1, data); err != nil {
			failures++
			continue
		}
		if _, err := client.Get(ctx, "guard", b, 1); err != nil {
			failures++
		}
	}
	if failures == 0 {
		t.Fatalf("%d put/get pairs all succeeded with retries disabled under a 10%% drop plan; the injector or the guard is broken", pairs)
	}
	if fs := cluster.FabricStatus(); fs.Injected.Drops == 0 {
		t.Fatalf("injector dropped nothing: %+v", fs)
	}
}

// TestServerSendsCountCorruptFrames: a server's own sends are counted like a
// client's. Every frame a server sends is corrupted, so a replicate-mode put
// reaches its primary intact but the replica and directory pushes it fans out
// fail their checks — and those failures must show up as CorruptFrames.
func TestServerSendsCountCorruptFrames(t *testing.T) {
	cfg := DefaultConfig(8)
	cfg.Mode = PolicyReplicate
	servers := make([]types.ServerID, cfg.Servers)
	for i := range servers {
		servers[i] = types.ServerID(i)
	}
	cfg.FaultPlan = &failure.FaultPlan{
		Seed:  3,
		Links: []failure.LinkFault{{From: servers, CorruptProb: 1}},
	}
	c, err := NewCluster(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	b := Box3D(0, 0, 0, 8, 8, 8)
	// The put itself may fail: what it reports is not the point here.
	_ = c.NewClient().Put(context.Background(), "v", b, 1, regionData(t, b, 8, 1))
	fs := c.FabricStatus()
	if fs.Injected.Corrupts == 0 {
		t.Fatalf("injector corrupted nothing: %+v", fs.Injected)
	}
	if fs.CorruptFrames == 0 {
		t.Fatalf("%d server frames corrupted, CorruptFrames = 0", fs.Injected.Corrupts)
	}
}

// TestDroppedStepEndNamesTheMember: a step boundary is a message, so a
// fabric fault can keep a live server from it. The driver skips a member it
// cannot reach (a dead one) but reports a member whose step end was lost,
// by name.
func TestDroppedStepEndNamesTheMember(t *testing.T) {
	cfg := DefaultConfig(8)
	cfg.FaultPlan = &failure.FaultPlan{Seed: 1, Links: []failure.LinkFault{{To: []ServerID{3}, DropProb: 1}}}
	c, err := NewCluster(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	c.Kill(5)
	_, _, err = c.NewClient().EndTimeStepAll(context.Background(), 1)
	if err == nil || !errors.Is(err, transport.ErrDropped) || !strings.Contains(err.Error(), "server 3") ||
		strings.Contains(err.Error(), "server 5") {
		t.Fatalf("EndTimeStepAll = %v; want the dropped step end on server 3 and nothing of dead server 5", err)
	}
}

// TestMirrorHintRepairsDegradedDirectoryGroup pins the hinted-handoff
// mechanism: a partition cuts the writing primary off from one of the two
// directory mirrors, so the metadata write lands single-homed (legal — the
// group write succeeds on a quorum of one). The flush at the next step
// boundary must re-mirror the record, because afterwards the test kills the
// only server that originally held it and the object must stay readable.
// Without the repair this is exactly the metadata-loss sequence a transient
// partition plus one later failure produces.
func TestMirrorHintRepairsDegradedDirectoryGroup(t *testing.T) {
	cfg := DefaultConfig(8)
	cfg.Mode = PolicyReplicate
	cfg.FaultPlan = &failure.FaultPlan{} // quiet injector: manual partitions only
	c, err := NewCluster(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	client := c.NewClient()
	ctx := context.Background()

	// Pick an object whose directory group is disjoint from its replication
	// pair, so cutting/killing directory mirrors never touches the data path.
	var (
		box     Box
		id      types.ObjectID
		group   []types.ServerID
		primary types.ServerID
	)
	found := false
	for i := 0; i < 64 && !found; i++ {
		// One box per directory cell: the cell decides the group.
		box = Box3D(int64(i%4)*64, int64(i/4%4)*64, int64(i/16)*64, int64(i%4)*64+8, int64(i/4%4)*64+8, int64(i/16)*64+8)
		id = types.ObjectID{Var: "hint", Box: box}
		primary = c.place.Primary(id)
		group = c.dir.Servers(id.Var, id.Box)
		found = len(group) == 2
		for _, g := range group {
			if g == primary || g == primary-primary%2 || g == primary-primary%2+1 {
				found = false
			}
		}
	}
	if !found {
		t.Fatal("no candidate object with directory group disjoint from its replication pair")
	}
	holder, mirror := group[0], group[1]

	countMetas := func(sid types.ServerID) int {
		srv := c.Server(ServerID(sid))
		if srv == nil {
			return -1
		}
		resp := srv.Handle(ctx, &transport.Message{Kind: transport.MsgMetaQuery, Var: "hint", Box: box})
		return len(resp.Metas)
	}

	heal := c.Faults().Partition([]types.ServerID{primary}, []types.ServerID{mirror})
	data := regionData(t, box, 8, 64)
	if err := client.Put(ctx, "hint", box, 1, data); err != nil {
		t.Fatalf("put with one directory mirror partitioned: %v", err)
	}
	if n := countMetas(holder); n != 1 {
		t.Fatalf("reachable mirror %d holds %d metas, want 1", holder, n)
	}
	if n := countMetas(mirror); n != 0 {
		t.Fatalf("partitioned mirror %d holds %d metas, want 0 (degraded write)", mirror, n)
	}

	heal()
	c.EndTimeStep(1) // step boundary runs the hinted-handoff flush
	if n := countMetas(mirror); n != 1 {
		t.Fatalf("mirror %d still missing the record after flush (%d metas)", mirror, n)
	}
	if fs := c.FabricStatus(); fs.MirrorRepairs < 1 {
		t.Fatalf("MirrorRepairs = %d after a degraded group write healed, want >= 1", fs.MirrorRepairs)
	}

	// The record now survives losing the mirror that took the original write.
	c.Kill(holder)
	got, err := client.Get(ctx, "hint", box, 1)
	if err != nil {
		t.Fatalf("get after killing the originally-reachable mirror: %v", err)
	}
	if !bytes.Equal(got, data) {
		t.Fatal("data corrupted across mirror repair")
	}
}

// TestPutFailoverOnDeadPrimary kills an object's placement primary before
// the first write and verifies the put succeeds anyway by failing over to
// the replication-group successor: the directory must name the successor
// as primary, and the data must read back intact. Recovery alone, with no
// monitor, then restores the dead server's copy: once the replacement's
// recovery ran, the failover primary can die too and the data survives.
func TestPutFailoverOnDeadPrimary(t *testing.T) {
	c := testCluster(t, PolicyReplicate)
	client := c.NewClient()
	ctx := context.Background()

	box := Box3D(0, 0, 0, 8, 8, 8)
	primary := c.place.Primary(types.ObjectID{Var: "fo", Box: box})
	c.Kill(primary)

	data := regionData(t, box, 8, 61)
	if err := client.Put(ctx, "fo", box, 1, data); err != nil {
		t.Fatalf("put with dead primary did not fail over: %v", err)
	}

	if fs := c.FabricStatus(); fs.Failovers < 1 {
		t.Fatalf("FailoverCount = %d, want >= 1", fs.Failovers)
	}
	metas, err := client.Query(ctx, "fo", box)
	if err != nil || len(metas) != 1 {
		t.Fatalf("query: %v (%d metas)", err, len(metas))
	}
	if metas[0].Primary == primary {
		t.Fatalf("directory still names dead server %d as primary", primary)
	}
	got, err := client.Get(ctx, "fo", box, 1)
	if err != nil {
		t.Fatalf("get after failover: %v", err)
	}
	if !bytes.Equal(got, data) {
		t.Fatal("failover write corrupted data")
	}

	srv, err := c.Replace(primary)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := srv.RunRecovery(ctx, recovery.Aggressive); err != nil {
		t.Fatalf("recovery of server %d: %v", primary, err)
	}
	c.Kill(metas[0].Primary)
	got, err = client.Get(ctx, "fo", box, 1)
	if err != nil {
		t.Fatalf("get with the failover primary %d dead after recovery: %v", metas[0].Primary, err)
	}
	if !bytes.Equal(got, data) {
		t.Fatal("recovered copy of the failed-over write is wrong")
	}
}

// TestMonitorRecoversFailedOverWrite: a write fails over while its placed
// primary is down, and the monitor auto-recovers that server. Once its
// recovery finished, the failover primary can die and the data survives.
func TestMonitorRecoversFailedOverWrite(t *testing.T) {
	cfg := DefaultConfig(8)
	cfg.Mode = PolicyReplicate
	cfg.MTBF = 400 * time.Millisecond // lazy repair deadline 100ms: fast test
	c, err := NewCluster(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(c.Close)
	client := c.NewClient()
	ctx := context.Background()

	box := Box3D(0, 0, 0, 8, 8, 8)
	primary := c.place.Primary(types.ObjectID{Var: "rec", Box: box})
	c.Kill(primary)
	data := regionData(t, box, 8, 62)
	if err := client.Put(ctx, "rec", box, 1, data); err != nil {
		t.Fatalf("put with dead primary: %v", err)
	}
	metas, err := client.Query(ctx, "rec", box)
	if err != nil || len(metas) != 1 || metas[0].Primary == primary {
		t.Fatalf("query after failover: %v %+v", err, metas)
	}

	m := c.StartMonitor(MonitorConfig{Interval: 10 * time.Millisecond, AutoRecover: true})
	defer m.Stop()
	waitForEvent(t, m, EventRecoveryFinished, primary, 5*time.Second)
	m.Stop() // the failover primary's death below is not the monitor's to repair

	c.Kill(metas[0].Primary)
	got, err := client.Get(ctx, "rec", box, 1)
	if err != nil || !bytes.Equal(got, data) {
		t.Fatalf("data lost with the failover primary %d dead after recovery: %v", metas[0].Primary, err)
	}
}

// TestPutAggregatesPieceErrors kills a whole replication group and issues a
// multi-piece put straddling it: every piece whose primary (and therefore
// its failover successor) died must be reported in the joined error, not
// just the first failure.
func TestPutAggregatesPieceErrors(t *testing.T) {
	cfg := DefaultConfig(4)
	cfg.Mode = PolicyReplicate
	cfg.MaxObjectBytes = 4096 // elem 8 -> 512 cells per piece
	cluster, err := NewCluster(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer cluster.Close()
	client := cluster.NewClient()
	ctx := context.Background()

	box := Box3D(0, 0, 0, 16, 16, 16) // 4096 cells -> 8 pieces
	pieces, err := geometry.FitPartition(box, 512)
	if err != nil {
		t.Fatal(err)
	}
	if len(pieces) < 4 {
		t.Fatalf("partition produced %d pieces, want >= 4", len(pieces))
	}
	// Pick the replication group (ring pair {0,1} or {2,3}) holding the
	// primaries of the most pieces; killing both members makes each of
	// those pieces fail even through failover.
	perGroup := map[ServerID][]types.ObjectID{}
	for _, p := range pieces {
		id := types.ObjectID{Var: "agg", Box: p}
		g := c0(cluster.place.Primary(id))
		perGroup[g] = append(perGroup[g], id)
	}
	var victim ServerID
	for g, ids := range perGroup {
		if len(ids) > len(perGroup[victim]) {
			victim = g
		}
	}
	doomed := perGroup[victim]
	if len(doomed) < 2 {
		t.Fatalf("placement put only %d pieces on group {%d,%d}; cannot exercise multi-error aggregation", len(doomed), victim, victim+1)
	}
	cluster.Kill(victim)
	cluster.Kill(victim + 1)

	data := regionData(t, box, 8, 63)
	putErr := client.Put(ctx, "agg", box, 1, data)
	if putErr == nil {
		t.Fatal("multi-piece put succeeded with a whole replication group dead")
	}
	joined, ok := putErr.(interface{ Unwrap() []error })
	if !ok {
		t.Fatalf("put error is not an errors.Join aggregate: %T %v", putErr, putErr)
	}
	if n := len(joined.Unwrap()); n < len(doomed) {
		t.Fatalf("aggregate holds %d errors, want >= %d (one per doomed piece)", n, len(doomed))
	}
	for _, id := range doomed {
		if !strings.Contains(putErr.Error(), id.String()) {
			t.Fatalf("doomed piece %s missing from aggregated error:\n%v", id, putErr)
		}
	}
	if !errors.Is(putErr, transport.ErrUnreachable) {
		t.Fatalf("aggregate does not expose the underlying unreachable error: %v", putErr)
	}
}

// c0 maps a server to the first member of its replication-group pair
// (NLevel=1 ring pairs {0,1},{2,3},...).
func c0(id ServerID) ServerID { return id - id%2 }

// stochAdapter exposes the cluster to the failure injector's victim
// picker; recovery is the monitor's job here, so Recover is a no-op.
type stochAdapter struct{ c *Cluster }

func (a stochAdapter) Kill(id types.ServerID)       { a.c.Kill(id) }
func (a stochAdapter) Recover(id types.ServerID)    {}
func (a stochAdapter) Alive(id types.ServerID) bool { return a.c.Alive(id) }

// TestMonitorAutoRecoverStochastic drives the cluster with stochastic
// fail-stop kills drawn from the exponential MTBF model while the monitor
// auto-recovers, then checks that every killed server was detected and
// recovered (events pair up), the fleet is whole, and no data was lost.
func TestMonitorAutoRecoverStochastic(t *testing.T) {
	if testing.Short() {
		t.Skip("stochastic recovery test skipped in -short mode")
	}
	cfg := DefaultConfig(8)
	cfg.Mode = PolicyCoREC
	cfg.MTBF = 400 * time.Millisecond
	c, err := NewCluster(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	client := c.NewClient()
	ctx := context.Background()

	const objects = 8
	boxFor := func(i int) Box {
		return Box3D(int64(i)*8, 0, 0, int64(i)*8+8, 8, 8)
	}
	payloads := make(map[int][]byte)
	for i := 0; i < objects; i++ {
		data := regionData(t, boxFor(i), 8, int64(6000+i))
		if err := client.Put(ctx, "stoch", boxFor(i), 1, data); err != nil {
			t.Fatal(err)
		}
		payloads[i] = data
	}

	m := c.StartMonitor(MonitorConfig{Interval: 10 * time.Millisecond, AutoRecover: true})
	defer m.Stop()

	exp := failure.NewExponential(60*time.Millisecond, 31)
	adapter := stochAdapter{c}
	var killed []ServerID
	for round := 0; round < 3; round++ {
		time.Sleep(exp.Next())
		victim := exp.PickVictim(adapter, c.NumServers())
		if victim == types.InvalidServer {
			t.Fatal("no live victim available")
		}
		c.Kill(victim)
		killed = append(killed, victim)
		// Stay inside the single-failure tolerance envelope: wait for the
		// monitor to finish this recovery before the next kill.
		waitForEvent(t, m, EventFailureDetected, victim, 5*time.Second)
		waitForEvent(t, m, EventRecoveryFinished, victim, 10*time.Second)
	}

	// Every kill produced a detect/recover event pair and left the server
	// alive again.
	events := m.Events()
	for _, id := range killed {
		detected, finished := 0, 0
		for _, ev := range events {
			if ev.Server != id {
				continue
			}
			switch ev.Kind {
			case EventFailureDetected:
				detected++
			case EventRecoveryFinished:
				finished++
			}
		}
		if detected == 0 || detected != finished {
			t.Fatalf("server %d: %d failures detected vs %d recoveries finished; events: %+v", id, detected, finished, events)
		}
	}
	for i := 0; i < c.NumServers(); i++ {
		if !c.Alive(ServerID(i)) {
			t.Fatalf("server %d dead after auto recovery rounds", i)
		}
	}
	for i := 0; i < objects; i++ {
		got, err := client.Get(ctx, "stoch", boxFor(i), 1)
		if err != nil {
			t.Fatalf("object %d unreadable after stochastic churn: %v", i, err)
		}
		if !bytes.Equal(got, payloads[i]) {
			t.Fatalf("object %d corrupted after stochastic churn", i)
		}
	}
}
