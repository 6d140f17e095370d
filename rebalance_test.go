package corec

import (
	"bytes"
	"context"
	"slices"
	"sync"
	"testing"

	"corec/internal/failure"
	"corec/internal/transport"
	"corec/internal/types"
)

// erasureFleet stages 16 4-KiB objects on an 8-server elastic fleet that
// erasure-codes every write, RS(3+1) over the fleet's 4 cabinets.
func erasureFleet(t *testing.T, name string) (*Cluster, *Client, map[int][]byte) {
	t.Helper()
	c := elasticCluster(t, erasureConfig())
	cl, committed := stageObjects(t, c, name, 16)
	return c, cl, committed
}

func erasureConfig() Config {
	cfg := elasticConfig(8)
	cfg.Mode = PolicyErasure
	return cfg
}

// stageObjects puts n 4-KiB objects at version 1 through a new client.
func stageObjects(t *testing.T, c *Cluster, name string, n int) (*Client, map[int][]byte) {
	t.Helper()
	cl := c.NewClient()
	committed := make(map[int][]byte, n)
	for i := 0; i < n; i++ {
		data := regionData(t, churnBox(i), 8, int64(3000+i))
		if err := cl.Put(context.Background(), name, churnBox(i), 1, data); err != nil {
			t.Fatalf("put %d: %v", i, err)
		}
		committed[i] = data
	}
	return cl, committed
}

// objectRecord returns object i's directory record, as a client's query
// answers it.
func objectRecord(t *testing.T, cl *Client, name string, i int) types.ObjectMeta {
	t.Helper()
	metas, err := cl.Query(context.Background(), name, churnBox(i))
	if err != nil || len(metas) != 1 {
		t.Fatalf("query object %d: %v (%d records)", i, err, len(metas))
	}
	return metas[0]
}

// checkRebalanced asserts what a rebalance pass owes every object: the pass
// reported no error, the object reads back through a client that has seen it
// and one that has not, its record names only ring members, and its stripe
// spans as many cabinets as it has members, each holding its shard. Then
// object 0's primary is killed, and every object must still read back.
func checkRebalanced(t *testing.T, c *Cluster, cl *Client, name string, committed map[int][]byte, rep RebalanceReport) {
	t.Helper()
	if rep.Errors != 0 {
		t.Fatalf("rebalance errors: %+v", rep)
	}
	verifyChurnObjects(t, cl, name, committed, nil, "after rebalance")
	fresh := c.NewClient()
	verifyChurnObjects(t, fresh, name, committed, nil, "after rebalance, fresh client")
	ring := c.Ring()
	for i := range committed {
		m := objectRecord(t, fresh, name, i)
		named := m.Locations()
		if m.State == types.StateEncoded {
			if m.Layout == nil {
				t.Fatalf("object %d: encoded record carries no layout", i)
			}
			cabinets := make(map[int]bool)
			for _, mb := range m.Layout.Members {
				named = append(named, mb.Server)
				d, _ := ring.Domain(mb.Server)
				cabinets[d] = true
				if srv := c.Server(ServerID(mb.Server)); srv == nil || !srv.HasShard(m.Stripe, mb.Index) {
					t.Fatalf("object %d: server %d lacks shard %d of stripe %v", i, mb.Server, mb.Index, m.Stripe)
				}
			}
			if len(cabinets) != len(m.Layout.Members) || len(cabinets) != maxCabinets {
				t.Fatalf("object %d: stripe %v spans %d cabinets, want %d", i, m.Layout.Members, len(cabinets), maxCabinets)
			}
		}
		for _, s := range named {
			if !ring.Contains(s) {
				t.Fatalf("object %d: record names server %d, which left the ring: %+v", i, s, m)
			}
		}
	}
	primary := objectRecord(t, fresh, name, 0).Primary
	c.Kill(ServerID(primary))
	verifyChurnObjects(t, c.NewClient(), name, committed, nil, "record's primary killed")
}

// TestRebalanceRestoresLostStripeMember: a server holding a non-primary
// shard of object 0's stripe leaves the fleet, and a rebalance pass gives
// every stripe it was in a full, cabinet-diverse set of live members again.
func TestRebalanceRestoresLostStripeMember(t *testing.T) {
	c, cl, committed := erasureFleet(t, "lostmember")
	m := objectRecord(t, cl, "lostmember", 0)
	gone := types.InvalidServer
	for _, mb := range m.Layout.Members {
		if mb.Server != m.Primary {
			gone = mb.Server
			break
		}
	}
	c.Leave(ServerID(gone))
	rep, err := c.Rebalance(context.Background())
	if err != nil {
		t.Fatalf("rebalance: %v", err)
	}
	if rep.Repaired < 1 {
		t.Fatalf("no stripe repaired after member %d left: %+v", gone, rep)
	}
	checkRebalanced(t, c, cl, "lostmember", committed, rep)
}

// TestRebalanceAfterJoinNew: a server joins, objects whose ring owner is now
// the newcomer move to it, and every object keeps a full stripe.
func TestRebalanceAfterJoinNew(t *testing.T) {
	c, cl, committed := erasureFleet(t, "joined")
	ctx := context.Background()
	if _, err := c.JoinNew(); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 4; i++ {
		c.TickMembership(ctx)
	}
	rep, err := c.Rebalance(ctx)
	if err != nil {
		t.Fatalf("rebalance: %v", err)
	}
	if rep.Moved < 1 {
		t.Fatalf("no object moved to the newcomer: %+v", rep)
	}
	checkRebalanced(t, c, cl, "joined", committed, rep)
}

// TestRebalanceDrainsEncodedPrimary: object 0's primary, which holds data
// shard 0 of its stripe, drains and leaves; its objects move and their
// stripes stay whole.
func TestRebalanceDrainsEncodedPrimary(t *testing.T) {
	c, cl, committed := erasureFleet(t, "drained")
	m := objectRecord(t, cl, "drained", 0)
	if m.State != types.StateEncoded {
		t.Fatalf("object 0 is %v, want encoded", m.State)
	}
	rep, err := c.DrainAndLeave(context.Background(), ServerID(m.Primary))
	if err != nil {
		t.Fatalf("drain: %v", err)
	}
	if rep.Moved < 1 {
		t.Fatalf("draining primary %d moved nothing: %+v", m.Primary, rep)
	}
	checkRebalanced(t, c, cl, "drained", committed, rep)
}

// TestRebalanceSwapReachesSurvivors: after a member swap, the members that kept
// their slot hold the edited layout. A shard of one of them that rots is
// restored from the stripe's live members, the swapped-in one included, by
// its own holder's scrub pass.
func TestRebalanceSwapReachesSurvivors(t *testing.T) {
	c, cl, committed := erasureFleet(t, "swap")
	ctx := context.Background()
	m := objectRecord(t, cl, "swap", 0)
	var survivor, gone types.ServerID = types.InvalidServer, types.InvalidServer
	for _, mb := range m.Layout.Members {
		switch {
		case mb.Server == m.Primary:
		case gone == types.InvalidServer:
			gone = mb.Server
		default:
			survivor = mb.Server
		}
	}
	c.Leave(ServerID(gone))
	if rep, err := c.Rebalance(ctx); err != nil || rep.Errors != 0 || rep.Repaired == 0 {
		t.Fatalf("rebalance after member %d left: %+v, %v", gone, rep, err)
	}
	// Fewer events than asked for: every shard the survivor holds rotted,
	// its shard of object 0's stripe among them.
	rotted := c.InjectBitRot(ServerID(survivor), failure.RotShards, 64)
	if len(rotted) == 0 || len(rotted) == 64 {
		t.Fatalf("rot planted in %d shards on survivor %d, want all it holds", len(rotted), survivor)
	}
	rep, err := c.ScrubNow(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Corruptions != int64(len(rotted)) || rep.Unrepaired != 0 {
		t.Fatalf("sweep over %d rotted shards on survivor %d: %+v", len(rotted), survivor, rep)
	}
	verifyChurnObjects(t, c.NewClient(), "swap", committed, nil, "after the survivor's shards were restored")
}

// passCounter observes a counted fabric during one rebalance pass: the bytes
// it carried, the payload bytes among them, and the Seq of every record
// published (a directory write that is not a restore-mode re-homing).
type passCounter struct {
	counter *countingNet
	inproc  *transport.InProc

	mu        sync.Mutex
	payload   int64
	published map[string][]uint64
}

func newPassCounter(counter *countingNet) *passCounter {
	p := &passCounter{counter: counter, inproc: counter.Network.(*transport.InProc), published: make(map[string][]uint64)}
	counter.seen = func(_, _ types.ServerID, req, resp *transport.Message) {
		p.mu.Lock()
		defer p.mu.Unlock()
		p.payload += int64(len(req.Data) + len(resp.Data))
		if req.Kind == transport.MsgMetaUpdate && !req.Flag {
			key := req.Meta.ID.Key()
			if !slices.Contains(p.published[key], req.Meta.Seq) {
				p.published[key] = append(p.published[key], req.Meta.Seq)
			}
		}
	}
	return p
}

// passCount is what one rebalance pass cost.
type passCount struct {
	rep       RebalanceReport
	sent      map[transport.Kind]int
	bytes     int64
	payload   int64
	published map[string][]uint64
}

func (p *passCounter) rebalance(t *testing.T, c *Cluster) passCount {
	t.Helper()
	p.counter.take()
	p.mu.Lock()
	p.payload, p.published = 0, make(map[string][]uint64)
	p.mu.Unlock()
	_, before := p.inproc.Stats()
	rep, err := c.Rebalance(context.Background())
	if err != nil {
		t.Fatalf("rebalance: %v", err)
	}
	_, after := p.inproc.Stats()
	sent, _ := p.counter.take()
	p.mu.Lock()
	defer p.mu.Unlock()
	return passCount{rep: rep, sent: sent, bytes: after - before, payload: p.payload, published: p.published}
}

// TestRebalanceCountsMemberLoss counts what a rebalance pass costs once a
// server holding a non-primary shard of object 0's stripe leaves: no put; k
// shard reads per stripe the server was in, whose payload is all the pass
// moves; and one publish of each edited record, under a newer Seq. An idle
// pass over the same directory first costs no shard read and no publish.
func TestRebalanceCountsMemberLoss(t *testing.T) {
	c, counter := countedCluster(t, erasureConfig())
	p := newPassCounter(counter)
	cl, committed := stageObjects(t, c, "counted", 16)

	idle := p.rebalance(t, c)
	if idle.sent[transport.MsgPut] != 0 || idle.sent[transport.MsgShardGet] != 0 || len(idle.published) != 0 || idle.rep.Skipped != len(committed) {
		t.Fatalf("idle pass: %+v, sent %v, published %v", idle.rep, idle.sent, idle.published)
	}

	m0 := objectRecord(t, cl, "counted", 0)
	gone := types.InvalidServer
	for _, mb := range m0.Layout.Members {
		if mb.Server != m0.Primary {
			gone = mb.Server
			break
		}
	}
	before := make(map[string]types.ObjectMeta)
	var affectedBytes int64
	for i := range committed {
		m := objectRecord(t, cl, "counted", i)
		if slices.ContainsFunc(m.Layout.Members, func(mb types.StripeMember) bool { return mb.Server == gone }) {
			before[m.ID.Key()] = m
			affectedBytes += int64(m.Size)
		}
	}
	c.Leave(ServerID(gone))
	loss := p.rebalance(t, c)
	k, shard := m0.Layout.K, int64(m0.Layout.ShardSize)
	t.Logf("member-loss pass: %d stripes lost server %d; fabric %.1f KB (idle pass %.1f KB), payload %d B for %d B of affected objects; sent %v",
		len(before), gone, float64(loss.bytes)/1e3, float64(idle.bytes)/1e3, loss.payload, affectedBytes, loss.sent)

	if loss.rep.Errors != 0 || loss.rep.Repaired != len(before) {
		t.Fatalf("member-loss pass repaired %d of %d stripes: %+v", loss.rep.Repaired, len(before), loss.rep)
	}
	if n := loss.sent[transport.MsgPut]; n != 0 {
		t.Fatalf("member-loss pass sent %d MsgPut, want 0", n)
	}
	if n, want := loss.sent[transport.MsgShardGet], k*len(before); n != want {
		t.Fatalf("member-loss pass sent %d MsgShardGet, want k=%d per affected stripe, %d", n, k, want)
	}
	if want := int64(k*len(before)) * shard; loss.payload != want || loss.rep.BytesMoved != shard*int64(len(before)) {
		t.Fatalf("member-loss pass moved %d payload bytes (BytesMoved %d), want %d: k shards per affected stripe",
			loss.payload, loss.rep.BytesMoved, want)
	}
	if len(loss.published) != len(before) {
		t.Fatalf("member-loss pass published %d records, want the %d edited", len(loss.published), len(before))
	}
	for key, seqs := range loss.published {
		old, ok := before[key]
		if !ok || len(seqs) != 1 || seqs[0] <= old.Seq {
			t.Fatalf("record %s published under Seq %v, want one Seq above %d", key, seqs, old.Seq)
		}
	}
	verifyChurnObjects(t, c.NewClient(), "counted", committed, nil, "after the member-loss pass")
}

// TestDirectorySweepsAskEachMemberOnce: recovery and the rebalancer read the
// directory through one sweep, a whole-shard region query (no variable, no
// box) to each member in turn. A replacement asks each live peer once, and
// asks all of them before it reads any record or piece for a repair; a
// rebalance pass asks each member once.
func TestDirectorySweepsAskEachMemberOnce(t *testing.T) {
	c, counter := countedCluster(t, erasureConfig())
	_, committed := stageObjects(t, c, "swept", 16)
	ctx := context.Background()
	victim := types.ServerID(3)

	var mu sync.Mutex
	asked := make(map[types.ServerID][]types.ServerID) // sender -> members swept, in order
	repairAt := -1                                     // sweeps the victim had sent when it first read for a repair
	counter.seen = func(from, to types.ServerID, req, _ *transport.Message) {
		mu.Lock()
		defer mu.Unlock()
		switch req.Kind {
		case transport.MsgMetaQuery:
			if req.Var == "" && !req.Box.Valid() {
				asked[from] = append(asked[from], to)
			}
		case transport.MsgMetaLookup, transport.MsgGet, transport.MsgShardGet:
			if from == victim && repairAt < 0 {
				repairAt = len(asked[victim])
			}
		}
	}
	take := func() map[types.ServerID][]types.ServerID {
		mu.Lock()
		defer mu.Unlock()
		got := asked
		asked, repairAt = make(map[types.ServerID][]types.ServerID), -1
		return got
	}
	want := func(members []types.ServerID) []types.ServerID {
		sorted := slices.Clone(members)
		slices.Sort(sorted)
		return sorted
	}

	c.Kill(ServerID(victim))
	if _, err := c.Replace(ServerID(victim)); err != nil {
		t.Fatal(err)
	}
	take()
	repaired, err := c.NewClient().RecoverServer(ctx, ServerID(victim), RecoveryAggressive)
	if err != nil || repaired == 0 {
		t.Fatalf("recovery repaired %d objects: %v", repaired, err)
	}
	mu.Lock()
	at := repairAt
	mu.Unlock()
	got := take()
	peers := slices.DeleteFunc(c.place.Members(), func(s types.ServerID) bool { return s == victim })
	if len(got) != 1 || !slices.Equal(want(got[victim]), want(peers)) {
		t.Fatalf("recovery swept %v, want one whole-shard query from %d to each live peer %v", got, victim, peers)
	}
	if at != len(peers) {
		t.Fatalf("the replacement read for its first repair after %d of its %d sweeps, want after all of them", at, len(peers))
	}

	rep, err := c.Rebalance(ctx)
	if err != nil || rep.Errors != 0 {
		t.Fatalf("rebalance: %+v, %v", rep, err)
	}
	got = take()
	var from []types.ServerID
	for s := range got {
		from = append(from, s)
	}
	if len(from) != 1 || from[0] >= 0 || !slices.Equal(want(got[from[0]]), want(c.place.Members())) {
		t.Fatalf("rebalance swept %v, want one whole-shard query from its client to each member %v", got, c.place.Members())
	}
	verifyChurnObjects(t, c.NewClient(), "swept", committed, nil, "after recovery and a rebalance pass")
}

// TestRebalanceCountsJoin: a pass after a join sends no put, and an encoded
// object that moved to the newcomer, which took its data shard 0, is served
// to a client that has seen it by one primary read: one MsgGet and the k-1
// other data shards, no directory query.
func TestRebalanceCountsJoin(t *testing.T) {
	c, counter := countedCluster(t, erasureConfig())
	p := newPassCounter(counter)
	cl, committed := stageObjects(t, c, "joined", 32)
	ctx := context.Background()
	id, err := c.JoinNew()
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 4; i++ {
		c.TickMembership(ctx)
	}
	pass := p.rebalance(t, c)
	t.Logf("join pass: %d objects moved; fabric %.1f KB, payload %d B; sent %v", pass.rep.Moved, float64(pass.bytes)/1e3, pass.payload, pass.sent)
	if pass.rep.Errors != 0 || pass.rep.Moved == 0 || pass.sent[transport.MsgPut] != 0 {
		t.Fatalf("join pass: %+v, sent %v", pass.rep, pass.sent)
	}
	served := 0
	for i, want := range committed {
		m := objectRecord(t, cl, "joined", i)
		if m.Primary != types.ServerID(id) || m.Layout.Members[0].Server != types.ServerID(id) {
			continue
		}
		counter.take()
		got, err := cl.Get(ctx, "joined", churnBox(i), 1)
		if err != nil || !bytes.Equal(got, want) {
			t.Fatalf("object %d on the newcomer: %v", i, err)
		}
		sent, _ := counter.take()
		if sent[primaryRead] != 1 || sent[transport.MsgGet] != 1 || sent[transport.MsgMetaQuery] != 0 || sent[transport.MsgShardGet] != m.Layout.K-1 {
			t.Fatalf("object %d: read sent %v, want one primary read and %d shard reads", i, sent, m.Layout.K-1)
		}
		served++
	}
	if served == 0 {
		t.Fatalf("no object moved to newcomer %d with its data shard 0: %+v", id, pass.rep)
	}
}

// TestRebalanceAfterJoinAndLoss: a server joins, and a member of the stripe
// of an object whose data shard 0 the newcomer could take leaves before one
// pass runs. With one parity shard a stripe can rebuild only one slot at a
// time: the lost slot changes hands, and data shard 0 stays where it is.
func TestRebalanceAfterJoinAndLoss(t *testing.T) {
	c := elasticCluster(t, erasureConfig())
	cl, committed := stageObjects(t, c, "joined", 32)
	ctx := context.Background()
	id, err := c.JoinNew()
	if err != nil {
		t.Fatal(err)
	}
	ring := c.Ring()
	cabinet, _ := ring.Domain(types.ServerID(id))
	gone := types.InvalidServer
	for i := range committed {
		m := objectRecord(t, cl, "joined", i)
		if d, _ := ring.Domain(m.Primary); ring.OwnerKey(m.ID.Key()) == types.ServerID(id) && d == cabinet {
			gone = m.Layout.Members[1].Server
			break
		}
	}
	if gone == types.InvalidServer {
		t.Fatal("no object moves to the newcomer from a server in its cabinet")
	}
	c.Leave(ServerID(gone))
	rep, err := c.Rebalance(ctx)
	if err != nil {
		t.Fatalf("rebalance: %v", err)
	}
	if rep.Moved == 0 || rep.Repaired == 0 {
		t.Fatalf("pass moved %d and repaired %d objects, want both: %+v", rep.Moved, rep.Repaired, rep)
	}
	checkRebalanced(t, c, cl, "joined", committed, rep)
}
