package server

import (
	"bytes"
	"context"
	"runtime"
	"slices"
	"sync"
	"testing"
	"time"

	"corec/internal/geometry"
	"corec/internal/policy"
	"corec/internal/simnet"
	"corec/internal/transport"
	"corec/internal/types"
)

// shardGetNet wraps the in-process fabric (keeping its peer-health table) to
// observe the reads servers make through it: how many stripe lookups, and in
// how many rounds a stripe's shards were asked of their live holders. A round
// is a matter of message order alone: a shard index first asked for after the
// reply to an earlier shard get was delivered belongs to a later round. So
// that no reply of a parallel round is delivered before the round's other
// requests are sent, the first wide indices asked for wait for each other
// before any request goes on (see expect). Requests to the dead holder are
// let through uncounted: whether one reaches the fabric at all — a retry
// budget being spent, a half-open trial, or a fast fail that never leaves
// the sender — is the peer-health table's business and the clock's.
type shardGetNet struct {
	*transport.InProc
	dead types.ServerID

	mu            sync.Mutex
	stripeLookups int
	wide          int
	asked         map[int]bool
	gate          chan struct{} // closed once wide indices have been asked for
	returned      int
	late          int
	stalled       bool
}

func (n *shardGetNet) Send(ctx context.Context, from, to types.ServerID, req *transport.Message) (*transport.Message, error) {
	switch {
	case req.Kind == transport.MsgStripeLookup:
		n.mu.Lock()
		n.stripeLookups++
		n.mu.Unlock()
	case req.Kind == transport.MsgShardGet && to != n.dead:
		n.mu.Lock()
		gate := n.gate
		if !n.asked[req.ShardIndex] {
			n.asked[req.ShardIndex] = true
			if n.returned > 0 {
				n.late++
			}
			if len(n.asked) == n.wide {
				close(gate)
			}
		}
		n.mu.Unlock()
		select {
		case <-gate:
		case <-time.After(10 * time.Second):
			// Only a first round narrower than expected ever waits this out:
			// the clock turns that hang into a failure, it decides no passing
			// run.
			n.mu.Lock()
			n.stalled = true
			n.mu.Unlock()
		}
		defer func() {
			n.mu.Lock()
			n.returned++
			n.mu.Unlock()
		}()
	}
	return n.InProc.Send(ctx, from, to, req)
}

// expect starts observing a read whose first round should put wide shard
// gets on live holders (0: none are lined up).
func (n *shardGetNet) expect(wide int) {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.wide, n.asked, n.returned, n.late, n.stalled = wide, make(map[int]bool), 0, 0, false
	n.gate = make(chan struct{})
	if wide == 0 {
		close(n.gate)
	}
}

// rounds reports the fetch rounds of the shard gets seen since expect: -1
// when the first round never grew to the expected width.
func (n *shardGetNet) rounds() int {
	n.mu.Lock()
	defer n.mu.Unlock()
	switch {
	case n.stalled:
		return -1
	case n.late > 0:
		return 2
	case len(n.asked) > 0:
		return 1
	}
	return 0
}

func newShardGetNet() *shardGetNet {
	n := &shardGetNet{InProc: transport.NewInProc(simnet.LinkModel{}), dead: types.InvalidServer}
	n.expect(0)
	return n
}

// sameStripeBoxes returns n boxes whose objects have the same primary, and
// that primary's coding group in stripe order.
func sameStripeBoxes(rig *testRig, n int) ([]geometry.Box, []types.ServerID) {
	var boxes []geometry.Box
	primary := types.InvalidServer
	for i := int64(0); len(boxes) < n; i++ {
		box := geometry.Box3D(i*8, 0, 0, i*8+8, 8, 8)
		p := rig.place.Primary(types.ObjectID{Var: "v", Box: box})
		if primary == types.InvalidServer {
			primary = p
		}
		if p == primary {
			boxes = append(boxes, box)
		}
	}
	return boxes, rig.place.CodingGroup(primary)
}

// TestServerRebuildsInOneRoundOnceLossIsKnown is the property the client's
// degraded read has had since peer health, now true of the servers' reads
// because they are the same read: with the holder of a data shard dead, a
// rebuild first asks the k shards it would like, misses one and asks the
// spares in a second round — and once the fabric has learnt of the death,
// asks for the spares in the first. On live holders that is one shard get in
// the first round and the spare's in a second, then two in one round: RS(2+2)
// recovery asks shard 0 (and the dead 1), then the spare 3 — or 0 and 3
// together; RS(3+1) promotion reads shard 0 from its own store and asks 2
// (and the dead 1), then 3 — or 2 and 3 together.
func TestServerRebuildsInOneRoundOnceLossIsKnown(t *testing.T) {
	ctx := context.Background()
	for _, c := range []struct {
		name string
		k, m int
		// rebuild runs the server-side read under test on the i-th staged
		// object (stripe members in stripe order; members[1] is dead) and
		// checks its result.
		rebuild func(t *testing.T, rig *testRig, members []types.ServerID, id types.ObjectID, data []byte)
	}{
		// RS(2+2): the stripe survives the dead holder and the shard rebuilt.
		{"recoverEncoded", 2, 2, func(t *testing.T, rig *testRig, members []types.ServerID, id types.ObjectID, data []byte) {
			// members[2] lost its (parity) shard and rebuilds it.
			srv := rig.servers[members[2]]
			meta, ok := srv.reader.LookupMeta(ctx, id)
			if !ok {
				t.Fatal("no record")
			}
			srv.Handle(ctx, &transport.Message{Kind: transport.MsgShardDrop, Stripe: meta.Stripe, ShardIndex: 2})
			if did, err := srv.recoverObject(ctx, id); err != nil || !did || !srv.HasShard(meta.Stripe, 2) {
				t.Fatalf("shard not rebuilt: repaired=%v err=%v", did, err)
			}
		}},
		// RS(3+1): two of the shards a promotion needs are on other servers.
		{"promoteObject", 3, 1, func(t *testing.T, rig *testRig, members []types.ServerID, id types.ObjectID, data []byte) {
			srv := rig.servers[members[0]]
			if !srv.promoteObject(ctx, id) {
				t.Fatal("promotion failed")
			}
			srv.mu.Lock()
			obj := srv.objects[id.Key()]
			srv.mu.Unlock()
			if obj == nil || !bytes.Equal(obj.Data, data) {
				t.Fatal("promotion reassembled other bytes than were put")
			}
		}},
	} {
		t.Run(c.name, func(t *testing.T) {
			net := newShardGetNet()
			rig := newRigWith(t, net, 8, policy.Config{Mode: policy.Erasure, NLevel: 1, K: c.k, M: c.m})
			boxes, members := sameStripeBoxes(rig, 2)
			dead := members[1] // data shard 1 of every stripe
			datas := make([][]byte, len(boxes))
			for i, box := range boxes {
				// The rebuilds look the objects' records up; were the dead
				// holder one of their directory mirrors, that lookup — not a
				// shard get — would spend a retry budget on it and teach the
				// fabric of the death before the first rebuild plans its round.
				if group := rig.servers[0].dirPlace.Servers("v", box); slices.Contains(group, dead) {
					t.Fatalf("setup: the dead holder %d is a directory mirror %v of box %v", dead, group, box)
				}
				datas[i] = payload(int(box.Volume())*8+i, int64(70+i)) // odd size: the stripe is padded
				rig.put(t, "v", box, 1, datas[i])
			}
			rig.servers[dead].Close()
			net.dead = dead
			for i, want := range []struct{ rounds, wide int }{{2, 1}, {1, 2}} {
				if known := transport.HealthOf(net).Down(dead); known != (i > 0) {
					t.Fatalf("before rebuild %d the fabric knows of the dead holder: %v", i, known)
				}
				net.expect(want.wide)
				c.rebuild(t, rig, members, types.ObjectID{Var: "v", Box: boxes[i]}, datas[i])
				if got := net.rounds(); got != want.rounds {
					t.Errorf("rebuild %d took %d fetch rounds, want %d", i, got, want.rounds)
				}
			}
		})
	}
}

// TestRecoveryWorklistAsksNoStripeLookups: the directory records a
// replacement sweeps are all it needs — an encoded one carries its stripe's
// layout — so both its work list and its share of the directory come from
// them and it asks nobody about a stripe. It used to look up the stripe of
// every encoded record in every member's shard.
func TestRecoveryWorklistAsksNoStripeLookups(t *testing.T) {
	net := newShardGetNet()
	rig := newRigWith(t, net, 8, policy.Config{Mode: policy.Erasure, NLevel: 1, K: 3, M: 1})
	const objects = 48
	for i := int64(0); i < objects; i++ {
		rig.put(t, "v", geometry.Box3D(i*8, 0, 0, i*8+8, 8, 8), 1, payload(512, 300+i))
	}
	victim := types.ServerID(2)
	shardsHeld := rig.servers[victim].store.Len()
	recordsHeld := rig.servers[victim].dir.count()
	rig.servers[victim].Close()
	repl := rig.startServer(t, victim)
	work := repl.rebuildDirectoryAndWorklist(context.Background())
	if len(work) < shardsHeld || shardsHeld == 0 {
		t.Fatalf("work list has %d objects, the dead server held shards of %d", len(work), shardsHeld)
	}
	net.mu.Lock()
	lookups := net.stripeLookups
	net.mu.Unlock()
	if lookups != 0 {
		t.Errorf("building the work list sent %d stripe lookups, want 0", lookups)
	}
	rebuilt := repl.dir.query("", geometry.Box{})
	if len(rebuilt) != recordsHeld || recordsHeld == 0 {
		t.Errorf("rebuilt directory shard holds %d records, its predecessor held %d", len(rebuilt), recordsHeld)
	}
	for _, m := range rebuilt {
		if m.State != types.StateEncoded || m.Layout == nil || m.Layout.ID != m.Stripe || len(m.Layout.Members) != 4 {
			t.Fatalf("rebuilt record of %s came back without its stripe's layout: %+v", m.ID, m)
		}
	}
	if repaired, err := repl.RunRecovery(context.Background(), 0); err != nil || repaired < shardsHeld {
		t.Fatalf("recovery repaired %d objects (%v), want at least %d", repaired, err, shardsHeld)
	}
	if got := repl.store.Len(); got != shardsHeld {
		t.Errorf("replacement holds %d shards after recovery, its predecessor held %d", got, shardsHeld)
	}
}

// TestPromotionAssemblesInPlace counts the bytes one promotion of a 2 MiB
// RS(3+1) object allocates, fleet-wide, over TCP: the object itself, in which
// the shards land, and the replica holder's receive buffer for the push that
// follows — two objects — with at most a shard of slack. Before promotion
// read through the reader it also allocated a receive buffer per remote
// shard and joined the shards into a fourth copy.
func TestPromotionAssemblesInPlace(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	tn := transport.NewTCPNetwork("127.0.0.1")
	defer tn.Close()
	rig := newRigOn(t, tn, policy.Erasure, 8, 0)
	box := geometry.Box3D(0, 0, 0, 64, 64, 64)
	const size = 2 << 20
	data := payload(size, 81)
	primary := rig.put(t, "v", box, 1, data)
	srv := rig.servers[primary]
	id := types.ObjectID{Var: "v", Box: box}

	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	if !srv.promoteObject(context.Background(), id) {
		t.Fatal("promotion failed")
	}
	runtime.ReadMemStats(&after)
	srv.mu.Lock()
	obj := srv.objects[id.Key()]
	srv.mu.Unlock()
	if obj == nil || !bytes.Equal(obj.Data, data) {
		t.Fatal("promotion reassembled other bytes than were put")
	}
	shard := uint64(size+2) / 3
	if got, limit := after.TotalAlloc-before.TotalAlloc, 2*uint64(size)+shard; got > limit {
		t.Errorf("promotion allocated %d bytes, want <= %d (the object, its replica's receive buffer and one shard)", got, limit)
	}
}

// TestRecoveryRebuildsFromTheNewestRecord: one mirror of an object's record
// lags its twins by a rewrite — the primary was cut off from it while the
// new version was written, as TestLaggingMirrorIsSettledByItsTwin stages it
// on a cluster. A replacement of another mirror rebuilds its directory shard
// from the survivors' shards: it must hold the newest record, whichever
// mirror answers first, and its work list must name exactly the objects
// whose newest record names it.
func TestRecoveryRebuildsFromTheNewestRecord(t *testing.T) {
	net := transport.NewFaultyNetwork(transport.NewInProc(simnet.LinkModel{}), nil)
	// Three mirrors per record: the lagging one, the victim, and a current
	// twin the victim's shard can be rebuilt from.
	rig := newRigWith(t, net, 12, policy.Config{Mode: policy.Replicate, NLevel: 2, K: 3, M: 1})
	ctx := context.Background()
	dir := rig.servers[0].dirPlace
	var lagged types.ObjectID
	var group []types.ServerID
	for i := int64(0); i < 32; i++ {
		box := geometry.Box3D(i*32, 0, 0, i*32+8, 8, 8)
		rig.put(t, "lag", box, 1, payload(256, 700+i))
		id := types.ObjectID{Var: "lag", Box: box}
		primary := rig.place.Primary(id)
		holders := append(rig.place.ReplicaHolders(primary), primary)
		if g := dir.Servers(id.Var, id.Box); len(group) == 0 && !slices.ContainsFunc(g, func(s types.ServerID) bool { return slices.Contains(holders, s) }) {
			lagged, group = id, g
		}
	}
	if len(group) != 3 {
		t.Fatalf("no staged object whose three directory mirrors %v hold none of its copies", group)
	}
	lagging, victim := group[0], group[1]
	heal := net.Partition([]types.ServerID{rig.place.Primary(lagged)}, []types.ServerID{lagging})
	rig.put(t, "lag", lagged.Box, 2, payload(256, 799))
	heal()
	// The cut may have marked the lagging mirror down; the sweep must ask it.
	transport.HealthOf(net).Admit(lagging)
	if m, ok := rig.servers[lagging].dir.lookup(lagged.Key()); !ok || m.Version != 1 {
		t.Fatalf("lagging mirror %d holds %+v, want the version-1 record", lagging, m)
	}

	rig.servers[victim].Close()
	repl := rig.startServer(t, victim)
	rig.servers[victim] = repl
	work := repl.rebuildDirectoryAndWorklist(ctx)
	if m, ok := repl.dir.lookup(lagged.Key()); !ok || m.Version != 2 {
		t.Fatalf("rebuilt shard holds %+v for the lagged object, want its version-2 record", m)
	}
	named := 0
	for i := int64(0); i < 32; i++ {
		id := types.ObjectID{Var: "lag", Box: geometry.Box3D(i*32, 0, 0, i*32+8, 8, 8)}
		newest, ok := rig.servers[group[2]].reader.LookupMeta(ctx, id)
		if !ok {
			t.Fatalf("no record of %s", id)
		}
		names := newest.Primary == victim || slices.Contains(newest.Replicas, victim)
		if _, listed := work[id.Key()]; listed != names {
			t.Errorf("%s: on the work list = %v, but its newest record (v%d, primary %d, replicas %v) names the replacement = %v",
				id, listed, newest.Version, newest.Primary, newest.Replicas, names)
		}
		if names {
			named++
		}
	}
	if named == 0 || len(work) != named {
		t.Fatalf("work list has %d objects, %d newest records name the replacement", len(work), named)
	}
}
