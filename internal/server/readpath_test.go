package server

import (
	"bytes"
	"context"
	"runtime"
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
// how many rounds a stripe's shards were asked for. Each shard get is held
// for a moment before it is delivered, so every request of one parallel
// round is on its way before the first comes back; a shard index first asked
// for after some shard get has returned belongs to a later round. Resends of
// one index (the retry budget spent on a dead holder) count once.
type shardGetNet struct {
	*transport.InProc

	mu            sync.Mutex
	stripeLookups int
	asked         map[int]bool
	returned      int
	late          int
}

func (n *shardGetNet) Send(ctx context.Context, from, to types.ServerID, req *transport.Message) (*transport.Message, error) {
	switch req.Kind {
	case transport.MsgStripeLookup:
		n.mu.Lock()
		n.stripeLookups++
		n.mu.Unlock()
	case transport.MsgShardGet:
		n.mu.Lock()
		if !n.asked[req.ShardIndex] {
			n.asked[req.ShardIndex] = true
			if n.returned > 0 {
				n.late++
			}
		}
		n.mu.Unlock()
		time.Sleep(20 * time.Millisecond)
		defer func() {
			n.mu.Lock()
			n.returned++
			n.mu.Unlock()
		}()
	}
	return n.InProc.Send(ctx, from, to, req)
}

// rounds reports the fetch rounds of the shard gets seen since the last
// call, and forgets them.
func (n *shardGetNet) rounds() int {
	n.mu.Lock()
	defer n.mu.Unlock()
	r := 0
	if len(n.asked) > 0 {
		r = 1
	}
	if n.late > 0 {
		r = 2
	}
	n.asked, n.returned, n.late = make(map[int]bool), 0, 0
	return r
}

func newShardGetNet() *shardGetNet {
	return &shardGetNet{InProc: transport.NewInProc(simnet.LinkModel{}), asked: make(map[int]bool)}
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
	return boxes, rig.servers[primary].codingMembers()
}

// TestServerRebuildsInOneRoundOnceLossIsKnown is the property the client's
// degraded read has had since peer health, now true of the servers' reads
// because they are the same read: with the holder of a data shard dead, a
// rebuild first asks the k shards it would like, misses one and asks the
// spares in a second round — and once the fabric has learnt of the death,
// asks for the spares in the first.
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
			datas := make([][]byte, len(boxes))
			for i, box := range boxes {
				datas[i] = payload(int(box.Volume())*8+i, int64(70+i)) // odd size: the stripe is padded
				rig.put(t, "v", box, 1, datas[i])
			}
			rig.servers[members[1]].Close() // data shard 1 of every stripe
			net.rounds()
			for i, want := range []int{2, 1} {
				c.rebuild(t, rig, members, types.ObjectID{Var: "v", Box: boxes[i]}, datas[i])
				if got := net.rounds(); got != want {
					t.Errorf("rebuild %d (dead holder known to the fabric: %v) took %d fetch rounds, want %d",
						i, transport.HealthOf(net).Down(members[1]), got, want)
				}
			}
		})
	}
}

// TestRecoveryWorklistAsksNoStripeLookups: a replacement builds its work list
// from the directory dumps it is walking anyway — they carry every stripe
// record — and asks the directory for none. It used to look up the stripe of
// every encoded record in every dump.
func TestRecoveryWorklistAsksNoStripeLookups(t *testing.T) {
	net := newShardGetNet()
	rig := newRigWith(t, net, 8, policy.Config{Mode: policy.Erasure, NLevel: 1, K: 3, M: 1})
	const objects = 48
	for i := int64(0); i < objects; i++ {
		rig.put(t, "v", geometry.Box3D(i*8, 0, 0, i*8+8, 8, 8), 1, payload(512, 300+i))
	}
	victim := types.ServerID(2)
	shardsHeld := rig.servers[victim].store.Len()
	rig.servers[victim].Close()
	repl := rig.startServer(t, victim)
	net.mu.Lock()
	net.stripeLookups = 0
	net.mu.Unlock()
	keys, _, err := repl.rebuildDirectoryAndWorklist(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if len(keys) < shardsHeld || shardsHeld == 0 {
		t.Fatalf("work list has %d objects, the dead server held shards of %d", len(keys), shardsHeld)
	}
	net.mu.Lock()
	lookups := net.stripeLookups
	net.mu.Unlock()
	if lookups != 0 {
		t.Errorf("building the work list sent %d stripe lookups, want 0", lookups)
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
