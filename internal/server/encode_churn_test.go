package server

import (
	"context"
	"fmt"
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

// kindGate is the in-process fabric (its peer-health table included) with a
// gate on one kind of request: while shut, each such request is announced on
// held and waits for the gate to open.
type kindGate struct {
	*transport.InProc
	kind transport.Kind
	held chan struct{}

	mu   sync.Mutex
	open chan struct{} // nil: requests go through
}

func newKindGate(kind transport.Kind) *kindGate {
	// held has room for every request of one fan-out, so none of them waits
	// on the test to be announced.
	return &kindGate{InProc: transport.NewInProc(simnet.LinkModel{}), kind: kind, held: make(chan struct{}, 16)}
}

func (g *kindGate) Send(ctx context.Context, from, to types.ServerID, req *transport.Message) (*transport.Message, error) {
	g.mu.Lock()
	open := g.open
	g.mu.Unlock()
	if open != nil && req.Kind == g.kind {
		g.held <- struct{}{}
		<-open
	}
	return g.InProc.Send(ctx, from, to, req)
}

// shut holds requests of the gate's kind until the returned release is called.
func (g *kindGate) shut() (release func()) {
	open := make(chan struct{})
	g.mu.Lock()
	g.open = open
	g.mu.Unlock()
	return func() {
		g.mu.Lock()
		g.open = nil
		g.mu.Unlock()
		close(open)
	}
}

// putAsync sends a put to the object's primary and returns the channel its
// outcome arrives on.
func (r *testRig) putAsync(name string, box geometry.Box, v types.Version, data []byte) <-chan error {
	done := make(chan error, 1)
	go func() {
		resp, err := r.net.Send(context.Background(), -1, r.place.Primary(types.ObjectID{Var: name, Box: box}), &transport.Message{
			Kind: transport.MsgPut, Var: name, Box: box, Version: v, Data: data,
		})
		if err == nil {
			err = resp.AsError()
		}
		done <- err
	}()
	return done
}

// TestEncodeRepushesToAReplacedMember: a stripe member replaced while an
// encode is in flight comes back empty, and its recovery, which scans the
// directory before the encode publishes the stripe, cannot know of it. The
// encode, which learns of the replacement from the fabric's re-admission
// generation, pushes the shards again once the record is out, so the new
// member holds its shard.
func TestEncodeRepushesToAReplacedMember(t *testing.T) {
	gate := newKindGate(transport.MsgMetaUpdate)
	rig := newRigOn(t, gate, policy.Erasure, 8, 0)
	box := geometry.Box3D(0, 0, 0, 8, 8, 8)
	primary := rig.place.Primary(types.ObjectID{Var: "re", Box: box})

	release := gate.shut()
	done := rig.putAsync("re", box, 1, payload(int(box.Volume())*8, 41))
	<-gate.held                                 // the shards are out; the record is on its way
	member := rig.place.CodingGroup(primary)[1] // holds data shard 1
	rig.servers[member].Close()
	rig.servers[member] = rig.startServer(t, member)
	release()
	if err := <-done; err != nil {
		t.Fatal(err)
	}

	meta, ok := rig.servers[primary].reader.LookupMeta(context.Background(), types.ObjectID{Var: "re", Box: box})
	if !ok || meta.State != types.StateEncoded {
		t.Fatalf("object not encoded: %+v", meta)
	}
	for _, m := range meta.Layout.Members {
		if !rig.servers[m.Server].HasShard(meta.Stripe, m.Index) {
			t.Errorf("server %d lacks shard %d of the stripe (the replaced member is %d)", m.Server, m.Index, member)
		}
	}
}

// TestClosedServerPublishesNothing: a server closed — killed — with an encode
// in flight is gone, as a crashed process is. The encode's shard pushes
// already on the wire may land, but the record that would publish a stripe
// whose shard 0 died with the server is never sent.
func TestClosedServerPublishesNothing(t *testing.T) {
	gate := newKindGate(transport.MsgShardPut)
	rig := newRigOn(t, gate, policy.Erasure, 8, 0)
	box := geometry.Box3D(0, 0, 0, 8, 8, 8)
	id := types.ObjectID{Var: "gone", Box: box}
	primary := rig.place.Primary(id)

	release := gate.shut()
	done := rig.putAsync("gone", box, 1, payload(int(box.Volume())*8, 42))
	<-gate.held // the encode is pushing its shards
	rig.servers[primary].Close()
	release()
	<-done // whatever the put's outcome, the server is gone

	for _, srv := range rig.servers {
		if srv.id == primary {
			continue
		}
		if resp := srv.Handle(context.Background(), &transport.Message{Kind: transport.MsgMetaLookup, Key: id.Key()}); resp.Flag {
			t.Errorf("server %d holds a record the closed primary published: %+v", srv.id, resp.Meta)
		}
	}
}

// TestEncodeQueueHoldsABacklogWithoutGoroutines: while the demotion worker
// waits on one key's write lock, thousands of further demotions queue — more
// than any fixed buffer would hold — without blocking their callers or
// starting a goroutine each. A delete takes its key's queued demotion, and the
// superseded stripe it carries, out of the queue while the worker waits;
// PendingEncodes counts every other demotion plus the running one, and the
// queue drains once the lock is released.
func TestEncodeQueueHoldsABacklogWithoutGoroutines(t *testing.T) {
	rig := newRig(t, policy.CoREC, 8)
	srv := rig.servers[0]
	const blocker, backlog = "blocker", 5000

	lk := srv.writeLock(blocker)
	lk.Lock()
	srv.enqueueEncode(blocker, nil)
	for taken := false; !taken; {
		srv.encMu.Lock()
		taken = len(srv.encQueue) == 0
		srv.encMu.Unlock()
		runtime.Gosched()
	}

	before := runtime.NumGoroutine()
	for i := 0; i < backlog; i++ {
		srv.enqueueEncode(fmt.Sprintf("k%d", i), nil)
	}
	if grown := runtime.NumGoroutine() - before; grown > 64 {
		t.Errorf("queueing %d demotions started %d goroutines", backlog, grown)
	}

	// A key on another lock stripe than the blocker's, so its delete runs
	// while the worker waits.
	gone := "gone"
	for i := 0; srv.writeLock(gone) == lk; i++ {
		gone = fmt.Sprintf("gone%d", i)
	}
	superseded := &types.StripeInfo{ID: types.StripeID{Group: 0, Seq: 1}, K: 3, M: 1,
		Members: []types.StripeMember{{Server: 1, Index: 0}, {Server: 2, Index: 1}}}
	srv.enqueueEncode(gone, superseded)
	srv.enqueueEncode(gone, nil) // joins the queued entry, keeping its stripe
	if got := srv.CollectStats().PendingEncodes; got != backlog+2 {
		t.Errorf("PendingEncodes = %d, want %d (the backlog, the delete's key and the running one)", got, backlog+2)
	}
	srv.Handle(context.Background(), &transport.Message{Kind: transport.MsgDelete, Key: gone})
	if got := srv.CollectStats().PendingEncodes; got != backlog+1 {
		t.Errorf("after the delete PendingEncodes = %d, want %d", got, backlog+1)
	}

	idle := make(chan struct{})
	go func() {
		srv.WaitEncodeIdle()
		close(idle)
	}()
	select {
	case <-idle:
		t.Fatal("WaitEncodeIdle returned while the worker was blocked")
	case <-time.After(20 * time.Millisecond):
	}
	lk.Unlock()
	select {
	case <-idle:
	case <-time.After(30 * time.Second):
		t.Fatal("WaitEncodeIdle did not return once the lock was released")
	}
	if got := srv.CollectStats().PendingEncodes; got != 0 {
		t.Errorf("PendingEncodes = %d after the queue drained", got)
	}
}
