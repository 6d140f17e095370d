package server

import (
	"context"
	"sync"
	"testing"

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
