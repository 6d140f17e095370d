package server

import (
	"bytes"
	"context"
	"math/rand"
	"testing"

	"corec/internal/failure"
	"corec/internal/geometry"
	"corec/internal/policy"
	"corec/internal/reader"
	"corec/internal/scrub"
	"corec/internal/simnet"
	"corec/internal/transport"
	"corec/internal/types"
)

// TestScrubBackfillsShardSums erases a shard's recorded checksum and checks
// the local pass re-records it rather than reporting rot.
func TestScrubBackfillsShardSums(t *testing.T) {
	rig := newRig(t, policy.Erasure, 8)
	box := geometry.Box3D(0, 0, 0, 8, 8, 8)
	data := payload(int(box.Volume())*8, 12)
	rig.put(t, "coded", box, 1, data)

	cleared := 0
	for _, s := range rig.servers {
		s.mu.Lock()
		for _, h := range s.held {
			for i := range h.sums {
				h.sums[i] = 0
				cleared++
			}
		}
		s.mu.Unlock()
	}
	if cleared == 0 {
		t.Fatal("no shards staged")
	}
	var total scrub.Report
	for _, s := range rig.servers {
		rep, err := s.ScrubDepth(context.Background(), scrub.DepthLocal)
		if err != nil {
			t.Fatal(err)
		}
		total.Add(rep)
	}
	if int(total.Backfills) != cleared {
		t.Fatalf("backfilled %d shard sums, want %d (%+v)", total.Backfills, cleared, total)
	}
	if total.Corruptions != 0 {
		t.Fatalf("shard backfill misdiagnosed: %+v", total)
	}
}

// TestScrubRepairsRottedShard flips a bit in one stored shard and verifies
// the holder's local pass reconstructs it from the stripe's other members.
func TestScrubRepairsRottedShard(t *testing.T) {
	rig := newRig(t, policy.Erasure, 8)
	box := geometry.Box3D(0, 0, 0, 8, 8, 8)
	data := payload(int(box.Volume())*8, 13)
	rig.put(t, "rot", box, 1, data)

	rng := rand.New(rand.NewSource(5))
	var victim *Server
	var events []failure.BitRotEvent
	for _, s := range rig.servers {
		if evs := s.InjectBitRot(rng, failure.RotShards, 1); len(evs) > 0 {
			victim, events = s, evs
			break
		}
	}
	if victim == nil {
		t.Fatal("no shard to corrupt")
	}
	rep, err := victim.ScrubDepth(context.Background(), scrub.DepthLocal)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Corruptions != 1 || rep.Repairs != 1 || rep.Unrepaired != 0 {
		t.Fatalf("shard rot not repaired: %+v (events %+v)", rep, events)
	}
	// The repaired shard matches its recorded checksum again.
	sk := events[0].Key
	b, ok := victim.store.Peek(sk)
	if !ok {
		t.Fatalf("repaired shard %s missing from store", sk)
	}
	got := scrub.Checksum(b)
	victim.mu.Lock()
	id, index, _ := parseShardKey(sk)
	want := victim.held[id].sums[index]
	victim.mu.Unlock()
	if got != want {
		t.Fatalf("repaired shard sum %x != recorded %x", got, want)
	}
}

// TestScrubRestoresPiecesOnLiveHolders damages one piece of an object on a
// live holder in a way the holder's own digest cannot see, and checks the
// primary's full-depth pass restores it. The object is then read back with
// the restored piece as the only way to it.
func TestScrubRestoresPiecesOnLiveHolders(t *testing.T) {
	ctx := context.Background()
	box := geometry.Box3D(0, 0, 0, 8, 8, 8)
	id := types.ObjectID{Var: "piece", Box: box}
	key := id.Key()
	size := int(box.Volume()) * 8
	for _, tc := range []struct {
		name string
		mode policy.Mode
		// damage is sent to the holder of shard index of stripe info, or to
		// the mirror when info is nil.
		damage func(info *types.StripeInfo, index int) *transport.Message
	}{
		{"mirror missing its replica", policy.Replicate, func(*types.StripeInfo, int) *transport.Message {
			return &transport.Message{Kind: transport.MsgReplicaDrop, Key: key}
		}},
		{"mirror holding other bytes at the same version", policy.Replicate, func(*types.StripeInfo, int) *transport.Message {
			return &transport.Message{Kind: transport.MsgReplicaPut, Var: id.Var, Box: box, Version: 1, Data: payload(size, 98)}
		}},
		{"member missing its shard", policy.Erasure, func(info *types.StripeInfo, index int) *transport.Message {
			return &transport.Message{Kind: transport.MsgShardDrop, Stripe: info.ID, ShardIndex: index}
		}},
		// The holder digests what it is sent, so only the stripe check finds it.
		{"member holding other shard bytes", policy.Erasure, func(info *types.StripeInfo, index int) *transport.Message {
			return &transport.Message{Kind: transport.MsgShardPut, Stripe: info.ID, ShardIndex: index, Data: payload(info.ShardSize, 99)}
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			// RS(2+2): a stripe with one wrong shard still pinpoints it.
			rig := newRigWith(t, transport.NewInProc(simnet.LinkModel{}), 8, policy.Config{Mode: tc.mode, NLevel: 1, K: 2, M: 2})
			data := payload(size, 97)
			primary := rig.put(t, id.Var, box, 1, data)
			srv := rig.servers[primary]
			srv.mu.Lock()
			info := srv.local[key].Layout
			srv.mu.Unlock()
			const index = 1
			holder := srv.place.ReplicaHolders(primary)[0]
			if info != nil {
				m, _ := info.MemberFor(index)
				holder = m.Server
			}
			h := rig.servers[holder]
			piece := func() []byte {
				if info != nil {
					b, _ := h.store.Peek(shardKey(info.ID, index))
					return b
				}
				h.mu.Lock()
				defer h.mu.Unlock()
				if o := h.replicas[key]; o != nil {
					return o.Data
				}
				return nil
			}
			want := bytes.Clone(piece())
			if err := h.Handle(ctx, tc.damage(info, index)).AsError(); err != nil {
				t.Fatal(err)
			}
			if bytes.Equal(piece(), want) {
				t.Fatal("damage left the piece as it was")
			}

			rep, err := srv.ScrubDepth(ctx, scrub.DepthStripe)
			if err != nil {
				t.Fatal(err)
			}
			if rep.Unrepaired != 0 || rep.Repairs+rep.Reencodes == 0 {
				t.Fatalf("pass did not repair the piece: %+v", rep)
			}
			if !bytes.Equal(piece(), want) {
				t.Fatalf("piece on server %d not restored: %+v", holder, rep)
			}

			meta, ok := h.reader.LookupMeta(ctx, id)
			if !ok {
				t.Fatal("no record")
			}
			if info == nil {
				srv.Close()
			} else {
				for _, m := range info.Members {
					if m.Server != primary && m.Server != holder {
						rig.servers[m.Server].Close()
					}
				}
			}
			got := reader.Buffer(size, 2)
			if err := h.reader.Object(ctx, meta, got); err != nil || !bytes.Equal(got, data) {
				t.Fatalf("read through the restored piece: err %v, bytes equal %v", err, bytes.Equal(got, data))
			}
		})
	}
}

// TestScrubDeadPeerCountsAsSkipNotCorruption kills a mirror and runs the
// primary's replica cross-check: the unreachable peer must surface as a
// skip, never as detected corruption — failure handling is the monitor's
// job, and conflating the two would make the scrubber fight it.
func TestScrubDeadPeerCountsAsSkipNotCorruption(t *testing.T) {
	rig := newRig(t, policy.Replicate, 8)
	box := geometry.Box3D(0, 0, 0, 8, 8, 8)
	data := payload(int(box.Volume())*8, 14)
	primary := rig.put(t, "skip", box, 1, data)
	srv := rig.servers[primary]
	mirror := srv.place.ReplicaHolders(srv.id)[0]
	rig.servers[mirror].Close()

	rep, err := srv.ScrubDepth(context.Background(), scrub.DepthReplica)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Corruptions != 0 {
		t.Fatalf("dead mirror misdiagnosed as corruption: %+v", rep)
	}
	if rep.Skipped == 0 {
		t.Fatalf("dead mirror not counted as skip: %+v", rep)
	}
}

// TestVerifiedReadServesAFreshCopy: with the scrubber on, a get checks a copy
// only against a digest computed over that copy. A put installs its object on
// the primary before it records the object's sum, and in between — held open
// here by stalling the put's replica push — the recorded sum is the previous
// content's. A get in that window must serve the new bytes, not withhold them
// as rot; so must a primary read, which answers from the record still naming
// the previous version.
func TestVerifiedReadServesAFreshCopy(t *testing.T) {
	ctx := context.Background()
	gate := newKindGate(transport.MsgReplicaPut)
	rig := newRigOn(t, gate, policy.Replicate, 8, 0)
	box := geometry.Box3D(0, 0, 0, 8, 8, 8)
	size := int(box.Volume()) * 8
	primary := rig.put(t, "fresh", box, 1, payload(size, 15))
	srv := rig.servers[primary]
	if err := srv.StartScrubber(scrub.Config{}); err != nil {
		t.Fatal(err)
	}
	defer srv.StopScrubber()

	release := gate.shut()
	fresh := payload(size, 16)
	done := make(chan error, 1)
	go func() {
		resp, err := gate.Send(ctx, -1, primary, &transport.Message{Kind: transport.MsgPut, Var: "fresh", Box: box, Version: 2, Data: fresh})
		if err == nil {
			err = resp.AsError()
		}
		done <- err
	}()
	<-gate.held // the put has installed its object and waits on its replica push
	key := types.ObjectID{Var: "fresh", Box: box}.Key()
	for _, floor := range []types.Version{0, 1} {
		if resp := srv.Handle(ctx, &transport.Message{Kind: transport.MsgGet, Key: key, Version: floor}); !resp.Flag || !bytes.Equal(resp.Data, fresh) {
			t.Errorf("get naming floor %d mid-put: found %v, new bytes %v; want the new bytes", floor, resp.Flag, bytes.Equal(resp.Data, fresh))
		}
	}
	release()
	if err := <-done; err != nil {
		t.Fatal(err)
	}
}
