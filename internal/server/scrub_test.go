package server

import (
	"bytes"
	"context"
	"math/rand"
	"testing"

	"corec/internal/geometry"
	"corec/internal/policy"
	"corec/internal/scrub"
	"corec/internal/transport"
	"corec/internal/types"
)

// TestScrubBackfillsLegacyChecksums simulates a store written before at-rest
// checksums existed (zeroed sums everywhere) and verifies the first local
// pass computes-and-records instead of flagging corruption.
func TestScrubBackfillsLegacyChecksums(t *testing.T) {
	rig := newRig(t, policy.Replicate, 8)
	box := geometry.Box3D(0, 0, 0, 8, 8, 8)
	data := payload(int(box.Volume())*8, 11)
	primary := rig.put(t, "legacy", box, 1, data)
	srv := rig.servers[primary]
	key := types.ObjectID{Var: "legacy", Box: box}.Key()

	// Erase every checksum the write path recorded, as if the object were
	// staged by a pre-scrub build: local state, mirror sums, and the
	// directory record.
	srv.mu.Lock()
	if st := srv.local[key]; st != nil {
		st.sum = 0
	} else {
		srv.mu.Unlock()
		t.Fatal("primary has no local state")
	}
	srv.mu.Unlock()
	mirror := srv.place.ReplicaHolders(srv.id)[0]
	msrv := rig.servers[mirror]
	msrv.mu.Lock()
	delete(msrv.replicaSums, key)
	msrv.mu.Unlock()
	for _, s := range rig.servers {
		s.dir.mu.Lock()
		if m := s.dir.metas[key]; m != nil {
			m.Checksum = 0
		}
		s.dir.mu.Unlock()
	}

	ctx := context.Background()
	rep, err := srv.ScrubDepth(ctx, scrub.DepthLocal)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Backfills == 0 {
		t.Fatalf("primary pass recorded no backfill: %+v", rep)
	}
	if rep.Corruptions != 0 {
		t.Fatalf("legacy object misdiagnosed as corrupt: %+v", rep)
	}
	mrep, err := msrv.ScrubDepth(ctx, scrub.DepthLocal)
	if err != nil {
		t.Fatal(err)
	}
	if mrep.Backfills == 0 || mrep.Corruptions != 0 {
		t.Fatalf("mirror backfill pass: %+v", mrep)
	}

	// The sums are recorded again, locally and in the directory.
	want := scrub.Checksum(data)
	srv.mu.Lock()
	got := srv.local[key].sum
	srv.mu.Unlock()
	if got != want {
		t.Fatalf("primary sum = %x, want %x", got, want)
	}
	msrv.mu.Lock()
	mgot := msrv.replicaSums[key]
	msrv.mu.Unlock()
	if mgot != want {
		t.Fatalf("mirror sum = %x, want %x", mgot, want)
	}
	if meta, ok := srv.reader.LookupMeta(ctx, types.ObjectID{Var: "legacy", Box: box}); !ok || meta.Checksum != want {
		t.Fatalf("directory checksum not backfilled (ok=%v)", ok)
	}

	// A second pass finds nothing left to backfill.
	rep2, err := srv.ScrubDepth(ctx, scrub.DepthLocal)
	if err != nil {
		t.Fatal(err)
	}
	if rep2.Backfills != 0 || rep2.Corruptions != 0 {
		t.Fatalf("second pass not clean: %+v", rep2)
	}
}

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
	var events []RotEvent
	for _, s := range rig.servers {
		if evs := s.InjectBitRot(rng, RotShards, 1); len(evs) > 0 {
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
