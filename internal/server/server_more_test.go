package server

import (
	"bytes"
	"context"
	"reflect"
	"slices"
	"sync"
	"testing"
	"time"

	"corec/internal/geometry"
	"corec/internal/placement"
	"corec/internal/policy"
	"corec/internal/recovery"
	"corec/internal/simnet"
	"corec/internal/topology"
	"corec/internal/transport"
	"corec/internal/types"
)

// TestWholeShardQueryCarriesLayouts: a whole-shard read is records alone,
// and an encoded object's record is all a replacement needs of its stripe —
// the layout rides on it, on exactly the members of the record's directory
// group.
func TestWholeShardQueryCarriesLayouts(t *testing.T) {
	rig := newRig(t, policy.Erasure, 8)
	box := geometry.Box3D(0, 0, 0, 8, 8, 8)
	primary := rig.put(t, "v", box, 1, payload(400, 31))
	id := types.ObjectID{Var: "v", Box: box}
	meta, ok := rig.servers[primary].reader.LookupMeta(context.Background(), id)
	if !ok || meta.State != types.StateEncoded {
		t.Fatalf("object not encoded: %+v", meta)
	}
	// The record lives on the group of the one cell its box touches; every
	// member's shard holds it and no other server's does.
	group := rig.servers[primary].dirPlace.Servers(id.Var, id.Box)
	if len(group) != 2 {
		t.Fatalf("record group %v, want two members", group)
	}
	for i, srv := range rig.servers {
		resp := srv.Handle(context.Background(), &transport.Message{Kind: transport.MsgMetaQuery})
		if resp.Kind != transport.MsgOK {
			t.Fatalf("whole-shard query failed: %+v", resp)
		}
		found := false
		for _, m := range resp.Metas {
			if m.ID.Key() != id.Key() {
				continue
			}
			found = true
			if m.State != types.StateEncoded || m.Stripe != meta.Stripe {
				t.Fatalf("server %d returned meta %+v", i, m)
			}
			if si := m.Layout; si == nil || si.ID != meta.Stripe || si.K != 3 || si.M != 1 || len(si.Members) != 4 {
				t.Fatalf("server %d returned the record with layout %+v", i, si)
			}
		}
		if want := slices.Contains(group, types.ServerID(i)); found != want {
			t.Errorf("server %d: object record in its shard = %v, want %v (group %v)", i, found, want, group)
		}
	}
}

// TestFetchStripeDataUnknownStripe: the one by-id question left is what a
// server itself holds of a stripe. A member answers with the layout its shard
// arrived with, anyone else — and anyone asked about a stripe nobody minted —
// with Flag false; nothing is looked up on the asker's behalf.
func TestFetchStripeDataUnknownStripe(t *testing.T) {
	rig := newRig(t, policy.Erasure, 8)
	box := geometry.Box3D(0, 0, 0, 8, 8, 8)
	primary := rig.put(t, "v", box, 1, payload(400, 32))
	meta, _ := rig.servers[primary].reader.LookupMeta(context.Background(), types.ObjectID{Var: "v", Box: box})
	for i, srv := range rig.servers {
		resp := srv.Handle(context.Background(), &transport.Message{Kind: transport.MsgStripeLookup, Stripe: meta.Stripe})
		_, member := meta.Layout.MemberFor(srv.shardIndexIn(meta.Layout))
		if resp.Flag != member || (resp.StripeInfo != nil) != member {
			t.Errorf("server %d (stripe member: %v) answered Flag=%v StripeInfo=%+v", i, member, resp.Flag, resp.StripeInfo)
		}
		if member && !reflect.DeepEqual(resp.StripeInfo, meta.Layout) {
			t.Errorf("server %d holds layout %+v, the record says %+v", i, resp.StripeInfo, meta.Layout)
		}
		if resp := srv.Handle(context.Background(), &transport.Message{Kind: transport.MsgStripeLookup, Stripe: types.StripeID{Group: 7, Seq: 999}}); resp.Flag || resp.StripeInfo != nil {
			t.Errorf("server %d resolved a stripe nobody minted", i)
		}
	}
}

func TestRecoverKeyWithoutMetadata(t *testing.T) {
	rig := newRig(t, policy.Erasure, 8)
	ghost := types.ObjectID{Var: "ghost", Box: geometry.Box3D(0, 0, 0, 4, 4, 4)}
	if _, err := rig.servers[0].recoverObject(context.Background(), ghost); err == nil {
		t.Fatal("recovering an unknown key succeeded")
	}
}

func TestRecoverKeyUnprotectedObject(t *testing.T) {
	rig := newRig(t, policy.None, 8)
	box := geometry.Box3D(0, 0, 0, 4, 4, 4)
	primary := rig.put(t, "v", box, 1, payload(64, 5))
	repaired, err := rig.servers[primary].recoverObject(context.Background(), types.ObjectID{Var: "v", Box: box})
	if err != nil {
		t.Fatalf("recoverObject on unprotected object: %v", err)
	}
	if repaired {
		t.Fatal("unprotected object reported repaired")
	}
}

func TestWaitEncodeIdleNoopForBaselines(t *testing.T) {
	rig := newRig(t, policy.Erasure, 8)
	done := make(chan struct{})
	go func() {
		rig.servers[0].WaitEncodeIdle()
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(time.Second):
		t.Fatal("WaitEncodeIdle blocked on a server without an encode queue")
	}
}

func TestSerializeStoreCoversAllCategories(t *testing.T) {
	rig := newRig(t, policy.Replicate, 8)
	box := geometry.Box3D(0, 0, 0, 8, 8, 8)
	primary := rig.put(t, "v", box, 1, payload(512, 9))
	replica := rig.place.ReplicaHolders(primary)[0]
	if got := len(rig.servers[primary].SerializeStore()); got != 512 {
		t.Fatalf("primary serialized %d bytes, want 512", got)
	}
	if got := len(rig.servers[replica].SerializeStore()); got != 512 {
		t.Fatalf("replica serialized %d bytes, want 512", got)
	}
}

func TestEfficiencyConstrainedCoRECEnqueuesEncode(t *testing.T) {
	// A CoREC server under the storage constraint must background-encode
	// hot writes rather than keep them replicated.
	rig2 := newConstrainedRig(t, 0.67)
	box := geometry.Box3D(0, 0, 0, 8, 8, 8)
	primary := rig2.put(t, "v", box, 1, payload(4096, 11))
	srv := rig2.servers[primary]
	srv.WaitEncodeIdle()
	key := types.ObjectID{Var: "v", Box: box}.Key()
	srv.mu.Lock()
	st := srv.local[key]
	srv.mu.Unlock()
	if st == nil || st.State != types.StateEncoded {
		t.Fatalf("constrained write not background-encoded: %+v", st)
	}
	if srv.HasObject(key) {
		t.Fatal("full copy kept after background encode")
	}
}

func newConstrainedRig(t testing.TB, s float64) *testRig {
	t.Helper()
	return newRigOn(t, transport.NewInProc(simnet.LinkModel{}), policy.CoREC, 8, s)
}

// TestRunRecoveryLazyMeetsDeadline: the lazy drain spreads its repairs over
// MTBF/4 and ends by it. A repair's own time is spent while the next token
// accrues, not added after the deadline.
func TestRunRecoveryLazyMeetsDeadline(t *testing.T) {
	rig := newRigOn(t, transport.NewInProc(simnet.LinkModel{Latency: 10 * time.Millisecond}), policy.Replicate, 8, 0)
	// Three objects whose primary is the victim: a work list of three.
	victim := types.ServerID(0)
	for i, own := int64(0), 0; own < 3; i++ {
		box := geometry.Box3D(i*8, 0, 0, i*8+8, 8, 8)
		if rig.place.Primary(types.ObjectID{Var: "v", Box: box}) == victim {
			rig.put(t, "v", box, 1, payload(128, 40+i))
			own++
		}
	}
	rig.servers[victim].Close()
	repl := rig.startServer(t, victim)
	repl.cfg.MTBF = 1600 * time.Millisecond
	deadline := recovery.Deadline(repl.cfg.MTBF)
	ctx := context.Background()

	// The work-list build is not paced: build it once, untimed, and time
	// the drain alone.
	work := repl.rebuildDirectoryAndWorklist(ctx)
	if len(work) != 3 {
		t.Fatalf("work list has %d objects, want the victim's 3", len(work))
	}
	start := time.Now()
	repaired, err := repl.drainRepairs(ctx, recovery.Lazy, work)
	drain := time.Since(start)
	if err != nil {
		t.Fatal(err)
	}
	if repaired != len(work) {
		t.Fatalf("repaired %d of %d objects", repaired, len(work))
	}
	// Paced: n repairs one token apart start no sooner than (n-1)/n of the
	// deadline; on time: the last one ends by it.
	floor := deadline * time.Duration(len(work)-1) / time.Duration(len(work))
	if drain < floor*9/10 || drain > deadline {
		t.Fatalf("drain of %d repairs took %v; want within [%v, %v]", len(work), drain, floor, deadline)
	}
	t.Logf("drained %d repairs in %v (deadline %v)", len(work), drain, deadline)
}

func TestCodingMembersRotation(t *testing.T) {
	rig := newRig(t, policy.Erasure, 8)
	m2 := rig.place.CodingGroup(2)
	// Server 2 is slot 2 of coding group {0,1,2,3}: rotation [2,3,0,1].
	want := []types.ServerID{2, 3, 0, 1}
	for i := range want {
		if m2[i] != want[i] {
			t.Fatalf("CodingGroup(2) = %v, want %v", m2, want)
		}
	}
	m5 := rig.place.CodingGroup(5)
	want5 := []types.ServerID{5, 6, 7, 4}
	for i := range want5 {
		if m5[i] != want5[i] {
			t.Fatalf("CodingGroup(5) = %v, want %v", m5, want5)
		}
	}
}

func TestVersionedReplicaDropKeepsNewer(t *testing.T) {
	rig := newRig(t, policy.Replicate, 8)
	srv := rig.servers[3]
	id := types.ObjectID{Var: "v", Box: geometry.Box3D(0, 0, 0, 2, 2, 2)}
	srv.handleReplicaPut(&transport.Message{Var: "v", Box: id.Box, Version: 5, Data: []byte{1}})
	// A drop for an older version must not remove the newer replica.
	srv.handleReplicaDrop(&transport.Message{Key: id.Key(), Version: 3})
	if !srv.HasReplica(id.Key()) {
		t.Fatal("old-version drop removed a newer replica")
	}
	srv.handleReplicaDrop(&transport.Message{Key: id.Key(), Version: 5})
	if srv.HasReplica(id.Key()) {
		t.Fatal("matching-version drop kept the replica")
	}
	// Unversioned drop (legacy) removes unconditionally.
	srv.handleReplicaPut(&transport.Message{Var: "v", Box: id.Box, Version: 9, Data: []byte{1}})
	srv.handleReplicaDrop(&transport.Message{Key: id.Key()})
	if srv.HasReplica(id.Key()) {
		t.Fatal("unversioned drop kept the replica")
	}
}

func TestRestoreModeMetaUpdateNeverClobbersSameVersion(t *testing.T) {
	rig := newRig(t, policy.CoREC, 8)
	srv := rig.servers[0]
	id := types.ObjectID{Var: "v", Box: geometry.Box3D(0, 0, 0, 2, 2, 2)}
	live := &types.ObjectMeta{ID: id, Version: 8, State: types.StateEncoded, Primary: 1}
	srv.handleMetaUpdate(&transport.Message{Meta: live})
	stale := &types.ObjectMeta{ID: id, Version: 8, State: types.StateReplicated, Primary: 1}
	srv.handleMetaUpdate(&transport.Message{Meta: stale, Flag: true}) // restore mode
	resp := srv.handleMetaLookup(&transport.Message{Key: id.Key()})
	if !resp.Flag || resp.Meta.State != types.StateEncoded {
		t.Fatalf("restore-mode update clobbered the live record: %+v", resp.Meta)
	}
	// A normal (non-restore) same-version update still wins: state
	// transitions bump state at constant version by design.
	srv.handleMetaUpdate(&transport.Message{Meta: stale})
	resp = srv.handleMetaLookup(&transport.Message{Key: id.Key()})
	if resp.Meta.State != types.StateReplicated {
		t.Fatal("normal same-version update was rejected")
	}
}

// leaveOnPushNet takes a server out of the ring the moment the first shard of
// an encode goes out: membership changing under an encode in flight.
type leaveOnPushNet struct {
	*transport.InProc
	once  sync.Once
	leave func()
}

func (n *leaveOnPushNet) Send(ctx context.Context, from, to types.ServerID, req *transport.Message) (*transport.Message, error) {
	if req.Kind == transport.MsgShardPut {
		n.once.Do(n.leave)
	}
	return n.InProc.Send(ctx, from, to, req)
}

// TestEncodeAbandonedWhenTheRingMovesUnderIt: an elastic server chooses a
// stripe's members from the ring as it is when the encode starts. If a
// member has left by the time the shards are out, its shard left with it, so
// the encode must not commit — the stripe is dropped, the put is refused as
// retryable and the object stays a full copy — and the resent put encodes
// over the ring as it then is.
func TestEncodeAbandonedWhenTheRingMovesUnderIt(t *testing.T) {
	ctx := context.Background()
	const n = 6
	ring := topology.NewDynamicRing(0)
	for i := 0; i < n; i++ {
		ring.Join(types.ServerID(i), i)
	}
	net := &leaveOnPushNet{InProc: transport.NewInProc(simnet.LinkModel{})}
	servers := make([]*Server, n)
	for i := range servers {
		var err error
		servers[i], err = New(Config{
			ID: types.ServerID(i), Placement: placement.NewRing(ring, 1, 4), Network: net,
			Policy: policy.Config{Mode: policy.Erasure, NLevel: 1, K: 3, M: 1}, Domain: rigDomain,
		})
		if err != nil {
			t.Fatal(err)
		}
		defer servers[i].Close()
	}
	id := types.ObjectID{Var: "v", Box: geometry.Box3D(0, 0, 0, 8, 8, 8)}
	primary := servers[ring.OwnerKey(id.Key())]
	leaver := primary.place.CodingGroup(primary.id)[2]
	net.leave = func() { ring.Leave(leaver) }

	put := &transport.Message{Kind: transport.MsgPut, Var: id.Var, Box: id.Box, Version: 1, Data: payload(600, 41)}
	resp := primary.Handle(ctx, put)
	if resp.Kind != transport.MsgErr || !resp.Flag {
		t.Fatalf("put whose encode lost a member mid-flight answered %+v, want a retryable error", resp)
	}
	for i, srv := range servers {
		if held := srv.store.Len(); held != 0 {
			t.Errorf("server %d holds %d shards of the abandoned stripe", i, held)
		}
	}
	if !primary.HasObject(id.Key()) {
		t.Fatal("the abandoned encode took the full copy with it")
	}
	if meta, ok := primary.reader.LookupMeta(ctx, id); ok {
		t.Fatalf("the abandoned encode published %+v", meta)
	}

	if resp := primary.Handle(ctx, put); resp.AsError() != nil {
		t.Fatalf("resent put: %v", resp.AsError())
	}
	meta, ok := primary.reader.LookupMeta(ctx, id)
	if !ok || meta.State != types.StateEncoded || meta.Layout == nil {
		t.Fatalf("resent put left record %+v, want encoded", meta)
	}
	for _, m := range meta.Layout.Members {
		if m.Server == leaver {
			t.Fatalf("the resent put placed shard %d on server %d, which left the ring", m.Index, leaver)
		}
		if !servers[m.Server].HasShard(meta.Stripe, m.Index) {
			t.Errorf("server %d lacks shard %d of the committed stripe", m.Server, m.Index)
		}
	}
}

// TestHandoffRefusedOnceALaterRecordIsPublished: the migrator's handoff names
// the record it acted on. A primary whose queued encode committed since — the
// directory may by now point at that very stripe — refuses and keeps stripe
// and bookkeeping; a handoff naming the record it last published releases the
// bookkeeping, and of the stripe, which the new primary's record keeps, only
// the shard whose slot that record gives to another server.
func TestHandoffRefusedOnceALaterRecordIsPublished(t *testing.T) {
	ctx := context.Background()
	rig := newRig(t, policy.Replicate, 8)
	box := geometry.Box3D(0, 0, 0, 8, 8, 8)
	id := types.ObjectID{Var: "v", Box: box}
	srv := rig.servers[rig.put(t, "v", box, 1, payload(600, 51))]
	acted, _ := srv.reader.LookupMeta(ctx, id) // the replicated record a migrator reads
	srv.mu.Lock()
	obj := srv.objects[id.Key()]
	srv.mu.Unlock()
	if err := srv.encodeObject(ctx, obj, types.StripeID{}, true); err != nil {
		t.Fatal(err)
	}
	now, _ := srv.reader.LookupMeta(ctx, id)
	if now.State != types.StateEncoded || now.Seq <= acted.Seq {
		t.Fatalf("encode published %+v after %+v", now, acted)
	}
	// The new primary's record: slot 0 went to a server outside the stripe.
	edited := now.Clone()
	for _, s := range rig.servers {
		if s.shardIndexIn(now.Layout) < 0 {
			edited.Primary, edited.Layout.Members[0].Server = s.id, s.id
			break
		}
	}
	handoff := func(seq uint64) bool {
		return srv.Handle(ctx, &transport.Message{Kind: transport.MsgHandoff, Key: id.Key(), Version: 1, Num: int64(seq), Meta: edited}).Flag
	}
	holds := func() (shards int) {
		for _, m := range now.Layout.Members {
			if rig.servers[m.Server].HasShard(now.Stripe, m.Index) {
				shards++
			}
		}
		return shards
	}
	if handoff(acted.Seq) {
		t.Fatal("a handoff acting on the superseded record was accepted")
	}
	if enc := srv.CollectStats().Encoded; enc != 1 || holds() != 4 {
		t.Fatalf("the refused handoff left %d encoded objects and %d of 4 shards", enc, holds())
	}
	if !handoff(now.Seq) {
		t.Fatal("a handoff acting on the current record was refused")
	}
	if enc := srv.CollectStats().Encoded; enc != 0 || holds() != 3 || srv.HasShard(now.Stripe, 0) {
		t.Fatalf("the accepted handoff left %d encoded objects and %d of the 3 kept shards", enc, holds())
	}
}

// TestEditActingOnAnOlderRecordIsRefused: a membership edit names the record
// it was made from. A primary that published a later record since — here a
// newer write — refuses it: it restores nothing, asks no one to, publishes
// nothing, and the newer write reads back.
func TestEditActingOnAnOlderRecordIsRefused(t *testing.T) {
	ctx := context.Background()
	rig := newRig(t, policy.Replicate, 8)
	box := geometry.Box3D(0, 0, 0, 8, 8, 8)
	id := types.ObjectID{Var: "v", Box: box}
	srv := rig.servers[rig.put(t, "v", box, 1, payload(600, 61))]
	acted, _ := srv.reader.LookupMeta(ctx, id) // the record a migrator reads
	newer := payload(600, 62)
	rig.put(t, "v", box, 2, newer)

	// The edit names a holder outside the replica group.
	edited := acted.Clone()
	for _, s := range rig.servers {
		if !slices.Contains(acted.Locations(), s.id) {
			edited.Replicas = []types.ServerID{s.id}
			break
		}
	}
	resp := srv.Handle(ctx, &transport.Message{
		Kind: transport.MsgRecover, Var: id.Var, Box: id.Box, Meta: edited, Metas: []types.ObjectMeta{*acted},
	})
	if resp.AsError() != nil || resp.Flag || resp.Meta == nil || resp.Meta.Version != 2 {
		t.Fatalf("edit of the superseded record answered %+v, want a refusal carrying the version 2 record", resp)
	}
	if rig.servers[edited.Replicas[0]].HasReplica(id.Key()) {
		t.Fatal("the refused edit had its new holder restore a copy")
	}
	now, ok := srv.reader.LookupMeta(ctx, id)
	if !ok || now.Version != 2 || now.Seq == edited.Seq || !slices.Equal(now.Replicas, acted.Replicas) {
		t.Fatalf("directory holds %+v after the refused edit, want the version 2 write's record", now)
	}
	got := make([]byte, len(newer))
	if err := srv.reader.Object(ctx, now, got); err != nil || !bytes.Equal(got, newer) {
		t.Fatalf("newer write reads back %v", err)
	}
}
