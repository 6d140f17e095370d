package server

import (
	"context"
	"slices"
	"testing"
	"time"

	"corec/internal/geometry"
	"corec/internal/policy"
	"corec/internal/recovery"
	"corec/internal/simnet"
	"corec/internal/transport"
	"corec/internal/types"
)

func TestDirDumpContainsMetasAndStripes(t *testing.T) {
	rig := newRig(t, policy.Erasure, 8)
	box := geometry.Box3D(0, 0, 0, 8, 8, 8)
	primary := rig.put(t, "v", box, 1, payload(400, 31))
	id := types.ObjectID{Var: "v", Box: box}
	meta, ok := rig.servers[primary].reader.LookupMeta(context.Background(), id)
	if !ok || meta.State != types.StateEncoded {
		t.Fatalf("object not encoded: %+v", meta)
	}
	// The object record lives on the group of the one cell its box touches,
	// the stripe record on the group its id hashes to; every member's dump
	// holds its record and no other server's does.
	dir := rig.servers[primary].dirPlace
	metaGroup, stripeGroup := dir.Servers(id.Var, id.Box), dir.StripeServers(meta.Stripe)
	if len(metaGroup) != 2 || len(stripeGroup) != 2 {
		t.Fatalf("record groups %v / %v, want two members each", metaGroup, stripeGroup)
	}
	for i, srv := range rig.servers {
		resp := srv.handleDirDump(&transport.Message{Kind: transport.MsgDirDump})
		if resp.Kind != transport.MsgOK {
			t.Fatalf("dump failed: %+v", resp)
		}
		foundMeta, foundStripe := false, false
		for _, m := range resp.Metas {
			if m.ID.Key() == id.Key() {
				foundMeta = true
				if m.State != types.StateEncoded || m.Stripe != meta.Stripe {
					t.Fatalf("server %d dumped meta %+v", i, m)
				}
			}
		}
		for _, si := range resp.Stripes {
			if si.ID == meta.Stripe {
				foundStripe = true
				if si.K != 3 || si.M != 1 || len(si.Members) != 4 {
					t.Fatalf("server %d dumped stripe %+v", i, si)
				}
			}
		}
		if want := slices.Contains(metaGroup, types.ServerID(i)); foundMeta != want {
			t.Errorf("server %d: object record in dump = %v, want %v (group %v)", i, foundMeta, want, metaGroup)
		}
		if want := slices.Contains(stripeGroup, types.ServerID(i)); foundStripe != want {
			t.Errorf("server %d: stripe record in dump = %v, want %v (group %v)", i, foundStripe, want, stripeGroup)
		}
	}
}

func TestFetchStripeDataUnknownStripe(t *testing.T) {
	rig := newRig(t, policy.Erasure, 8)
	if _, ok := rig.servers[0].stripeInfoFor(context.Background(), types.StripeID{Group: 7, Seq: 999}); ok {
		t.Fatal("unknown stripe resolved")
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
	// Even policy.None needs valid group geometry in this rig; use the
	// erasure rig's groups but a none-mode decider by building manually.
	// Simpler: put through a none-mode server set.
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
	replica := rig.groups.ReplicaTargets(primary, 1)[0]
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
	if st == nil || st.state != types.StateEncoded {
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

func TestRunRecoveryLazyUsesPacer(t *testing.T) {
	rig := newRig(t, policy.Replicate, 8)
	for i := int64(0); i < 6; i++ {
		rig.put(t, "v", geometry.Box3D(i*8, 0, 0, i*8+8, 8, 8), 1, payload(128, 40+i))
	}
	victim := types.ServerID(0)
	rig.servers[victim].Close()
	repl := rig.startServer(t, victim)
	repl.cfg.MTBF = 200 * time.Millisecond // deadline 50ms
	start := time.Now()
	if _, err := repl.RunRecovery(context.Background(), recovery.Lazy); err != nil {
		t.Fatal(err)
	}
	// Pacing must stretch the drain toward the deadline when there is
	// work; an empty worklist finishes instantly, so only assert no hang.
	if time.Since(start) > 5*time.Second {
		t.Fatal("lazy recovery drastically overshot its deadline")
	}
}

func TestCodingMembersRotation(t *testing.T) {
	rig := newRig(t, policy.Erasure, 8)
	m2 := rig.servers[2].codingMembers()
	// Server 2 is slot 2 of coding group {0,1,2,3}: rotation [2,3,0,1].
	want := []types.ServerID{2, 3, 0, 1}
	for i := range want {
		if m2[i] != want[i] {
			t.Fatalf("codingMembers(2) = %v, want %v", m2, want)
		}
	}
	m5 := rig.servers[5].codingMembers()
	want5 := []types.ServerID{5, 6, 7, 4}
	for i := range want5 {
		if m5[i] != want5[i] {
			t.Fatalf("codingMembers(5) = %v, want %v", m5, want5)
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
