package server

import (
	"bytes"
	"context"
	"math/rand"
	"reflect"
	"testing"
	"time"
	"unsafe"

	"corec/internal/classifier"
	"corec/internal/geometry"
	"corec/internal/metrics"
	"corec/internal/placement"
	"corec/internal/policy"
	"corec/internal/reader"
	"corec/internal/recovery"
	"corec/internal/simnet"
	"corec/internal/transport"
	"corec/internal/types"
)

// testRig wires a full 8-server fabric with a shared collector.
type testRig struct {
	net     transport.Network
	place   placement.Placement
	col     *metrics.Collector
	servers []*Server
	polCfg  policy.Config
}

func newRig(t testing.TB, mode policy.Mode, n int) *testRig {
	t.Helper()
	return newRigOn(t, transport.NewInProc(simnet.LinkModel{}), mode, n, 0)
}

// newRigOn builds the rig on the given fabric, RS(3+1), with
// storage-efficiency constraint sMin (0: none).
func newRigOn(t testing.TB, net transport.Network, mode policy.Mode, n int, sMin float64) *testRig {
	t.Helper()
	return newRigWith(t, net, n, policy.Config{Mode: mode, NLevel: 1, K: 3, M: 1, StorageEfficiencyMin: sMin})
}

// newRigWith builds the rig on the given fabric under the given policy, over
// a static placement with the policy's replica count and stripe width (both
// groups must tile n).
func newRigWith(t testing.TB, net transport.Network, n int, pol policy.Config) *testRig {
	t.Helper()
	place, err := placement.NewGroupedHash(n, pol.NLevel, pol.K+pol.M)
	if err != nil {
		t.Fatal(err)
	}
	rig := &testRig{
		net:    net,
		place:  place,
		col:    metrics.NewCollector(),
		polCfg: pol,
	}
	for i := 0; i < n; i++ {
		srv := rig.startServer(t, types.ServerID(i))
		rig.servers = append(rig.servers, srv)
	}
	return rig
}

// rigDomain bounds the rigs' staged space: 64 directory cells of 32x32x64.
var rigDomain = geometry.Box3D(0, 0, 0, 1024, 64, 64)

func (r *testRig) startServer(t testing.TB, id types.ServerID) *Server {
	t.Helper()
	srv, err := New(Config{
		ID:               id,
		Placement:        r.place,
		Network:          r.net,
		Policy:           r.polCfg,
		Collector:        r.col,
		Domain:           rigDomain,
		RecoveryMode:     recovery.Lazy,
		MTBF:             time.Second,
		HelperLoadDelta:  2,
		ClassifierConfig: classifier.DefaultConfig(rigDomain),
	})
	if err != nil {
		t.Fatal(err)
	}
	return srv
}

func (r *testRig) put(t testing.TB, name string, box geometry.Box, v types.Version, data []byte) types.ServerID {
	t.Helper()
	id := types.ObjectID{Var: name, Box: box}
	primary := r.place.Primary(id)
	resp, err := r.net.Send(context.Background(), -1, primary, &transport.Message{
		Kind: transport.MsgPut, Var: name, Box: box, Version: v, Data: data,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := resp.AsError(); err != nil {
		t.Fatal(err)
	}
	return primary
}

func payload(n int, seed int64) []byte {
	b := make([]byte, n)
	rand.New(rand.NewSource(seed)).Read(b)
	return b
}

func TestServerConfigValidation(t *testing.T) {
	if _, err := New(Config{}); err == nil {
		t.Fatal("empty config accepted")
	}
	place, err := placement.NewGroupedHash(8, 1, 4)
	if err != nil {
		t.Fatal(err)
	}
	// Coding group size must match k+m.
	_, err = New(Config{
		ID: 0, Placement: place,
		Domain:  rigDomain,
		Network: transport.NewInProc(simnet.LinkModel{}),
		Policy:  policy.Config{Mode: policy.Erasure, NLevel: 1, K: 5, M: 1},
	})
	if err == nil {
		t.Fatal("mismatched coding group size accepted")
	}
}

func TestReplicationPlacesCopiesInGroup(t *testing.T) {
	rig := newRig(t, policy.Replicate, 8)
	box := geometry.Box3D(0, 0, 0, 8, 8, 8)
	primary := rig.put(t, "v", box, 1, payload(512, 1))
	key := types.ObjectID{Var: "v", Box: box}.Key()

	if !rig.servers[primary].HasObject(key) {
		t.Fatal("primary lost the object")
	}
	targets := rig.place.ReplicaHolders(primary)
	if len(targets) != 1 || !rig.servers[targets[0]].HasReplica(key) {
		t.Fatalf("replica not placed on group peer %v", targets)
	}
	// Replica must be a different server of the same replication group: the
	// rig's groups are the pairs {0,1}, {2,3}, ...
	if targets[0] == primary || targets[0]/2 != primary/2 {
		t.Fatal("replica escaped the replication group")
	}
}

func TestErasurePlacesStripeAcrossCodingGroup(t *testing.T) {
	rig := newRig(t, policy.Erasure, 8)
	box := geometry.Box3D(0, 0, 0, 8, 8, 8)
	primary := rig.put(t, "v", box, 1, payload(600, 2))
	key := types.ObjectID{Var: "v", Box: box}.Key()

	if rig.servers[primary].HasObject(key) {
		t.Fatal("primary kept the full copy after encoding")
	}
	// Every coding-group member must hold exactly one shard of the stripe.
	srv := rig.servers[primary]
	members := rig.place.CodingGroup(primary)
	srv.mu.Lock()
	st := srv.local[key]
	srv.mu.Unlock()
	if st == nil || st.state != types.StateEncoded {
		t.Fatalf("local state = %+v", st)
	}
	for i, m := range members {
		if !rig.servers[m].HasShard(st.layout.ID, i) {
			t.Fatalf("member %d (server %d) missing shard %d", i, m, i)
		}
	}
}

func TestErasureUpdateReusesStripe(t *testing.T) {
	rig := newRig(t, policy.Erasure, 8)
	box := geometry.Box3D(0, 0, 0, 8, 8, 8)
	primary := rig.put(t, "v", box, 1, payload(600, 3))
	key := types.ObjectID{Var: "v", Box: box}.Key()
	srv := rig.servers[primary]
	srv.mu.Lock()
	stripe1 := srv.local[key].layout.ID
	srv.mu.Unlock()

	rig.put(t, "v", box, 2, payload(600, 4))
	srv.mu.Lock()
	stripe2 := srv.local[key].layout.ID
	srv.mu.Unlock()
	if stripe1 != stripe2 {
		t.Fatalf("update minted a new stripe: %v -> %v", stripe1, stripe2)
	}
}

func TestEfficiencyAccounting(t *testing.T) {
	rig := newRig(t, policy.Replicate, 8)
	box := geometry.Box3D(0, 0, 0, 8, 8, 8)
	primary := rig.put(t, "v", box, 1, payload(1000, 5))
	srv := rig.servers[primary]
	st := srv.CollectStats()
	if st.Efficiency != 0.5 {
		t.Fatalf("replicated efficiency = %v, want 0.5", st.Efficiency)
	}
	if st.Replicated != 1 || st.Encoded != 0 {
		t.Fatalf("state counts = %d/%d", st.Replicated, st.Encoded)
	}
}

func TestTokenMutualExclusion(t *testing.T) {
	rig := newRig(t, policy.CoREC, 8)
	leader := rig.servers[0] // server 0 leads replication group {0,1}
	resp := leader.handleTokenAcquire(&transport.Message{Kind: transport.MsgTokenAcquire, From: 0})
	if !resp.Flag {
		t.Fatal("first acquire denied")
	}
	resp = leader.handleTokenAcquire(&transport.Message{Kind: transport.MsgTokenAcquire, From: 1})
	if resp.Flag {
		t.Fatal("second acquire granted while held by another server")
	}
	resp = leader.handleTokenAcquire(&transport.Message{Kind: transport.MsgTokenAcquire, From: 0})
	if resp.Flag {
		t.Fatal("second acquire granted to the holder itself: its encode workers share one token")
	}
	leader.handleTokenRelease(&transport.Message{Kind: transport.MsgTokenRelease, From: 1})
	resp = leader.handleTokenAcquire(&transport.Message{Kind: transport.MsgTokenAcquire, From: 1})
	if resp.Flag {
		t.Fatal("a release by a server that does not hold the token freed it")
	}
	leader.handleTokenRelease(&transport.Message{Kind: transport.MsgTokenRelease, From: 0})
	resp = leader.handleTokenAcquire(&transport.Message{Kind: transport.MsgTokenAcquire, From: 1})
	if !resp.Flag {
		t.Fatal("acquire after release denied")
	}
}

// TestTokenLeaseEndsWithItsHolder: the encoding token is a lease on its
// holder's life. A holder killed between acquire and release, and replaced
// under its ID, is granted the token again at its first request; one the
// fabric knows to be down loses it to the next requester — here the leader
// itself — at that requester's first attempt, where the leader used to refuse
// every acquire of the group for the rest of the run.
func TestTokenLeaseEndsWithItsHolder(t *testing.T) {
	ctx := context.Background()
	rig := newRig(t, policy.CoREC, 8)
	leader := rig.servers[0] // server 0 leads replication group {0,1}
	holder := func() (types.ServerID, bool) {
		leader.mu.Lock()
		defer leader.mu.Unlock()
		return leader.tokenHolder, leader.tokenBusy
	}
	ask := func(from *Server) bool {
		return leader.handleTokenAcquire(&transport.Message{Kind: transport.MsgTokenAcquire, From: from.id, Num: int64(from.incarnation)}).Flag
	}

	killed := rig.servers[1]
	killed.acquireToken(ctx) // killed before it releases
	killed.Close()
	if id, busy := holder(); !busy || id != 1 {
		t.Fatalf("token held by %d (busy %v), want server 1", id, busy)
	}
	rig.servers[1] = rig.startServer(t, 1)
	if ask(killed) {
		t.Fatal("the token was granted twice to one instance of its holder")
	}
	if !ask(rig.servers[1]) {
		t.Fatal("the replaced holder was refused the token its predecessor held")
	}

	rig.servers[1].Close() // killed again, still holding
	if ask(leader) {
		t.Fatal("the token changed hands before the fabric knew its holder dead")
	}
	if _, err := leader.sendRetry(ctx, 1, &transport.Message{Kind: transport.MsgPing}); err == nil || !leader.reader.Health.Down(1) {
		t.Fatalf("a send to the dead holder: %v, marked down %v", err, leader.reader.Health.Down(1))
	}
	release := leader.acquireToken(ctx)
	if id, busy := holder(); !busy || id != 0 {
		t.Fatalf("after the leader's acquire the token is held by %d (busy %v), want the leader at its first attempt", id, busy)
	}
	release()
	if _, busy := holder(); busy {
		t.Fatal("the leader's release left the token busy")
	}
}

func TestAcquireTokenFallsBackWhenLeaderDead(t *testing.T) {
	rig := newRig(t, policy.CoREC, 8)
	// Server 1's token leader is server 0; kill it.
	rig.servers[0].Close()
	done := make(chan struct{})
	go func() {
		release := rig.servers[1].acquireToken(context.Background())
		release()
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(2 * time.Second):
		t.Fatal("acquireToken hung with a dead leader")
	}
}

func TestEncodeDelegateUsesReplica(t *testing.T) {
	rig := newRig(t, policy.CoREC, 8)
	box := geometry.Box3D(0, 0, 0, 8, 8, 8)
	// CoREC put: fresh write replicates.
	primary := rig.put(t, "v", box, 1, payload(900, 6))
	key := types.ObjectID{Var: "v", Box: box}.Key()
	helper := rig.place.ReplicaHolders(primary)[0]
	if !rig.servers[helper].HasReplica(key) {
		t.Fatal("helper lacks the replica")
	}
	// Delegate encoding to the helper explicitly.
	srv := rig.servers[primary]
	srvObj := func() *types.Object {
		srv.mu.Lock()
		defer srv.mu.Unlock()
		return srv.objects[key]
	}()
	shards, shardSize := srv.codec.Split(srvObj.Data)
	members := rig.place.CodingGroup(primary)
	info := &types.StripeInfo{ID: types.StripeID{Group: 99, Seq: 1}, K: 3, M: 1, ShardSize: shardSize}
	for i, m := range members {
		info.Members = append(info.Members, types.StripeMember{Server: m, Index: i})
	}
	ok := srv.delegateEncode(context.Background(), helper, srvObj, info)
	if !ok {
		t.Fatal("delegation refused")
	}
	// The helper must have distributed all non-primary shards.
	for i := 1; i < len(members); i++ {
		if !rig.servers[members[i]].HasShard(info.ID, i) {
			t.Fatalf("shard %d not distributed by helper", i)
		}
	}
	_ = shards
}

// TestKeptShardsOwnTheirMemory: Split's data shards are windows of the
// buffer they were cut from, so a shard a server keeps must be copied out,
// or the store pins the whole buffer behind a third of it. After a
// delegated encode the shard the helper delivered to itself shares no
// memory with its replica, and after a committed encode the primary's shard
// 0 shares none with the object.
func TestKeptShardsOwnTheirMemory(t *testing.T) {
	ctx := context.Background()
	rig := newRig(t, policy.CoREC, 8)
	box := geometry.Box3D(0, 0, 0, 8, 8, 8)
	id := types.ObjectID{Var: "v", Box: box}
	primary := rig.put(t, "v", box, 1, payload(3000, 8)) // three whole 1000-byte shards
	srv := rig.servers[primary]
	helper := rig.place.ReplicaHolders(primary)[0]
	hs := rig.servers[helper]
	srv.mu.Lock()
	obj := srv.objects[id.Key()]
	srv.mu.Unlock()
	hs.mu.Lock()
	replica := hs.replicas[id.Key()]
	hs.mu.Unlock()

	info := &types.StripeInfo{ID: types.StripeID{Group: 99, Seq: 1}, K: 3, M: 1, ShardSize: 1000}
	own := -1
	for i, m := range rig.place.CodingGroup(primary) {
		info.Members = append(info.Members, types.StripeMember{Server: m, Index: i})
		if m == helper {
			own = i
		}
	}
	if own < 1 || own > 2 {
		t.Fatalf("helper holds shard %d; the test needs it to hold a data shard", own)
	}
	if !srv.delegateEncode(ctx, helper, obj, info) {
		t.Fatal("delegation refused")
	}
	kept, ok := hs.store.Get(shardKey(info.ID, own))
	if !ok || !bytes.Equal(kept, replica.Data[own*1000:(own+1)*1000]) {
		t.Fatalf("helper's own shard %d missing or wrong", own)
	}
	if overlaps(kept, replica.Data) {
		t.Fatalf("helper's own shard %d is a window of its replica", own)
	}

	if err := srv.encodeObject(ctx, obj, 0, types.StripeID{}, true); err != nil {
		t.Fatal(err)
	}
	meta, ok := srv.reader.LookupMeta(ctx, id)
	if !ok || meta.State != types.StateEncoded {
		t.Fatalf("encode left record %+v", meta)
	}
	kept, ok = srv.store.Get(shardKey(meta.Stripe, 0))
	if !ok || !bytes.Equal(kept, obj.Data[:1000]) {
		t.Fatal("primary's shard 0 missing or wrong")
	}
	if overlaps(kept, obj.Data) {
		t.Fatal("primary's shard 0 is a window of the object")
	}
}

// overlaps reports whether the memory behind a and b (to their capacities)
// overlaps.
func overlaps(a, b []byte) bool {
	if cap(a) == 0 || cap(b) == 0 {
		return false
	}
	a0 := uintptr(unsafe.Pointer(unsafe.SliceData(a)))
	b0 := uintptr(unsafe.Pointer(unsafe.SliceData(b)))
	return a0 < b0+uintptr(cap(b)) && b0 < a0+uintptr(cap(a))
}

func TestDelegateRefusedWithoutReplica(t *testing.T) {
	rig := newRig(t, policy.CoREC, 8)
	srv := rig.servers[0]
	resp := srv.handleEncodeDelegate(context.Background(), &transport.Message{
		Kind: transport.MsgEncodeDelegate, Key: "nope",
		StripeInfo: &types.StripeInfo{K: 3, M: 1},
	})
	if resp.Kind != transport.MsgOK || resp.Flag {
		t.Fatalf("delegate without replica: %+v", resp)
	}
}

func TestDirectoryUpdateLookupQuery(t *testing.T) {
	rig := newRig(t, policy.Replicate, 8)
	srv := rig.servers[3]
	meta := &types.ObjectMeta{
		ID:      types.ObjectID{Var: "v", Box: geometry.Box3D(0, 0, 0, 4, 4, 4)},
		Version: 2, Size: 64, State: types.StateReplicated, Primary: 1,
	}
	if err := srv.dirUpdate(context.Background(), meta); err != nil {
		t.Fatal(err)
	}
	got, ok := srv.reader.LookupMeta(context.Background(), meta.ID)
	if !ok || got.Version != 2 || got.Primary != 1 {
		t.Fatalf("lookup = %+v ok=%v", got, ok)
	}
	// Older updates must not clobber newer records.
	stale := meta.Clone()
	stale.Version = 1
	stale.Primary = 7
	if err := srv.dirUpdate(context.Background(), stale); err != nil {
		t.Fatal(err)
	}
	got, _ = srv.reader.LookupMeta(context.Background(), meta.ID)
	if got.Version != 2 {
		t.Fatal("stale update clobbered a newer record")
	}
}

func TestDirectorySurvivesShardHolderFailure(t *testing.T) {
	rig := newRig(t, policy.Replicate, 8)
	srv := rig.servers[3]
	meta := &types.ObjectMeta{
		ID:   types.ObjectID{Var: "v", Box: geometry.Box3D(8, 0, 0, 12, 4, 4)},
		Size: 64, State: types.StateReplicated, Primary: 1,
	}
	if err := srv.dirUpdate(context.Background(), meta); err != nil {
		t.Fatal(err)
	}
	// The record's box lies in one directory cell: one group of two holds it.
	group := srv.dirPlace.Servers(meta.ID.Var, meta.ID.Box)
	if len(group) != 2 {
		t.Fatalf("one-cell record registered on %v, want one group of two", group)
	}
	rig.servers[group[0]].Close()
	if _, ok := srv.reader.LookupMeta(context.Background(), meta.ID); !ok {
		t.Fatal("metadata lost after single shard-holder failure")
	}
}

// TestStripeDirectoryRoundTrip: a stripe's layout reaches the directory on
// the object's record and comes back from a lookup whole, an independent copy
// of the one the primary keeps.
func TestStripeDirectoryRoundTrip(t *testing.T) {
	rig := newRig(t, policy.Erasure, 8)
	box := geometry.Box3D(0, 0, 0, 8, 8, 8)
	primary := rig.put(t, "v", box, 1, payload(30, 9))
	id := types.ObjectID{Var: "v", Box: box}
	srv := rig.servers[primary]
	srv.mu.Lock()
	mine := srv.local[id.Key()].layout
	srv.mu.Unlock()
	meta, ok := rig.servers[(primary+3)%8].reader.LookupMeta(context.Background(), id)
	if !ok || meta.State != types.StateEncoded || meta.Layout == nil {
		t.Fatalf("record lookup = %+v ok=%v, want an encoded record with its layout", meta, ok)
	}
	if got := meta.Layout; got == mine || !reflect.DeepEqual(got, mine) || got.ID != meta.Stripe ||
		got.K != 3 || got.M != 1 || got.ShardSize != 10 || len(got.Members) != 4 || got.Members[0].Server != primary {
		t.Fatalf("layout on the record = %+v, the primary holds %+v", got, mine)
	}
}

// readStripe reassembles the object a stripe encodes the way promoteObject
// does: the reader's in-place assembly over the server's own send.
func readStripe(srv *Server, info *types.StripeInfo, size int) ([]byte, error) {
	dst := reader.Buffer(size, info.K)
	_, _, err := srv.reader.Stripe(context.Background(), info, dst, false)
	return dst, err
}

func TestFetchStripeDataDegraded(t *testing.T) {
	rig := newRig(t, policy.Erasure, 8)
	box := geometry.Box3D(0, 0, 0, 8, 8, 8)
	data := payload(700, 7)
	primary := rig.put(t, "v", box, 1, data)
	key := types.ObjectID{Var: "v", Box: box}.Key()
	srv := rig.servers[primary]
	srv.mu.Lock()
	stripe := srv.local[key].layout
	srv.mu.Unlock()
	// Kill a non-primary stripe member holding a data shard.
	members := rig.place.CodingGroup(primary)
	rig.servers[members[1]].Close()
	got, err := readStripe(srv, stripe, len(data))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, data) {
		t.Fatal("degraded stripe fetch corrupted data")
	}
	if rig.col.Snapshot().PhaseCount[metrics.Decode] == 0 {
		t.Fatal("degraded fetch did not charge the decode bucket")
	}
}

func TestRecoverKeyRestoresShard(t *testing.T) {
	rig := newRig(t, policy.Erasure, 8)
	box := geometry.Box3D(0, 0, 0, 8, 8, 8)
	data := payload(800, 8)
	primary := rig.put(t, "v", box, 1, data)
	key := types.ObjectID{Var: "v", Box: box}.Key()
	srv := rig.servers[primary]
	srv.mu.Lock()
	stripe := srv.local[key].layout.ID
	srv.mu.Unlock()
	members := rig.place.CodingGroup(primary)
	victim := members[2]
	rig.servers[victim].Close()
	// Fresh replacement with the same ID.
	repl := rig.startServer(t, victim)
	if repl.HasShard(stripe, 2) {
		t.Fatal("replacement born with the shard")
	}
	did, err := repl.recoverObject(context.Background(), types.ObjectID{Var: "v", Box: box})
	if err != nil {
		t.Fatal(err)
	}
	if !did || !repl.HasShard(stripe, 2) {
		t.Fatal("recoverObject did not restore the shard")
	}
}

func TestRunRecoveryRebuildsReplicasAndShards(t *testing.T) {
	rig := newRig(t, policy.Replicate, 8)
	// Stage several objects so server 1 holds replicas (group {0,1}).
	var keys []string
	for i := int64(0); i < 10; i++ {
		box := geometry.Box3D(i*8, 0, 0, i*8+8, 8, 8)
		rig.put(t, "v", box, 1, payload(256, 100+i))
		keys = append(keys, types.ObjectID{Var: "v", Box: box}.Key())
	}
	victim := types.ServerID(1)
	hadAny := false
	for _, k := range keys {
		if rig.servers[victim].HasObject(k) || rig.servers[victim].HasReplica(k) {
			hadAny = true
		}
	}
	if !hadAny {
		t.Skip("hash placement gave server 1 nothing; adjust seed")
	}
	rig.servers[victim].Close()
	repl := rig.startServer(t, victim)
	repaired, err := repl.RunRecovery(context.Background(), recovery.Aggressive)
	if err != nil {
		t.Fatal(err)
	}
	if repaired == 0 {
		t.Fatal("recovery restored nothing")
	}
	for _, k := range keys {
		if rig.servers[0].HasObject(k) {
			// Server 1 is server 0's replica target.
			if !repl.HasReplica(k) {
				t.Fatalf("replica of %s not restored", k)
			}
		}
	}
}

func TestLazyRecoveryPacedSlowerThanAggressive(t *testing.T) {
	mkRig := func() (*testRig, types.ServerID) {
		rig := newRig(t, policy.Erasure, 8)
		for i := int64(0); i < 12; i++ {
			box := geometry.Box3D(i*8, 0, 0, i*8+8, 8, 8)
			rig.put(t, "v", box, 1, payload(400, 200+i))
		}
		victim := types.ServerID(2)
		rig.servers[victim].Close()
		return rig, victim
	}

	rig1, v1 := mkRig()
	repl1 := rig1.startServer(t, v1)
	start := time.Now()
	if _, err := repl1.RunRecovery(context.Background(), recovery.Aggressive); err != nil {
		t.Fatal(err)
	}
	aggressive := time.Since(start)

	rig2, v2 := mkRig()
	repl2 := rig2.startServer(t, v2)
	repl2.cfg.MTBF = 2 * time.Second // deadline = 500ms
	start = time.Now()
	if _, err := repl2.RunRecovery(context.Background(), recovery.Lazy); err != nil {
		t.Fatal(err)
	}
	lazy := time.Since(start)
	if lazy < 5*aggressive && lazy < 100*time.Millisecond {
		t.Fatalf("lazy recovery (%v) not paced vs aggressive (%v)", lazy, aggressive)
	}
}

func TestOnAccessRepairMarksQueue(t *testing.T) {
	rig := newRig(t, policy.Erasure, 8)
	box := geometry.Box3D(0, 0, 0, 8, 8, 8)
	rig.put(t, "v", box, 1, payload(300, 9))
	key := types.ObjectID{Var: "v", Box: box}.Key()
	primary := rig.place.Primary(types.ObjectID{Var: "v", Box: box})
	srv := rig.servers[primary]
	srv.mu.Lock()
	stripe := srv.local[key].layout.ID
	srv.mu.Unlock()
	members := rig.place.CodingGroup(primary)
	victim := members[1]
	rig.servers[victim].Close()
	repl := rig.startServer(t, victim)
	// Install a queue manually and fire the on-access repair message.
	repl.mu.Lock()
	repl.repairQueue = recovery.NewQueue([]string{key, "other"})
	repl.mu.Unlock()
	resp := repl.Handle(context.Background(), &transport.Message{Kind: transport.MsgRecover, Var: "v", Box: box})
	if resp.Kind == transport.MsgErr {
		t.Fatalf("recover failed: %s", resp.Err)
	}
	if repl.RepairQueueLen() != 1 {
		t.Fatalf("queue length = %d, want 1 after on-access repair", repl.RepairQueueLen())
	}
	if !repl.HasShard(stripe, 1) {
		t.Fatal("on-access repair did not restore the shard")
	}
}

func TestEndTimeStepNoopForNonCoREC(t *testing.T) {
	rig := newRig(t, policy.Erasure, 8)
	d, p := rig.servers[0].EndTimeStep(context.Background(), 5)
	if d != 0 || p != 0 {
		t.Fatal("non-CoREC server produced transitions")
	}
}

func TestCoRECEndTimeStepDemotesAndPromotes(t *testing.T) {
	rig := newRig(t, policy.CoREC, 8)
	// Two objects on whichever servers; both written at ts=1.
	boxA := geometry.Box3D(0, 0, 0, 8, 8, 8)
	boxB := geometry.Box3D(512, 0, 0, 520, 8, 8)
	pa := rig.put(t, "v", boxA, 1, payload(512, 10))
	rig.put(t, "v", boxB, 1, payload(512, 11))
	keyA := types.ObjectID{Var: "v", Box: boxA}.Key()

	// Cool both far past the window; demotions must happen on each
	// object's primary. Demotions are queued, so drain after each step.
	var totalDem int
	for ts := types.Version(4); ts <= 6; ts++ {
		for _, s := range rig.servers {
			d, _ := s.EndTimeStep(context.Background(), ts)
			totalDem += d
		}
		for _, s := range rig.servers {
			s.WaitEncodeIdle()
		}
	}
	if totalDem != 2 {
		t.Fatalf("demoted %d, want 2", totalDem)
	}
	if rig.servers[pa].HasObject(keyA) {
		t.Fatal("demoted object still has a full primary copy")
	}
	// Reheat object A: write at ts=7, then promote at end of step.
	rig.put(t, "v", boxA, 7, payload(512, 12))
	// The CoREC put path promotes on write; object is replicated again.
	srv := rig.servers[pa]
	srv.mu.Lock()
	st := srv.local[keyA]
	srv.mu.Unlock()
	if st.state != types.StateReplicated {
		t.Fatalf("hot rewrite left state %v", st.state)
	}
}

func TestLoadQueryAndPing(t *testing.T) {
	rig := newRig(t, policy.Replicate, 8)
	resp, err := rig.net.Send(context.Background(), -1, 0, &transport.Message{Kind: transport.MsgPing})
	if err != nil || resp.Kind != transport.MsgOK {
		t.Fatalf("ping: %v %+v", err, resp)
	}
	resp, err = rig.net.Send(context.Background(), -1, 0, &transport.Message{Kind: transport.MsgLoadQuery})
	if err != nil || resp.Kind != transport.MsgOK {
		t.Fatalf("load query: %v %+v", err, resp)
	}
	if resp.Num < 0 {
		t.Fatal("negative load")
	}
}

func TestMalformedPutRejected(t *testing.T) {
	rig := newRig(t, policy.Replicate, 8)
	resp, err := rig.net.Send(context.Background(), -1, 0, &transport.Message{Kind: transport.MsgPut})
	if err != nil {
		t.Fatal(err)
	}
	if resp.Kind != transport.MsgErr {
		t.Fatal("malformed put accepted")
	}
}

func TestUnknownKindRejected(t *testing.T) {
	rig := newRig(t, policy.Replicate, 8)
	resp, err := rig.net.Send(context.Background(), -1, 0, &transport.Message{Kind: transport.Kind(200)})
	if err != nil {
		t.Fatal(err)
	}
	if resp.Kind != transport.MsgErr {
		t.Fatal("unknown kind accepted")
	}
}
