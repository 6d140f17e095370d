package corec

import (
	"bytes"
	"context"
	"fmt"
	"math/rand"
	"net"
	"slices"
	"testing"
	"time"

	"corec/internal/recovery"
	"corec/internal/transport"
	"corec/internal/types"
)

// TestTCPClusterMuxEndToEnd runs a full staging cluster over real TCP
// listeners (the corec-server deployment path) at several connection counts
// — the default and two explicit ones — and exercises put/get, a primary
// kill and the degraded read across the loopback fabric. It also checks
// that FabricStatus surfaces the resolved count and the transport gauges.
func TestTCPClusterMuxEndToEnd(t *testing.T) {
	for _, tc := range []struct {
		name             string
		conns, wantConns int
	}{
		{"default", 0, transport.DefaultMuxConns},
		{"conns=1", 1, 1},
		{"conns=4", 4, 4},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cfg := DefaultConfig(8)
			cfg.Transport = "tcp"
			cfg.MuxConnsPerPeer = tc.conns
			cluster, err := NewCluster(cfg)
			if err != nil {
				t.Fatal(err)
			}
			defer cluster.Close()

			if addrs := cluster.ServerAddrs(); len(addrs) != 8 {
				t.Fatalf("got %d server addresses, want 8", len(addrs))
			}

			client := cluster.NewClient()
			ctx := context.Background()
			box := Box3D(0, 0, 0, 8, 8, 8)
			data := regionData(t, box, 8, 37)
			if err := client.Put(ctx, "temp", box, 1, data); err != nil {
				t.Fatal(err)
			}
			got, err := client.Get(ctx, "temp", box, 1)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got, data) {
				t.Fatal("TCP round trip corrupted data")
			}

			ts := cluster.FabricStatus().Transport
			if ts.MuxConnsPerPeer != tc.wantConns {
				t.Fatalf("transport status connections per peer = %d, want %d", ts.MuxConnsPerPeer, tc.wantConns)
			}
			if ts.ActiveMuxConns == 0 {
				t.Fatal("no active multiplexed connections after staging traffic")
			}
			if ts.PoolHits+ts.PoolMisses == 0 {
				t.Fatal("frame-buffer pool never used")
			}

			// Kill the primary over TCP and read through the degraded path.
			metas, err := client.Query(ctx, "temp", box)
			if err != nil || len(metas) != 1 {
				t.Fatalf("query: %v (%d metas)", err, len(metas))
			}
			cluster.Kill(metas[0].Primary)
			got, err = client.Get(ctx, "temp", box, 1)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got, data) {
				t.Fatal("TCP degraded read corrupted data")
			}
		})
	}
}

// TestRemoteClusterClient connects a separate client-side fabric to a
// TCP-hosted service via its address map — the corec-cli path, covering
// cross-process access without a second process. The handle's fabric is
// sized differently from the service's: the connection count is not
// protocol, so the two need not agree.
func TestRemoteClusterClient(t *testing.T) {
	cfg := DefaultConfig(8)
	cfg.Transport = "tcp"
	host, err := NewCluster(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer host.Close()

	remote, err := NewRemoteCluster(Config{ElemSize: 1, MuxConnsPerPeer: 3}, host.ServerAddrs())
	if err != nil {
		t.Fatal(err)
	}
	defer remote.Close()

	client := remote.NewClient()
	ctx := context.Background()
	payload := []byte("hello staging over tcp")
	box := Box{Lo: []int64{100}, Hi: []int64{100 + int64(len(payload))}}
	if err := client.Put(ctx, "demo", box, 1, payload); err != nil {
		t.Fatal(err)
	}
	got, err := client.Get(ctx, "demo", box, 1)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, payload) {
		t.Fatalf("remote round trip = %q", got)
	}
	metas, err := client.Query(ctx, "demo", Box{})
	if err != nil || len(metas) != 1 {
		t.Fatalf("remote query: %v (%d metas)", err, len(metas))
	}
}

// TestRemoteDegradedReadRepairsOnAccess: a client whose servers run in
// another process — a NewRemoteCluster handle — that reads an encoded object
// around a replacement still short of its shard asks that replacement to
// restore it now, ahead of its paced lazy drain (the on-access half of lazy
// recovery). Ports are pinned so the replacement keeps its address.
func TestRemoteDegradedReadRepairsOnAccess(t *testing.T) {
	cfg := DefaultConfig(8)
	cfg.Mode = PolicyErasure
	cfg.Transport = "tcp"
	cfg.MTBF = time.Hour // the drain's deadline is 15 minutes: one repair per minute or so
	cfg.PortBase = freePortBase(t, cfg.Servers)
	host, err := NewCluster(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer host.Close()
	boxes, payloads := stageSet(t, host, 16)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	metas := make([]types.ObjectMeta, len(boxes)) // by box
	for i, box := range boxes {
		got, err := host.NewClient().Query(ctx, "edge", box)
		if err != nil || len(got) != 1 {
			t.Fatalf("query of object %d: %v (%d records)", i, err, len(got))
		}
		metas[i] = got[0]
	}

	// The victim is the server holding the most data shards other than
	// shard 0: a read through the directory asks for those.
	holds := func(m types.ObjectMeta, id ServerID) int {
		if m.Layout == nil || m.Primary == id {
			return -1
		}
		for _, mem := range m.Layout.Members {
			if mem.Server == id && mem.Index > 0 && mem.Index < m.Layout.K {
				return mem.Index
			}
		}
		return -1
	}
	victim, most := ServerID(-1), 0
	for id := ServerID(0); id < 8; id++ {
		n := 0
		for _, m := range metas {
			if holds(m, id) >= 0 {
				n++
			}
		}
		if n > most {
			victim, most = id, n
		}
	}
	if most < 2 {
		t.Fatalf("no server holds two inner data shards of %d encoded objects", len(metas))
	}
	queued := 0 // the objects the replacement's work list names
	for _, m := range metas {
		if m.Primary == victim || slices.Contains(m.Replicas, victim) ||
			m.Layout != nil && slices.ContainsFunc(m.Layout.Members, func(mem types.StripeMember) bool { return mem.Server == victim }) {
			queued++
		}
	}

	host.Kill(victim)
	srv, err := host.Replace(victim)
	if err != nil {
		t.Fatal(err)
	}
	drained := make(chan struct{})
	go func() {
		defer close(drained)
		_, _ = srv.RunRecovery(ctx, recovery.Lazy) // cancelled below
	}()
	defer func() { cancel(); <-drained }()
	// The drain's first repair takes the bucket's one token at once; the
	// next waits about a minute.
	waitUntil(t, 10*time.Second, "the drain's first repair", func() bool { return srv.RepairQueueLen() == queued-1 })
	target := -1
	for i, m := range metas {
		if j := holds(m, victim); j >= 0 && !srv.HasShard(m.Layout.ID, j) {
			target = i
			break
		}
	}
	if target < 0 {
		t.Fatal("the replacement already holds every shard a read would ask it for")
	}

	remote, err := NewRemoteCluster(Config{}, host.ServerAddrs())
	if err != nil {
		t.Fatal(err)
	}
	defer remote.Close()
	got, err := remote.NewClient().Get(ctx, "edge", boxes[target], 1)
	if err != nil || !bytes.Equal(got, payloads[target]) {
		t.Fatalf("degraded remote read: %v", err)
	}
	m := metas[target]
	waitUntil(t, 5*time.Second, "the on-access repair", func() bool { return srv.HasShard(m.Layout.ID, holds(m, victim)) })
	if n := srv.RepairQueueLen(); n != queued-2 {
		t.Errorf("repair queue holds %d objects after the on-access repair, want %d", n, queued-2)
	}
}

// freePortBase finds a base port such that base..base+n-1 can all be bound
// right now, drawn at random from a high range so concurrently running test
// packages are unlikely to collide.
func freePortBase(t *testing.T, n int) int {
	t.Helper()
	for attempt := 0; attempt < 64; attempt++ {
		base, free := 20000+rand.Intn(30000), true
		for i := 0; i < n && free; i++ {
			ln, err := net.Listen("tcp", fmt.Sprintf("127.0.0.1:%d", base+i))
			if free = err == nil; free {
				ln.Close()
			}
		}
		if free {
			return base
		}
	}
	t.Fatalf("no free range of %d ports", n)
	return 0
}

// TestRemoteClusterElasticRing is the cross-process elastic regression:
// a remote handle onto an elastic fleet bootstraps its placement ring from
// a gossip snapshot, so its reads and writes keep landing correctly while
// the fleet behind it grows (JoinNew) and shrinks (DrainAndLeave) —
// exactly the corec-server -membership + corec-cli pairing.
func TestRemoteClusterElasticRing(t *testing.T) {
	cfg := DefaultConfig(8)
	cfg.Transport = "tcp"
	cfg.Mode = PolicyCoREC
	cfg.Membership = &MembershipConfig{}
	host, err := NewCluster(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer host.Close()

	newRemote := func() (*Cluster, *Client) {
		t.Helper()
		remote, err := NewRemoteCluster(Config{ElemSize: 1}, host.ServerAddrs())
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { remote.Close() })
		return remote, remote.NewClient()
	}

	remote, client := newRemote()
	if got, want := remote.Ring().Epoch(), host.Ring().Epoch(); got != want {
		t.Fatalf("remote ring epoch %d, host %d", got, want)
	}
	ctx := context.Background()
	payload := []byte("elastic fleet over tcp")
	box := Box{Lo: []int64{0}, Hi: []int64{int64(len(payload))}}
	if err := client.Put(ctx, "demo", box, 1, payload); err != nil {
		t.Fatal(err)
	}

	// Grow and shrink the fleet behind the client's back, moving data.
	if _, err := host.JoinNew(); err != nil {
		t.Fatal(err)
	}
	metas, err := client.Query(ctx, "demo", Box{})
	if err != nil || len(metas) != 1 {
		t.Fatalf("query: %v (%d metas)", err, len(metas))
	}
	if _, err := host.DrainAndLeave(ctx, metas[0].Primary); err != nil {
		t.Fatalf("drain %d: %v", metas[0].Primary, err)
	}

	// The original handle's snapshot is stale but directory polling keeps
	// reads correct; a fresh handle re-pulls the current ring and must see
	// the post-churn fleet (9 joined, 1 left => 8 members).
	if got, err := client.Get(ctx, "demo", box, 1); err != nil || !bytes.Equal(got, payload) {
		t.Fatalf("stale-handle get = %q, %v", got, err)
	}
	remote2, client2 := newRemote()
	if got, want := remote2.Ring().Size(), host.Ring().Size(); got != want {
		t.Fatalf("fresh remote ring size %d, host %d", got, want)
	}
	if got, err := client2.Get(ctx, "demo", box, 1); err != nil || !bytes.Equal(got, payload) {
		t.Fatalf("fresh-handle get = %q, %v", got, err)
	}
	members, err := client2.MemberSnapshot(ctx)
	if err != nil {
		t.Fatal(err)
	}
	alive := 0
	for _, m := range members {
		if m.State == "alive" {
			alive++
		}
	}
	if alive != host.Ring().Size() {
		t.Fatalf("snapshot alive=%d, ring size %d", alive, host.Ring().Size())
	}
}

// TestRemoteHandleReadsTheFleetShape: a handle built from a Config that
// names no shape (no policy, NLevel, k, domain, fleet size or membership)
// asks the fleet for it, then places, reads an encoded object, reads it
// around a dead member and polls the fleet as the servers expect. The
// static fleet is 6 servers at k=2, which a default k=3 does not tile.
func TestRemoteHandleReadsTheFleetShape(t *testing.T) {
	for _, elastic := range []bool{false, true} {
		t.Run(fmt.Sprintf("elastic=%v", elastic), func(t *testing.T) {
			cfg := DefaultConfig(6)
			cfg.Mode = PolicyErasure
			cfg.DataShards = 2
			cfg.Domain = Box3D(0, 0, 0, 64, 64, 64)
			cfg.Transport = "tcp"
			if elastic {
				cfg.Membership = &MembershipConfig{Manual: true}
			}
			host, err := NewCluster(cfg)
			if err != nil {
				t.Fatal(err)
			}
			defer host.Close()

			remote, err := NewRemoteCluster(Config{ElemSize: 1}, host.ServerAddrs())
			if err != nil {
				t.Fatal(err)
			}
			defer remote.Close()
			got := remote.Config()
			if got.Mode != cfg.Mode || got.NLevel != cfg.NLevel || got.DataShards != 2 || got.Servers != 6 ||
				!slices.Equal(got.Domain.Lo, cfg.Domain.Lo) || !slices.Equal(got.Domain.Hi, cfg.Domain.Hi) ||
				(got.Membership != nil) != elastic {
				t.Fatalf("handle shape: mode %v nlevel %d k %d servers %d domain %v elastic %v",
					got.Mode, got.NLevel, got.DataShards, got.Servers, got.Domain, got.Membership != nil)
			}

			ctx := context.Background()
			client := remote.NewClient()
			payload := bytes.Repeat([]byte("fleet shape "), 40)
			box := Box{Lo: []int64{0}, Hi: []int64{int64(len(payload))}}
			if err := client.Put(ctx, "shape", box, 1, payload); err != nil {
				t.Fatal(err)
			}
			metas, err := client.Query(ctx, "shape", box)
			if err != nil || len(metas) != 1 || metas[0].State != types.StateEncoded {
				t.Fatalf("query: %v %+v", err, metas)
			}
			if got, err := client.Get(ctx, "shape", box, 1); err != nil || !bytes.Equal(got, payload) {
				t.Fatalf("get: %v", err)
			}
			host.Kill(metas[0].Primary)
			if got, err := remote.NewClient().Get(ctx, "shape", box, 1); err != nil || !bytes.Equal(got, payload) {
				t.Fatalf("get with server %d dead: %v", metas[0].Primary, err)
			}
			alive := 0
			for _, s := range client.Status(ctx) {
				if s.Alive {
					alive++
					if s.Stats.DataShards != 2 || s.Stats.Servers != 6 || s.Stats.Elastic != elastic {
						t.Fatalf("server %d reports shape k=%d servers=%d elastic=%v", s.ID, s.Stats.DataShards, s.Stats.Servers, s.Stats.Elastic)
					}
				}
			}
			if alive != 5 {
				t.Fatalf("status shows %d live members, want 5", alive)
			}
		})
	}
}

func TestRemoteClusterValidation(t *testing.T) {
	if _, err := NewRemoteCluster(Config{}, nil); err == nil {
		t.Fatal("empty address map accepted")
	}
}

func TestUnknownTransportRejected(t *testing.T) {
	cfg := DefaultConfig(8)
	cfg.Transport = "carrier-pigeon"
	if _, err := NewCluster(cfg); err == nil {
		t.Fatal("unknown transport accepted")
	}
}
