package corec

import (
	"bytes"
	"context"
	"testing"

	"corec/internal/transport"
)

// TestTCPClusterMuxEndToEnd runs a full staging cluster over real TCP
// listeners (the corec-server deployment path) at several fabric sizings —
// the default and two explicit ones — and exercises put/get, a primary
// kill and the degraded read across the loopback fabric. It also checks
// that FabricStatus surfaces the resolved sizing and the transport gauges.
func TestTCPClusterMuxEndToEnd(t *testing.T) {
	for _, tc := range []struct {
		name                  string
		conns, window         int
		wantConns, wantWindow int
	}{
		{"default", 0, 0, transport.DefaultMuxConns, transport.DefaultMaxInFlight},
		{"conns=1", 1, 16, 1, 16},
		{"conns=4", 4, 0, 4, transport.DefaultMaxInFlight},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cfg := DefaultConfig(8)
			cfg.Transport = "tcp"
			cfg.MuxConnsPerPeer = tc.conns
			cfg.MaxInFlight = tc.window
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
			if ts.MuxConnsPerPeer != tc.wantConns || ts.MaxInFlight != tc.wantWindow {
				t.Fatalf("transport status sizing = (%d, %d), want (%d, %d)",
					ts.MuxConnsPerPeer, ts.MaxInFlight, tc.wantConns, tc.wantWindow)
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
// sized differently from the service's: connection count and window are
// not protocol, so the two need not agree.
func TestRemoteClusterClient(t *testing.T) {
	cfg := DefaultConfig(8)
	cfg.Transport = "tcp"
	host, err := NewCluster(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer host.Close()

	remoteCfg := DefaultConfig(8)
	remoteCfg.ElemSize = 1
	remoteCfg.MuxConnsPerPeer = 3
	remoteCfg.MaxInFlight = 8
	remote, err := NewRemoteCluster(remoteCfg, host.ServerAddrs())
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

// TestRemoteClusterElasticRing is the cross-process elastic regression:
// a remote handle with Membership set bootstraps its placement ring from
// a gossip snapshot, so its reads and writes keep landing correctly while
// the fleet behind it grows (JoinNew) and shrinks (DrainAndLeave) —
// exactly the corec-server -membership + corec-cli -membership pairing.
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
		remoteCfg := DefaultConfig(8)
		remoteCfg.Mode = PolicyCoREC
		remoteCfg.ElemSize = 1
		remoteCfg.Membership = &MembershipConfig{}
		remote, err := NewRemoteCluster(remoteCfg, host.ServerAddrs())
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
