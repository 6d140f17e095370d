package corec

import (
	"bytes"
	"context"
	"slices"
	"testing"

	"corec/internal/recovery"
	"corec/internal/types"
)

// healthFabrics runs fn against the two fabrics a staging fleet deploys on:
// the in-process one and TCP with multiplexed connections.
func healthFabrics(t *testing.T, mode Mode, fn func(t *testing.T, c *Cluster)) {
	for _, fab := range []struct {
		name string
		tune func(*Config)
	}{
		{"inproc", func(*Config) {}},
		{"tcp-mux", func(cfg *Config) { cfg.Transport = "tcp"; cfg.MuxConnsPerPeer = 1 }},
	} {
		t.Run(fab.name, func(t *testing.T) {
			cfg := DefaultConfig(8)
			cfg.Mode = mode
			cfg.Seed = 7
			fab.tune(&cfg)
			c, err := NewCluster(cfg)
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(c.Close)
			fn(t, c)
		})
	}
}

// stageOne puts one object and returns its box, payload and metadata.
func stageOne(t *testing.T, cl *Client, seed int64) (Box, []byte, types.ObjectMeta) {
	t.Helper()
	box := Box3D(0, 0, 0, 8, 8, 8)
	data, meta := stageAt(t, cl, box, seed)
	return box, data, meta
}

// stageAt puts one object over box and returns its payload and metadata.
func stageAt(t *testing.T, cl *Client, box Box, seed int64) ([]byte, types.ObjectMeta) {
	t.Helper()
	ctx := context.Background()
	data := regionData(t, box, 8, seed)
	if err := cl.Put(ctx, "ph", box, 1, data); err != nil {
		t.Fatal(err)
	}
	metas, err := cl.Query(ctx, "ph", box)
	if err != nil || len(metas) != 1 {
		t.Fatalf("query: %v (%d metas)", err, len(metas))
	}
	return data, metas[0]
}

// killAndRead kills victim and checks the fail-fast contract on the read
// path: the first Get learns the death from the wire and pays real retries;
// the next 100 Gets pay (almost) none, fail fast instead, and every one of
// them returns the right bytes.
func killAndRead(t *testing.T, c *Cluster, cl *Client, victim ServerID, box Box, want []byte) {
	t.Helper()
	ctx := context.Background()
	before := c.FabricStatus()
	if before.Transport.PeersDown != 0 {
		t.Fatalf("PeersDown = %d on a healthy fleet", before.Transport.PeersDown)
	}
	c.Kill(victim)
	if got := c.FabricStatus().Transport.PeersDown; got != 0 {
		t.Fatalf("Kill marked the table (PeersDown = %d): a crash must be learned from the wire", got)
	}
	get := func(when string) {
		t.Helper()
		got, err := cl.Get(ctx, "ph", box, 1)
		if err != nil {
			t.Fatalf("%s: %v", when, err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("%s returned wrong bytes", when)
		}
	}
	get("first degraded get")
	first := c.FabricStatus()
	if first.Retries <= before.Retries {
		t.Fatalf("first contact with the dead peer paid no retries (%d -> %d)", before.Retries, first.Retries)
	}
	if first.Transport.PeersDown != 1 {
		t.Fatalf("PeersDown = %d after the first degraded get, want 1", first.Transport.PeersDown)
	}
	for i := 0; i < 100; i++ {
		get("degraded get")
	}
	after := c.FabricStatus()
	if grew := after.Retries - first.Retries; grew > 3 {
		t.Fatalf("100 gets against a known-dead peer paid %d more retries, want <= 3", grew)
	}
	if after.Transport.FastFails-first.Transport.FastFails < 50 {
		t.Fatalf("FastFails grew %d over 100 degraded gets, want most of them",
			after.Transport.FastFails-first.Transport.FastFails)
	}
}

func TestPeerHealthReplicatedRead(t *testing.T) {
	healthFabrics(t, PolicyReplicate, func(t *testing.T, c *Cluster) {
		cl := c.NewClient()
		box, data, meta := stageOne(t, cl, 11)
		killAndRead(t, c, cl, meta.Primary, box, data)
	})
}

// decodes is the number of reconstructions the fleet has run so far.
func decodes(c *Cluster) int64 {
	e := c.FabricStatus().Encoding
	return e.DecodeCacheHits + e.DecodeCacheMisses
}

// TestPeerHealthEncodedReadHealthyShards reads an encoded object whose data
// shards are all alive while the one server a healthy lookup contacts besides
// them is dead: the directory mirror the readers ask first, which holds none
// of the object's shards. The readers have not seen the box, so each get
// looks it up. The first get asks that mirror, pays the retries that learn the
// death from the wire, and is settled by the twin. Every later get passes the
// marked mirror over: it receives no query, so nothing is retried, nothing
// even fails fast, no lookup needs a second ask, and nothing is reconstructed.
func TestPeerHealthEncodedReadHealthyShards(t *testing.T) {
	healthFabrics(t, PolicyErasure, func(t *testing.T, c *Cluster) {
		ctx := context.Background()
		cl := c.NewClient()
		// One candidate box per directory cell along x and y; take the first
		// whose first mirror is outside the coding group its primary will
		// stripe over.
		var box Box
		victim := ServerID(-1)
		for i := int64(0); i < 16 && victim < 0; i++ {
			box = Box3D(i%4*64, i/4*64, 0, i%4*64+8, i/4*64+8, 8)
			primary := c.place.Primary(types.ObjectID{Var: "ph", Box: box})
			coding := c.place.CodingGroup(primary)
			if first := firstMirrorOf(t, c, cl, "ph", box); !slices.Contains(coding, first) {
				victim = first
			}
		}
		if victim < 0 {
			t.Fatal("no candidate object whose first directory mirror is outside its coding group")
		}
		data, meta := stageAt(t, c.NewClient(), box, 12)
		if meta.State != types.StateEncoded {
			t.Fatalf("state = %v, want encoded", meta.State)
		}
		for _, m := range meta.Layout.Members {
			if m.Server == victim {
				t.Fatalf("victim %d holds shard %d of the stripe", victim, m.Index)
			}
		}
		// Readers are picked while the victim is alive: once it is marked,
		// nobody asks it first.
		readers := []*Client{cl}
		for len(readers) < 101 {
			readers = append(readers, unseenClient(t, c, "ph", box, victim))
		}
		get := func(rd *Client, when string) {
			t.Helper()
			if got, err := rd.Get(ctx, "ph", box, 1); err != nil || !bytes.Equal(got, data) {
				t.Fatalf("%s did not return the staged bytes: %v", when, err)
			}
		}
		before, d0 := c.FabricStatus(), decodes(c)
		c.Kill(victim)
		get(readers[0], "first get after the kill")
		first := c.FabricStatus()
		if first.Retries <= before.Retries || first.Transport.PeersDown != 1 {
			t.Fatalf("first contact with the dead mirror: retries %d -> %d, PeersDown = %d; want retries paid and the peer marked",
				before.Retries, first.Retries, first.Transport.PeersDown)
		}
		if asks := first.DirSecondAsks - before.DirSecondAsks; asks != 1 {
			t.Fatalf("DirSecondAsks grew by %d over the get that found its first mirror dead, want 1", asks)
		}
		for _, rd := range readers[1:] {
			get(rd, "get past the marked mirror")
		}
		after := c.FabricStatus()
		if after.PrimaryReads != before.PrimaryReads {
			t.Fatalf("%d gets asked the primary first, want every one looked up", after.PrimaryReads-before.PrimaryReads)
		}
		if after.Retries != first.Retries || after.Transport.FastFails != first.Transport.FastFails || after.DirSecondAsks != first.DirSecondAsks {
			t.Fatalf("100 gets with the first mirror marked down: retries +%d, fast fails +%d, second asks +%d; want the mirror passed over at no cost",
				after.Retries-first.Retries, after.Transport.FastFails-first.Transport.FastFails, after.DirSecondAsks-first.DirSecondAsks)
		}
		if after.DirFallbacks != before.DirFallbacks {
			t.Fatalf("%d lookups fell back to the fleet", after.DirFallbacks-before.DirFallbacks)
		}
		if d := decodes(c) - d0; d != 0 {
			t.Fatalf("%d reconstructions with every data shard alive", d)
		}
	})
}

// TestPeerHealthReconstructReadAndReplace covers the degraded read proper
// (a data-shard holder dead: parity fetched in the same round, one decode
// per get) and re-admission by Replace: the very next put placed on the
// replaced server goes to it, not to a successor, and once recovery has
// run, reads stop reconstructing.
func TestPeerHealthReconstructReadAndReplace(t *testing.T) {
	healthFabrics(t, PolicyErasure, func(t *testing.T, c *Cluster) {
		ctx := context.Background()
		cl := c.NewClient()
		box, data, meta := stageOne(t, cl, 13)
		victim := meta.Primary // holds data shard 0
		d0 := decodes(c)
		killAndRead(t, c, cl, victim, box, data)
		if d := decodes(c) - d0; d < 101 {
			t.Fatalf("%d reconstructions over 101 degraded gets", d)
		}

		srv, err := c.Replace(victim)
		if err != nil {
			t.Fatal(err)
		}
		st := c.FabricStatus()
		if st.Transport.PeersDown != 0 {
			t.Fatalf("PeersDown = %d right after Replace, want 0", st.Transport.PeersDown)
		}
		// A fresh object whose placed primary is the replaced server.
		var pbox Box
		for i := int64(1); ; i++ {
			pbox = Box3D(i*8, 0, 0, i*8+8, 8, 8)
			if c.place.Primary(types.ObjectID{Var: "ph2", Box: pbox}) == victim {
				break
			}
		}
		pdata := regionData(t, pbox, 8, 14)
		if err := cl.Put(ctx, "ph2", pbox, 1, pdata); err != nil {
			t.Fatal(err)
		}
		if fs := c.FabricStatus(); fs.Failovers != st.Failovers {
			t.Fatalf("put right after Replace was failed over (failovers %d -> %d)", st.Failovers, fs.Failovers)
		}
		if metas, err := cl.Query(ctx, "ph2", pbox); err != nil || len(metas) != 1 || metas[0].Primary != victim {
			t.Fatalf("put after Replace landed elsewhere: %v %+v", err, metas)
		}

		if _, err := srv.RunRecovery(ctx, recovery.Aggressive); err != nil {
			t.Fatal(err)
		}
		d1 := decodes(c)
		for i := 0; i < 20; i++ {
			got, err := cl.Get(ctx, "ph", box, 1)
			if err != nil || !bytes.Equal(got, data) {
				t.Fatalf("post-recovery get %d: %v", i, err)
			}
		}
		if d := decodes(c) - d1; d != 0 {
			t.Fatalf("%d reconstructions after recovery completed", d)
		}
	})
}

// TestPeerHealthPutFailsOverAtOnce: once the table knows the primary is
// dead, a put placed on it fails over without spending the retry budget.
func TestPeerHealthPutFailsOverAtOnce(t *testing.T) {
	c := testCluster(t, PolicyReplicate)
	cl := c.NewClient()
	ctx := context.Background()
	box, _, meta := stageOne(t, cl, 15)
	c.Kill(meta.Primary)
	if _, err := cl.Get(ctx, "ph", box, 1); err != nil { // first contact marks the peer
		t.Fatal(err)
	}
	before := c.FabricStatus()
	data := regionData(t, box, 8, 16)
	if err := cl.Put(ctx, "ph", box, 2, data); err != nil {
		t.Fatalf("put with a known-dead primary: %v", err)
	}
	after := c.FabricStatus()
	if after.Failovers != before.Failovers+1 {
		t.Fatalf("failovers %d -> %d, want one", before.Failovers, after.Failovers)
	}
	if after.Retries != before.Retries {
		t.Fatalf("failover against a known-dead primary paid %d retries", after.Retries-before.Retries)
	}
	got, err := cl.Get(ctx, "ph", box, 2)
	if err != nil || !bytes.Equal(got, data) {
		t.Fatalf("read of the failed-over write: %v", err)
	}
}
