package corec

import (
	"bytes"
	"context"
	"testing"
	"time"

	"corec/internal/checkpoint"
	"corec/internal/scrub"
	"corec/internal/simnet"
	"corec/internal/types"
)

// tieredConfig builds an erasure-mode cluster whose shards flow through the
// tiered storage engine: a tiny L1 budget forces spilling, and the remote
// tier is enabled with free (zero-latency) transfers so tests stay fast.
func tieredConfig(t testing.TB, servers int) Config {
	t.Helper()
	cfg := DefaultConfig(servers)
	cfg.Mode = PolicyErasure
	cfg.Seed = 7
	remote := RemoteStoreConfig{} // free link, no faults
	cfg.Storage = &StorageConfig{
		MemBytes: 4 << 10, // 4 KiB L1: everything beyond a handful spills
		Dir:      t.TempDir(),
		Remote:   &remote,
	}
	return cfg
}

func waitStorageIdle(c *Cluster) {
	for i := 0; i < c.NumServers(); i++ {
		if s := c.Server(ServerID(i)); s != nil {
			s.WaitStorageIdle()
		}
	}
}

// TestTieredStorageSpillsAndServes stages more shard data than the L1
// budget holds and verifies reads stay byte-correct while the engine's
// cluster-wide gauges show data living below memory.
func TestTieredStorageSpillsAndServes(t *testing.T) {
	c, err := NewCluster(tieredConfig(t, 8))
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	cl := c.NewClient()
	ctx := context.Background()
	var boxes []Box
	for i := int64(0); i < 12; i++ {
		b := Box3D(i*8, 0, 0, i*8+8, 8, 8)
		boxes = append(boxes, b)
		if err := cl.Put(ctx, "field", b, 1, regionData(t, b, 8, 300+i)); err != nil {
			t.Fatal(err)
		}
	}
	waitStorageIdle(c)

	for i, b := range boxes {
		got, err := cl.Get(ctx, "field", b, 1)
		if err != nil {
			t.Fatalf("read %d: %v", i, err)
		}
		if !bytes.Equal(got, regionData(t, b, 8, 300+int64(i))) {
			t.Fatalf("read %d corrupted after spill", i)
		}
	}

	st := c.FabricStatus().Storage
	if !st.Enabled {
		t.Fatal("storage status not enabled")
	}
	if st.Spills == 0 || st.Evictions == 0 {
		t.Fatalf("no spilling under a 4 KiB L1 budget: %+v", st)
	}
	if st.DiskObjects+st.RemoteObjects == 0 {
		t.Fatalf("no objects below L1: %+v", st)
	}
	if st.MemBytes > int64(c.NumServers())*c.cfg.Storage.MemBytes {
		t.Fatalf("aggregate L1 bytes %d exceed the fleet budget", st.MemBytes)
	}
}

// TestTieredKillRestartRecoversDiskTier is the crash-restart acceptance
// test: a server is fail-stopped mid-workload and its replacement reopens
// the same segment directory, revalidates it, and serves the surviving
// shards — no data loss, no rebuild needed for what the disk tier held.
func TestTieredKillRestartRecoversDiskTier(t *testing.T) {
	c, err := NewCluster(tieredConfig(t, 8))
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	cl := c.NewClient()
	ctx := context.Background()
	var boxes []Box
	for i := int64(0); i < 12; i++ {
		b := Box3D(i*8, 0, 0, i*8+8, 8, 8)
		boxes = append(boxes, b)
		if err := cl.Put(ctx, "field", b, 1, regionData(t, b, 8, 400+i)); err != nil {
			t.Fatal(err)
		}
	}
	waitStorageIdle(c)

	victim := ServerID(2)
	before := c.Server(victim).CollectStats().Storage
	if before.DiskObjects+before.RemoteObjects == 0 {
		t.Fatalf("victim holds nothing below L1, restart proves nothing: %+v", before)
	}
	c.Kill(victim)
	srv, err := c.Replace(victim)
	if err != nil {
		t.Fatal(err)
	}
	rep := srv.StorageRestore()
	if rep.Restored == 0 {
		t.Fatalf("replacement restored no disk records: %+v", rep)
	}
	if rep.Quarantined != 0 || rep.TruncatedTails != 0 {
		t.Fatalf("clean shutdown left damage: %+v", rep)
	}

	// The replacement holds its predecessor's shards and, until recovery has
	// walked the objects' records, nothing that says which stripes they are
	// part of: the scrubber leaves them alone. Recovery restores the layouts;
	// the next pass records the digests that died with the old process and
	// the one after verifies against them.
	restored := int64(srv.CollectStats().Shards)
	if r, err := srv.ScrubDepth(ctx, scrub.DepthLocal); err != nil || r.Skipped != restored || r.Scanned != 0 || r.Backfills != 0 {
		t.Fatalf("scrub before recovery over %d restored shards: %+v, %v", restored, r, err)
	}
	if _, err := srv.RunRecovery(ctx, RecoveryAggressive); err != nil {
		t.Fatal(err)
	}
	held := int64(srv.CollectStats().Shards)
	if r, err := srv.ScrubDepth(ctx, scrub.DepthLocal); err != nil || r.Skipped != 0 || r.Scanned != held || r.Backfills != restored {
		t.Fatalf("first scrub after recovery (%d shards, %d of them restored): %+v, %v", held, restored, r, err)
	}
	if r, err := srv.ScrubDepth(ctx, scrub.DepthLocal); err != nil || r.Scanned != held || r.Backfills+r.Skipped+r.Corruptions != 0 {
		t.Fatalf("second scrub after recovery over %d shards: %+v, %v", held, r, err)
	}

	// Every staged region reads back byte-correct; the restored disk tier
	// means the fleet never even dropped below full stripe width for the
	// shards the victim held on disk.
	for i, b := range boxes {
		got, err := cl.Get(ctx, "field", b, 1)
		if err != nil {
			t.Fatalf("post-restart read %d: %v", i, err)
		}
		if !bytes.Equal(got, regionData(t, b, 8, 400+int64(i))) {
			t.Fatalf("post-restart read %d corrupted", i)
		}
	}
	if got := c.FabricStatus().Storage.RestoredRecords; got == 0 {
		t.Fatal("fleet status does not reflect the restart's restored records")
	}
}

// TestCheckpointWritesQuiescentClusterEveryTime pins the one capture rule:
// every checkpoint serializes every live server, so a second capture with
// no write in between writes the cluster's bytes again, and restart returns
// a stream per server.
func TestCheckpointWritesQuiescentClusterEveryTime(t *testing.T) {
	c := testCluster(t, PolicyReplicate)
	cl := c.NewClient()
	ctx := context.Background()
	for i := int64(0); i < 6; i++ {
		b := Box3D(i*8, 0, 0, i*8+8, 8, 8)
		if err := cl.Put(ctx, "ckpt", b, 1, regionData(t, b, 8, 21+i)); err != nil {
			t.Fatal(err)
		}
	}
	c.EndTimeStep(1)

	cp := checkpoint.New(simnet.PFSModel{OpenLatency: time.Microsecond, BytesPerSecond: 1 << 30})
	first := cp.Checkpoint(c)
	_, bytes1, _ := cp.Stats()
	if bytes1 == 0 {
		t.Fatal("first checkpoint wrote nothing")
	}
	second := cp.Checkpoint(c)
	count, bytes2, _ := cp.Stats()
	if count != 2 || bytes2 != 2*bytes1 {
		t.Fatalf("two checkpoints wrote %d bytes, want 2 x %d", bytes2, bytes1)
	}
	if second != first {
		t.Fatalf("quiescent checkpoint cost %v, the first %v", second, first)
	}

	_, restored, err := cp.Restart()
	if err != nil {
		t.Fatal(err)
	}
	if len(restored) != c.NumServers() {
		t.Fatalf("restart returned %d streams, want %d", len(restored), c.NumServers())
	}
}

// TestReplaceGetsFreshIncarnation pins the identity rule the encoding-token
// lease depends on (write.go's acquire sends Num: int64(s.incarnation)): a
// replacement server must never be mistaken for its predecessor.
func TestReplaceGetsFreshIncarnation(t *testing.T) {
	c := testCluster(t, PolicyReplicate)
	old := c.Server(types.ServerID(1)).Incarnation()
	c.Kill(1)
	srv, err := c.Replace(1)
	if err != nil {
		t.Fatal(err)
	}
	if srv.Incarnation() == old {
		t.Fatal("replacement reused its predecessor's incarnation")
	}
}
