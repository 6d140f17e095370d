package corec

import (
	"bytes"
	"context"
	"math/rand"
	"reflect"
	"sync"
	"testing"
	"time"

	"corec/internal/metrics"
	"corec/internal/recovery"
	"corec/internal/types"
)

func testCluster(t testing.TB, mode Mode) *Cluster {
	t.Helper()
	cfg := DefaultConfig(8)
	cfg.Mode = mode
	cfg.Seed = 7
	c, err := NewCluster(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(c.Close)
	return c
}

func regionData(t testing.TB, box Box, elem int, seed int64) []byte {
	t.Helper()
	buf := make([]byte, int(box.Volume())*elem)
	rand.New(rand.NewSource(seed)).Read(buf)
	return buf
}

// TestDefaultConfigPinned pins what DefaultConfig returns, the base the
// staging benchmark builds its fleets from: the paper's Table I values, and
// the listen host every empty ListenHost resolves to.
func TestDefaultConfigPinned(t *testing.T) {
	want := Config{
		Servers:              8,
		Mode:                 PolicyCoREC,
		NLevel:               1,
		DataShards:           3,
		StorageEfficiencyMin: 0.67,
		Domain:               Box3D(0, 0, 0, 256, 256, 256),
		RecoveryMode:         RecoveryLazy,
		MTBF:                 40 * time.Second,
		MaxObjectBytes:       4 << 20,
		ElemSize:             8,
		HelperLoadDelta:      2,
		ListenHost:           "127.0.0.1",
	}
	if got := DefaultConfig(8); !reflect.DeepEqual(got, want) {
		t.Fatalf("DefaultConfig(8) = %+v, want %+v", got, want)
	}
}

// TestZeroConfigStagesWithoutRedundancy pins what a Config literal that
// names only Servers runs with: no redundancy and S disabled. Only
// DefaultConfig picks Table I's CoREC; a change to this default is one to
// make on purpose.
func TestZeroConfigStagesWithoutRedundancy(t *testing.T) {
	c, err := NewCluster(Config{Servers: 8})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if got := c.Config(); got.Mode != PolicyNone || got.StorageEfficiencyMin != 0 {
		t.Fatalf("NewCluster(Config{Servers: 8}) runs Mode %v, S %v; want %v, 0",
			got.Mode, got.StorageEfficiencyMin, PolicyNone)
	}
}

func TestPutGetRoundTripAllPolicies(t *testing.T) {
	for _, mode := range []Mode{PolicyNone, PolicyReplicate, PolicyErasure, PolicyHybrid, PolicyCoREC} {
		mode := mode
		t.Run(mode.String(), func(t *testing.T) {
			c := testCluster(t, mode)
			cl := c.NewClient()
			ctx := context.Background()
			box := Box3D(0, 0, 0, 8, 8, 8)
			data := regionData(t, box, c.Config().ElemSize, 1)
			if err := cl.Put(ctx, "temp", box, 1, data); err != nil {
				t.Fatal(err)
			}
			got, err := cl.Get(ctx, "temp", box, 1)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got, data) {
				t.Fatal("round trip corrupted data")
			}
		})
	}
}

func TestPutPartitionsLargeRegions(t *testing.T) {
	c := testCluster(t, PolicyCoREC)
	cl := c.NewClient()
	ctx := context.Background()
	// 64^3 * 8B = 2 MiB with MaxObjectBytes = 256 KiB => 8 objects.
	cfg := DefaultConfig(8)
	cfg.MaxObjectBytes = 256 << 10
	c2, err := NewCluster(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer c2.Close()
	cl = c2.NewClient()
	box := Box3D(0, 0, 0, 64, 64, 64)
	data := regionData(t, box, 8, 2)
	if err := cl.Put(ctx, "temp", box, 1, data); err != nil {
		t.Fatal(err)
	}
	metas, err := cl.Query(ctx, "temp", box)
	if err != nil {
		t.Fatal(err)
	}
	if len(metas) != 8 {
		t.Fatalf("got %d objects, want 8", len(metas))
	}
	got, err := cl.Get(ctx, "temp", box, 1)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, data) {
		t.Fatal("partitioned round trip corrupted data")
	}
}

func TestPutRejectsWrongBufferSize(t *testing.T) {
	c := testCluster(t, PolicyNone)
	cl := c.NewClient()
	if err := cl.Put(context.Background(), "v", Box3D(0, 0, 0, 4, 4, 4), 1, make([]byte, 3)); err == nil {
		t.Fatal("wrong-size buffer accepted")
	}
}

func TestGetSubRegion(t *testing.T) {
	c := testCluster(t, PolicyReplicate)
	cl := c.NewClient()
	ctx := context.Background()
	box := Box3D(0, 0, 0, 16, 16, 16)
	data := regionData(t, box, 8, 3)
	if err := cl.Put(ctx, "temp", box, 1, data); err != nil {
		t.Fatal(err)
	}
	sub := Box3D(4, 4, 4, 8, 8, 8)
	got, err := cl.Get(ctx, "temp", sub, 1)
	if err != nil {
		t.Fatal(err)
	}
	// Verify one element: cell (5,6,7).
	full, err := cl.Get(ctx, "temp", box, 1)
	if err != nil {
		t.Fatal(err)
	}
	offFull := (((5*16)+6)*16 + 7) * 8
	offSub := (((1*4)+2)*4 + 3) * 8
	if !bytes.Equal(got[offSub:offSub+8], full[offFull:offFull+8]) {
		t.Fatal("sub-region read returned wrong element")
	}
}

func TestReplicatedSurvivesFailure(t *testing.T) {
	c := testCluster(t, PolicyReplicate)
	cl := c.NewClient()
	ctx := context.Background()
	box := Box3D(0, 0, 0, 8, 8, 8)
	data := regionData(t, box, 8, 4)
	if err := cl.Put(ctx, "temp", box, 1, data); err != nil {
		t.Fatal(err)
	}
	metas, err := cl.Query(ctx, "temp", box)
	if err != nil || len(metas) != 1 {
		t.Fatalf("query: %v, %d metas", err, len(metas))
	}
	c.Kill(metas[0].Primary)
	got, err := cl.Get(ctx, "temp", box, 1)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, data) {
		t.Fatal("replica fallback returned wrong data")
	}
}

func TestEncodedSurvivesFailureDegradedRead(t *testing.T) {
	c := testCluster(t, PolicyErasure)
	cl := c.NewClient()
	ctx := context.Background()
	box := Box3D(0, 0, 0, 8, 8, 8)
	data := regionData(t, box, 8, 5)
	if err := cl.Put(ctx, "temp", box, 1, data); err != nil {
		t.Fatal(err)
	}
	metas, err := cl.Query(ctx, "temp", box)
	if err != nil || len(metas) != 1 {
		t.Fatalf("query: %v, %d metas", err, len(metas))
	}
	if metas[0].State != types.StateEncoded {
		t.Fatalf("state = %v, want encoded", metas[0].State)
	}
	// Kill the primary (holds data shard 0): forces degraded reconstruction.
	c.Kill(metas[0].Primary)
	got, err := cl.Get(ctx, "temp", box, 1)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, data) {
		t.Fatal("degraded read returned wrong data")
	}
	if snap := c.Collector().Snapshot(); snap.Phase(4) == 0 && snap.PhaseCount[3] == 0 {
		t.Log("note: decode bucket not charged (reconstruction may have used surviving data shards only)")
	}
}

// TestOnlyCoRECChargesClassify pins Fig. 9's classify_ms column: puts and
// step ends charge the classify bucket under CoREC alone, which classifies
// its writes and decides its step-end transitions; every other mode charges
// it nothing.
func TestOnlyCoRECChargesClassify(t *testing.T) {
	ctx := context.Background()
	for _, mode := range []Mode{PolicyNone, PolicyReplicate, PolicyErasure, PolicyHybrid, PolicyCoREC} {
		c := testCluster(t, mode)
		cl := c.NewClient()
		for ts := Version(1); ts <= 3; ts++ {
			for i := int64(0); i < 4; i++ {
				b := Box3D(i*8, 0, 0, i*8+8, 8, 8)
				if err := cl.Put(ctx, "v", b, ts, regionData(t, b, 8, i)); err != nil {
					t.Fatalf("%v: put: %v", mode, err)
				}
			}
			c.EndTimeStep(ts)
		}
		got := c.Collector().Snapshot().Phase(metrics.Classify)
		if mode == PolicyCoREC && got == 0 {
			t.Errorf("%v charged nothing to the classify bucket", mode)
		}
		if mode != PolicyCoREC && got != 0 {
			t.Errorf("%v charged %v to the classify bucket, want 0", mode, got)
		}
	}
}

func TestCoRECDemotesColdData(t *testing.T) {
	// Disable the storage constraint so classification alone drives
	// transitions (constraint behaviour is covered separately below).
	cfg := DefaultConfig(8)
	cfg.Mode = PolicyCoREC
	cfg.StorageEfficiencyMin = 0
	c, err := NewCluster(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	cl := c.NewClient()
	ctx := context.Background()
	// Write 16 objects at ts=1; keep 2 hot through ts=6; the rest must be
	// demoted to erasure coding. Boxes are spaced beyond the spatial halo
	// so the hot pair does not protect its neighbours.
	var boxes []Box
	for i := int64(0); i < 16; i++ {
		boxes = append(boxes, Box3D(i*16, 0, 0, i*16+8, 8, 8))
	}
	for _, b := range boxes {
		if err := cl.Put(ctx, "temp", b, 1, regionData(t, b, 8, 6)); err != nil {
			t.Fatal(err)
		}
	}
	c.EndTimeStep(1)
	for ts := Version(2); ts <= 6; ts++ {
		for _, b := range boxes[:2] {
			if err := cl.Put(ctx, "temp", b, ts, regionData(t, b, 8, int64(ts))); err != nil {
				t.Fatal(err)
			}
		}
		c.EndTimeStep(ts)
	}
	rep := c.StorageReport()
	if rep.Encoded < 10 {
		t.Fatalf("cold objects not demoted to erasure coding: %+v", rep)
	}
	if rep.Replicated < 2 {
		t.Fatalf("hot objects were demoted too: %+v", rep)
	}
	// All data must still read back correctly after transitions.
	for i, b := range boxes[2:] {
		got, err := cl.Get(ctx, "temp", b, 1)
		if err != nil {
			t.Fatalf("object %d: %v", i+2, err)
		}
		if !bytes.Equal(got, regionData(t, b, 8, 6)) {
			t.Fatalf("object %d corrupted after demotion", i+2)
		}
	}
	for _, b := range boxes[:2] {
		got, err := cl.Get(ctx, "temp", b, 6)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, regionData(t, b, 8, 6)) {
			t.Fatal("hot object lost its latest write")
		}
	}
}

func TestCoRECStorageConstraintHolds(t *testing.T) {
	c := testCluster(t, PolicyCoREC)
	cl := c.NewClient()
	ctx := context.Background()
	// Hammer many objects hot: the constraint S=0.67 must force encodes so
	// cluster-wide efficiency stays near or above the bound.
	for ts := Version(1); ts <= 4; ts++ {
		for i := int64(0); i < 32; i++ {
			b := Box3D(i*8, 0, 0, i*8+8, 8, 8)
			if err := cl.Put(ctx, "temp", b, ts, regionData(t, b, 8, int64(i))); err != nil {
				t.Fatal(err)
			}
		}
		c.EndTimeStep(ts)
	}
	rep := c.StorageReport()
	if rep.Efficiency < 0.60 {
		t.Fatalf("efficiency %.3f collapsed far below constraint 0.67: %+v", rep.Efficiency, rep)
	}
}

func TestReplaceAndLazyRecovery(t *testing.T) {
	c := testCluster(t, PolicyErasure)
	cl := c.NewClient()
	ctx := context.Background()
	var boxes []Box
	for i := int64(0); i < 12; i++ {
		b := Box3D(i*8, 0, 0, i*8+8, 8, 8)
		boxes = append(boxes, b)
		if err := cl.Put(ctx, "temp", b, 1, regionData(t, b, 8, 100+i)); err != nil {
			t.Fatal(err)
		}
	}
	victim := ServerID(2)
	c.Kill(victim)
	// Degraded reads still work.
	for i, b := range boxes {
		got, err := cl.Get(ctx, "temp", b, 1)
		if err != nil {
			t.Fatalf("degraded read %d: %v", i, err)
		}
		if !bytes.Equal(got, regionData(t, b, 8, 100+int64(i))) {
			t.Fatalf("degraded read %d corrupted", i)
		}
	}
	// Replacement joins and recovers with a short deadline.
	srv, err := c.Replace(victim)
	if err != nil {
		t.Fatal(err)
	}
	repaired, err := srv.RunRecovery(ctx, recovery.Aggressive)
	if err != nil {
		t.Fatal(err)
	}
	if repaired == 0 {
		t.Fatal("recovery repaired nothing")
	}
	// After recovery, reads are clean and the replacement serves shards.
	for i, b := range boxes {
		got, err := cl.Get(ctx, "temp", b, 1)
		if err != nil {
			t.Fatalf("post-recovery read %d: %v", i, err)
		}
		if !bytes.Equal(got, regionData(t, b, 8, 100+int64(i))) {
			t.Fatalf("post-recovery read %d corrupted", i)
		}
	}
}

func TestReplaceRequiresDeadServer(t *testing.T) {
	c := testCluster(t, PolicyReplicate)
	if _, err := c.Replace(0); err == nil {
		t.Fatal("Replace of a live server accepted")
	}
}

func TestDoubleFailureWithinToleranceCoREC(t *testing.T) {
	cfg := DefaultConfig(12)
	cfg.Mode = PolicyCoREC
	cfg.NLevel = 2     // tolerate two failures
	cfg.DataShards = 2 // coding groups of 4; 12 % 4 == 0, replica groups of 3
	c, err := NewCluster(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	cl := c.NewClient()
	ctx := context.Background()
	var boxes []Box
	for i := int64(0); i < 8; i++ {
		b := Box3D(i*8, 0, 0, i*8+8, 8, 8)
		boxes = append(boxes, b)
		if err := cl.Put(ctx, "temp", b, 1, regionData(t, b, 8, 200+i)); err != nil {
			t.Fatal(err)
		}
	}
	// Cool everything into erasure coding.
	for ts := Version(2); ts <= 5; ts++ {
		c.EndTimeStep(ts)
	}
	c.Kill(0)
	c.Kill(1)
	for i, b := range boxes {
		got, err := cl.Get(ctx, "temp", b, 1)
		if err != nil {
			t.Fatalf("double-failure read %d: %v", i, err)
		}
		if !bytes.Equal(got, regionData(t, b, 8, 200+int64(i))) {
			t.Fatalf("double-failure read %d corrupted", i)
		}
	}
}

func TestStorageEfficiencyByPolicy(t *testing.T) {
	// Replication-only must sit near 0.5 (NLevel=1); erasure near 0.75
	// (RS(3+1)); CoREC in between, at or above ~S.
	eff := func(mode Mode) float64 {
		c := testCluster(t, mode)
		cl := c.NewClient()
		ctx := context.Background()
		for i := int64(0); i < 16; i++ {
			b := Box3D(i*8, 0, 0, i*8+8, 8, 8)
			if err := cl.Put(ctx, "temp", b, 1, regionData(t, b, 8, i)); err != nil {
				t.Fatal(err)
			}
		}
		for ts := Version(2); ts <= 5; ts++ {
			c.EndTimeStep(ts)
		}
		return c.StorageReport().Efficiency
	}
	er := eff(PolicyReplicate)
	ee := eff(PolicyErasure)
	ec := eff(PolicyCoREC)
	if er < 0.45 || er > 0.55 {
		t.Errorf("replication efficiency = %.3f, want ~0.5", er)
	}
	if ee < 0.70 || ee > 0.80 {
		t.Errorf("erasure efficiency = %.3f, want ~0.75", ee)
	}
	if ec <= er || ec > ee+0.01 {
		t.Errorf("CoREC efficiency = %.3f, want between replication %.3f and erasure %.3f", ec, er, ee)
	}
}

func TestConcurrentClients(t *testing.T) {
	c := testCluster(t, PolicyCoREC)
	ctx := context.Background()
	var wg sync.WaitGroup
	errCh := make(chan error, 16)
	for w := 0; w < 16; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			cl := c.NewClient()
			b := Box3D(int64(w)*8, 0, 0, int64(w)*8+8, 8, 8)
			data := regionData(t, b, 8, int64(w))
			for ts := Version(1); ts <= 3; ts++ {
				if err := cl.Put(ctx, "temp", b, ts, data); err != nil {
					errCh <- err
					return
				}
				got, err := cl.Get(ctx, "temp", b, ts)
				if err != nil {
					errCh <- err
					return
				}
				if !bytes.Equal(got, data) {
					errCh <- ErrDataLoss
					return
				}
			}
		}(w)
	}
	wg.Wait()
	close(errCh)
	for err := range errCh {
		t.Fatal(err)
	}
}

func TestMetricsRecorded(t *testing.T) {
	c := testCluster(t, PolicyErasure)
	cl := c.NewClient()
	ctx := context.Background()
	b := Box3D(0, 0, 0, 8, 8, 8)
	if err := cl.Put(ctx, "temp", b, 1, regionData(t, b, 8, 1)); err != nil {
		t.Fatal(err)
	}
	if _, err := cl.Get(ctx, "temp", b, 1); err != nil {
		t.Fatal(err)
	}
	snap := c.Collector().Snapshot()
	if snap.WriteCount != 1 || snap.ReadCount != 1 {
		t.Fatalf("response counts: %d writes, %d reads", snap.WriteCount, snap.ReadCount)
	}
	if snap.PhaseCount[2] == 0 { // Encode bucket
		t.Fatal("erasure write did not charge the encode bucket")
	}
}

func TestClusterValidation(t *testing.T) {
	if _, err := NewCluster(Config{Servers: 0}); err == nil {
		t.Fatal("zero servers accepted")
	}
	cfg := DefaultConfig(10)
	cfg.DataShards = 3 // coding group 4 does not divide 10
	if _, err := NewCluster(cfg); err == nil {
		t.Fatal("non-tiling coding groups accepted")
	}
}

func TestKillThenTimeout(t *testing.T) {
	c := testCluster(t, PolicyNone)
	cl := c.NewClient()
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
	defer cancel()
	b := Box3D(0, 0, 0, 4, 4, 4)
	if err := cl.Put(ctx, "v", b, 1, regionData(t, b, 8, 1)); err != nil {
		t.Fatal(err)
	}
	metas, _ := cl.Query(ctx, "v", b)
	if len(metas) != 1 {
		t.Fatalf("%d metas", len(metas))
	}
	c.Kill(metas[0].Primary)
	// Without resilience the data is simply gone.
	if _, err := cl.Get(ctx, "v", b, 1); err == nil {
		t.Fatal("read of lost unprotected data succeeded")
	}
}

func TestMultipleVariablesIsolated(t *testing.T) {
	// Real workflows stage several fields (species, temperature, ...);
	// variables must not interfere in the directory, the classifier, or
	// the stores.
	c := testCluster(t, PolicyCoREC)
	cl := c.NewClient()
	ctx := context.Background()
	box := Box3D(0, 0, 0, 8, 8, 8)
	vars := []string{"species", "temperature", "pressure"}
	payloads := make(map[string][]byte)
	for i, v := range vars {
		data := regionData(t, box, 8, int64(1000+i))
		payloads[v] = data
		if err := cl.Put(ctx, v, box, 1, data); err != nil {
			t.Fatal(err)
		}
	}
	c.EndTimeStep(1)
	for _, v := range vars {
		got, err := cl.Get(ctx, v, box, 1)
		if err != nil {
			t.Fatalf("%s: %v", v, err)
		}
		if !bytes.Equal(got, payloads[v]) {
			t.Fatalf("%s: cross-variable contamination", v)
		}
		metas, err := cl.Query(ctx, v, box)
		if err != nil || len(metas) != 1 {
			t.Fatalf("%s: query %v (%d metas)", v, err, len(metas))
		}
		if metas[0].ID.Var != v {
			t.Fatalf("%s: query leaked %s", v, metas[0].ID.Var)
		}
	}
	// Same region, different variables: distinct objects, possibly
	// distinct primaries.
	all := 0
	for _, v := range vars {
		metas, _ := cl.Query(ctx, v, box)
		all += len(metas)
	}
	if all != 3 {
		t.Fatalf("expected 3 distinct objects, saw %d", all)
	}
}

func TestQuiesceExposedViaEndTimeStep(t *testing.T) {
	// EndTimeStep must not return while background demotions are pending:
	// after it, the storage report is stable.
	cfg := DefaultConfig(8)
	cfg.Mode = PolicyCoREC
	c, err := NewCluster(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	cl := c.NewClient()
	ctx := context.Background()
	for i := int64(0); i < 16; i++ {
		b := Box3D(i*8, 0, 0, i*8+8, 8, 8)
		if err := cl.Put(ctx, "q", b, 1, regionData(t, b, 8, i)); err != nil {
			t.Fatal(err)
		}
	}
	c.EndTimeStep(1)
	// Quiescence check: sample the report through an observation window and
	// fail the moment any background work moves bytes after EndTimeStep has
	// returned (sampling beats one sleep+compare: a drift that settles back
	// before a single end-of-window sample would go unseen).
	before := c.StorageReport()
	for deadline := time.Now().Add(50 * time.Millisecond); time.Now().Before(deadline); {
		after := c.StorageReport()
		if before.ShardBytes != after.ShardBytes || before.ReplicaBytes != after.ReplicaBytes {
			t.Fatalf("storage drifted after EndTimeStep returned: %+v vs %+v", before, after)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

func TestDeleteEvictsAllRedundancy(t *testing.T) {
	for _, mode := range []Mode{PolicyReplicate, PolicyErasure, PolicyCoREC} {
		mode := mode
		t.Run(mode.String(), func(t *testing.T) {
			c := testCluster(t, mode)
			cl := c.NewClient()
			ctx := context.Background()
			var boxes []Box
			for i := int64(0); i < 8; i++ {
				b := Box3D(i*8, 0, 0, i*8+8, 8, 8)
				boxes = append(boxes, b)
				if err := cl.Put(ctx, "evict", b, 1, regionData(t, b, 8, i)); err != nil {
					t.Fatal(err)
				}
			}
			c.EndTimeStep(1)
			before := c.StorageReport()
			if before.ObjectBytes+before.ShardBytes == 0 {
				t.Fatal("nothing staged")
			}
			n, err := cl.Delete(ctx, "evict", Box{})
			if err != nil {
				t.Fatal(err)
			}
			if n != 8 {
				t.Fatalf("deleted %d objects, want 8", n)
			}
			after := c.StorageReport()
			if after.ObjectBytes != 0 || after.ReplicaBytes != 0 || after.ShardBytes != 0 {
				t.Fatalf("storage not released: %+v", after)
			}
			metas, err := cl.Query(ctx, "evict", Box{})
			if err != nil {
				t.Fatal(err)
			}
			if len(metas) != 0 {
				t.Fatalf("%d directory entries survive eviction", len(metas))
			}
			// Reads of evicted data return zeros (absent), not errors.
			got, err := cl.Get(ctx, "evict", boxes[0], 1)
			if err != nil {
				t.Fatal(err)
			}
			for _, b := range got {
				if b != 0 {
					t.Fatal("evicted data still readable")
				}
			}
		})
	}
}

func TestDeleteSubRegionLeavesRest(t *testing.T) {
	c := testCluster(t, PolicyReplicate)
	cl := c.NewClient()
	ctx := context.Background()
	a := Box3D(0, 0, 0, 8, 8, 8)
	b := Box3D(32, 0, 0, 40, 8, 8)
	dataB := regionData(t, b, 8, 2)
	if err := cl.Put(ctx, "part", a, 1, regionData(t, a, 8, 1)); err != nil {
		t.Fatal(err)
	}
	if err := cl.Put(ctx, "part", b, 1, dataB); err != nil {
		t.Fatal(err)
	}
	n, err := cl.Delete(ctx, "part", a)
	if err != nil || n != 1 {
		t.Fatalf("deleted %d (%v), want 1", n, err)
	}
	got, err := cl.Get(ctx, "part", b, 1)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, dataB) {
		t.Fatal("survivor object damaged by regional delete")
	}
}
