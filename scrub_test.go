package corec

import (
	"bytes"
	"context"
	"sync"
	"testing"
	"time"

	"corec/internal/failure"
	"corec/internal/scrub"
	"corec/internal/transport"
	"corec/internal/types"
)

// TestScrubDetectsAndRepairsScheduledBitRot is the headline anti-entropy
// test: a seeded FaultPlan plants at-rest corruption across replica copies
// and stripe shards at a step boundary, a cluster-wide sweep must detect
// exactly those corruptions, repair every one, and leave all staged data
// byte-identical on a full read sweep. Everything is seeded, so the
// detection count is an exact equality, not a floor.
func TestScrubDetectsAndRepairsScheduledBitRot(t *testing.T) {
	cfg := DefaultConfig(8)
	cfg.Mode = PolicyCoREC
	cfg.StorageEfficiencyMin = 0 // classification alone drives demotion
	cfg.Seed = 7
	cfg.FaultPlan = &failure.FaultPlan{
		Seed: 42,
		BitRot: []failure.BitRotFault{
			// Shard rot on servers in different coding groups ({0..3} and
			// {4..7}): two rotted shards can never share a stripe, so every
			// corruption stays within the code's repair distance.
			{Server: 0, Step: 6, Count: 1, Target: failure.RotShards},
			{Server: 4, Step: 6, Count: 1, Target: failure.RotShards},
			// Replica rot wherever mirrors landed.
			{Server: 1, Step: 6, Count: 1, Target: failure.RotReplicas},
			{Server: 5, Step: 6, Count: 1, Target: failure.RotReplicas},
			{Server: 3, Step: 6, Count: 1, Target: failure.RotReplicas},
		},
	}
	c, err := NewCluster(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	cl := c.NewClient()
	ctx := context.Background()

	// 16 objects; half stay hot (replicated with live mirrors), half cool
	// into erasure coding, so the rot schedule has both kinds of targets.
	var boxes []Box
	for i := int64(0); i < 16; i++ {
		boxes = append(boxes, Box3D(i*16, 0, 0, i*16+8, 8, 8))
	}
	committed := make(map[int][]byte)
	for i, b := range boxes {
		data := regionData(t, b, 8, int64(4000+i))
		if err := cl.Put(ctx, "rot", b, 1, data); err != nil {
			t.Fatal(err)
		}
		committed[i] = data
	}
	c.EndTimeStep(1)
	for ts := Version(2); ts <= 6; ts++ {
		for i, b := range boxes[:8] {
			data := regionData(t, b, 8, int64(ts)*100+int64(i))
			if err := cl.Put(ctx, "rot", b, ts, data); err != nil {
				t.Fatal(err)
			}
			committed[i] = data
		}
		c.EndTimeStep(ts) // the plan's bit rot lands after step 6
	}

	rotted := c.BitRotLog()
	if len(rotted) == 0 {
		t.Fatal("fault plan planted no corruption (nothing resident on the targeted servers?)")
	}
	var shardRots, replicaRots int
	for _, ev := range rotted {
		switch ev.Category {
		case "shard":
			shardRots++
		case "replica":
			replicaRots++
		}
	}
	if shardRots == 0 || replicaRots == 0 {
		t.Fatalf("rot did not span both categories: %+v", rotted)
	}
	n := int64(len(rotted))

	rep, err := c.ScrubNow(ctx)
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("planted %d (%d shard, %d replica); sweep: %+v", n, shardRots, replicaRots, rep)
	if rep.Corruptions != n {
		t.Fatalf("sweep detected %d corruptions, want exactly %d (%+v)", rep.Corruptions, n, rep)
	}
	if rep.Unrepaired != 0 {
		t.Fatalf("%d corruptions left unrepaired: %+v", rep.Unrepaired, rep)
	}
	if rep.Repairs < n {
		t.Fatalf("repaired %d < planted %d: %+v", rep.Repairs, n, rep)
	}

	// The cluster-level counters surface the same story.
	fs := c.FabricStatus()
	if fs.Scrub.Corruptions != n || fs.Scrub.Repairs != rep.Repairs {
		t.Fatalf("FabricStatus.Scrub = %+v, want corruptions %d repairs %d", fs.Scrub, n, rep.Repairs)
	}
	if fs.Scrub.Scanned == 0 || fs.Scrub.Bytes == 0 {
		t.Fatalf("scan counters not recorded: %+v", fs.Scrub)
	}

	// Full-data read sweep: every object byte-identical to its last commit.
	for i, b := range boxes {
		v := Version(1)
		if i < 8 {
			v = 6
		}
		got, err := cl.Get(ctx, "rot", b, v)
		if err != nil {
			t.Fatalf("object %d: %v", i, err)
		}
		if !bytes.Equal(got, committed[i]) {
			t.Fatalf("object %d corrupt after scrub repair", i)
		}
	}

	// A second sweep over the repaired cluster must come back clean.
	rep2, err := c.ScrubNow(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if rep2.Corruptions != 0 || rep2.Unrepaired != 0 || rep2.Backfills != 0 {
		t.Fatalf("second sweep not clean: %+v", rep2)
	}
}

// TestScrubNowCoversJoinedServers: a sweep reaches every live server, not
// just the IDs the fleet started with — rot on a server JoinNew admitted and
// Rebalance filled is found like rot anywhere else.
func TestScrubNowCoversJoinedServers(t *testing.T) {
	c := elasticCluster(t, elasticConfig(8))
	cl := c.NewClient()
	ctx := context.Background()
	seedChurnObjects(t, c, cl, "joined", 32)
	id, err := c.JoinNew()
	if err != nil {
		t.Fatal(err)
	}
	if rep, err := c.Rebalance(ctx); err != nil || rep.Moved == 0 {
		t.Fatalf("rebalance onto the newcomer: %+v, %v", rep, err)
	}
	rotted := c.InjectBitRot(id, failure.RotAny, 2)
	if len(rotted) == 0 {
		t.Fatalf("server %d holds nothing to rot after the rebalance", id)
	}
	rep, err := c.ScrubNow(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Corruptions != int64(len(rotted)) {
		t.Fatalf("sweep detected %d corruptions, want the %d planted on joined server %d (%+v)", rep.Corruptions, len(rotted), id, rep)
	}
}

// TestVerifiedReadWithholdsRottedPrimary: with the scrubber on, a primary
// withholds its full copy once rot makes it fail its digest, and a client get
// is served the right bytes by the mirror. The same holds after a scrub pass
// restored the copy and it rotted again: the restore records the digest of
// the copy it installs.
func TestVerifiedReadWithholdsRottedPrimary(t *testing.T) {
	cfg := DefaultConfig(8)
	cfg.Mode = PolicyReplicate
	cfg.Seed = 7
	cfg.Scrub = &ScrubConfig{} // verified reads on, no background pass
	c, err := NewCluster(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	cl := c.NewClient()
	ctx := context.Background()
	box := Box3D(0, 0, 0, 8, 8, 8)
	data := regionData(t, box, 8, 77)
	if err := cl.Put(ctx, "rot", box, 1, data); err != nil {
		t.Fatal(err)
	}
	metas, err := cl.Query(ctx, "rot", box)
	if err != nil || len(metas) != 1 {
		t.Fatalf("query: %v, %d records", err, len(metas))
	}
	primary := metas[0].Primary
	key := types.ObjectID{Var: "rot", Box: box}.Key()
	srv := c.Server(primary)
	for round := 1; round <= 2; round++ {
		if evs := c.InjectBitRot(primary, failure.RotObjects, 1); len(evs) != 1 || evs[0].Key != key {
			t.Fatalf("round %d: rot planted %+v, want one on %s", round, evs, key)
		}
		for _, floor := range []Version{0, 1} {
			if resp := srv.Handle(ctx, &transport.Message{Kind: transport.MsgGet, Key: key, Version: floor}); resp.Flag {
				t.Fatalf("round %d: primary served its rotted copy to a get naming floor %d", round, floor)
			}
		}
		if got, err := cl.Get(ctx, "rot", box, 1); err != nil || !bytes.Equal(got, data) {
			t.Fatalf("round %d: client get: err %v, bytes equal %v", round, err, bytes.Equal(got, data))
		}
		if rep, err := srv.ScrubDepth(ctx, scrub.DepthLocal); err != nil || rep.Corruptions != 1 || rep.Repairs != 1 {
			t.Fatalf("round %d: local pass %+v, %v; want the rot found and repaired", round, rep, err)
		}
	}
}

// TestScrubThroughputWithinBudget verifies the token bucket actually paces
// a pass: scanning B bytes at R bytes/sec from a bucket holding `burst`
// tokens (scrub.ByteBurst) cannot finish before (B-burst)/R.
func TestScrubThroughputWithinBudget(t *testing.T) {
	c := testCluster(t, PolicyReplicate)
	cl := c.NewClient()
	ctx := context.Background()
	for i := int64(0); i < 128; i++ { // well over the bucket's 64 KiB floor on server 0
		b := Box3D(i*8, 0, 0, i*8+8, 8, 8)
		if err := cl.Put(ctx, "paced", b, 1, regionData(t, b, 8, i)); err != nil {
			t.Fatal(err)
		}
	}
	srv := c.Server(0)
	const rate = 128 << 10
	burst := int64(scrub.ByteBurst(rate))
	if err := srv.StartScrubber(scrub.Config{
		Interval:    0, // no background loop; we drive passes by hand
		BytesPerSec: rate,
		Depth:       scrub.DepthLocal,
	}); err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	rep, err := srv.ScrubOnce(ctx)
	elapsed := time.Since(start)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Bytes <= burst {
		t.Fatalf("server 0 scanned only %d bytes; test needs > burst %d", rep.Bytes, burst)
	}
	if got := c.FabricStatus().Scrub.Bytes; got != rep.Bytes {
		t.Fatalf("metrics byte count %d != report %d", got, rep.Bytes)
	}
	floor := time.Duration(float64(rep.Bytes-burst) / rate * float64(time.Second))
	if elapsed < floor*9/10 {
		t.Fatalf("pass over %d bytes took %v, below the budget floor %v", rep.Bytes, elapsed, floor)
	}
	t.Logf("scanned %d bytes in %v (floor %v)", rep.Bytes, elapsed, floor)
}

// TestScrubMonitorInteraction covers the scrubber/monitor boundary: a
// mirror dying mid-scan surfaces as skips (never corruption), hinted
// handoff repairs degraded directory mirrors before the sweep runs, and
// with ScrubAfterRecovery the replacement server is verified as part of
// recovery.
func TestScrubMonitorInteraction(t *testing.T) {
	cfg := DefaultConfig(8)
	cfg.Mode = PolicyReplicate
	cfg.MTBF = 400 * time.Millisecond
	cfg.Seed = 7
	c, err := NewCluster(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	cl := c.NewClient()
	ctx := context.Background()

	var boxes []Box
	for i := int64(0); i < 16; i++ {
		b := Box3D(i*8, 0, 0, i*8+8, 8, 8)
		boxes = append(boxes, b)
		if err := cl.Put(ctx, "mon", b, 1, regionData(t, b, 8, 500+i)); err != nil {
			t.Fatal(err)
		}
	}

	// Kill a server, then cross-check from its replication-group partner
	// (groups pair {2k, 2k+1}) while it is down: every probe to the dead
	// mirror must land in Skipped, not Corruptions.
	victim := ServerID(3)
	partner := ServerID(2)
	c.Kill(victim)
	rep, err := c.Server(partner).ScrubOnce(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Corruptions != 0 {
		t.Fatalf("dead mirror reported as corruption: %+v", rep)
	}

	// Writes while the mirror is down degrade directory-group updates and
	// queue hinted handoff.
	for i, b := range boxes {
		if err := cl.Put(ctx, "mon", b, 2, regionData(t, b, 8, 600+int64(i))); err != nil {
			t.Fatal(err)
		}
	}

	m := c.StartMonitor(MonitorConfig{
		Interval:           10 * time.Millisecond,
		AutoRecover:        true,
		ScrubAfterRecovery: true,
	})
	defer m.Stop()
	waitForEvent(t, m, EventRecoveryFinished, victim, 5*time.Second)

	// ScrubAfterRecovery ran a pass on the replacement before the finish
	// event fired.
	if got := c.Server(victim).ScrubPasses(); got == 0 {
		t.Fatal("ScrubAfterRecovery did not scrub the replacement")
	}

	// Step boundary flushes the queued mirror hints; the sweep afterwards
	// must agree with the hinted-handoff repairs — directory mirrors were
	// already reconverged, so the scrubber finds nothing wrong.
	c.EndTimeStep(2)
	if got := c.FabricStatus().MirrorRepairs; got == 0 {
		t.Fatal("degraded writes queued no hinted-handoff repairs")
	}
	swept, err := c.ScrubNow(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if swept.Corruptions != 0 || swept.Unrepaired != 0 {
		t.Fatalf("post-recovery sweep disagrees with hinted handoff: %+v", swept)
	}
	for i, b := range boxes {
		got, err := cl.Get(ctx, "mon", b, 2)
		if err != nil {
			t.Fatalf("object %d: %v", i, err)
		}
		if !bytes.Equal(got, regionData(t, b, 8, 600+int64(i))) {
			t.Fatalf("object %d lost its post-failure write", i)
		}
	}
}

// TestScrubConcurrentWithForeground runs the background scrubber at a
// deliberately aggressive interval while clients hammer puts and gets.
// It runs in -short mode on purpose: the CI race-detector job leans on it
// to cover the scrubber goroutines against the foreground path.
func TestScrubConcurrentWithForeground(t *testing.T) {
	cfg := DefaultConfig(8)
	cfg.Mode = PolicyCoREC
	cfg.Seed = 7
	cfg.Scrub = &ScrubConfig{Interval: 5 * time.Millisecond, Depth: scrub.DepthStripe}
	c, err := NewCluster(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	ctx := context.Background()

	totalPasses := func() int64 {
		var passes int64
		for i := 0; i < c.NumServers(); i++ {
			passes += c.Server(types.ServerID(i)).ScrubPasses()
		}
		return passes
	}
	var wg sync.WaitGroup
	errCh := make(chan error, 8)
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			cl := c.NewClient()
			b := Box3D(int64(w)*8, 0, 0, int64(w)*8+8, 8, 8)
			for ts := Version(1); ts <= 6; ts++ {
				data := regionData(t, b, 8, int64(w)*10+int64(ts))
				if err := cl.Put(ctx, "fg", b, ts, data); err != nil {
					errCh <- err
					return
				}
				got, err := cl.Get(ctx, "fg", b, ts)
				if err != nil {
					errCh <- err
					return
				}
				if !bytes.Equal(got, data) {
					errCh <- errMismatch(w, int(ts))
					return
				}
				// Let scrub passes interleave with the writes: pace on the
				// scrubber's own progress counter (bounded, non-failing — a
				// loaded runner just moves on) instead of a wall-clock nap.
				start := totalPasses()
				for d := time.Now().Add(50 * time.Millisecond); totalPasses() == start && time.Now().Before(d); {
					time.Sleep(time.Millisecond)
				}
			}
		}(w)
	}
	wg.Wait()
	close(errCh)
	for err := range errCh {
		t.Fatal(err)
	}
	c.EndTimeStep(7)

	// The background loops demonstrably ran while the writers were active.
	var passes int64
	for i := 0; i < c.NumServers(); i++ {
		passes += c.Server(types.ServerID(i)).ScrubPasses()
	}
	if passes == 0 {
		t.Fatal("background scrubber never completed a pass")
	}
	if rep, err := c.ScrubNow(ctx); err != nil || rep.Corruptions != 0 {
		t.Fatalf("foreground traffic misdiagnosed as corruption: %+v (%v)", rep, err)
	}
}
