package corec

import (
	"context"
	"sync"
	"testing"
	"time"

	"corec/internal/failure"
	"corec/internal/transport"
)

func TestStatusReportsAllServers(t *testing.T) {
	c := testCluster(t, PolicyCoREC)
	cl := c.NewClient()
	ctx := context.Background()
	box := Box3D(0, 0, 0, 8, 8, 8)
	if err := cl.Put(ctx, "v", box, 1, regionData(t, box, 8, 1)); err != nil {
		t.Fatal(err)
	}
	c.EndTimeStep(1)
	statuses := cl.Status(ctx)
	if len(statuses) != 8 {
		t.Fatalf("got %d statuses", len(statuses))
	}
	var totalDir, totalBytes int
	for _, s := range statuses {
		if !s.Alive {
			t.Fatalf("server %d reported dead", s.ID)
		}
		totalDir += s.Stats.DirEntries
		totalBytes += int(s.Stats.ObjectBytes + s.Stats.ReplicaBytes + s.Stats.ShardBytes)
	}
	if totalDir == 0 {
		t.Fatal("no directory entries visible in status")
	}
	if totalBytes == 0 {
		t.Fatal("no stored bytes visible in status")
	}
	// Kill one server: its status flips to dead.
	c.Kill(3)
	statuses = cl.Status(ctx)
	if statuses[3].Alive {
		t.Fatal("dead server reported alive")
	}
	alive := 0
	for _, s := range statuses {
		if s.Alive {
			alive++
		}
	}
	if alive != 7 {
		t.Fatalf("%d alive, want 7", alive)
	}
}

// TestFabricStatusPollsEachMemberOnce: FabricStatus, the one call corec-cli
// status makes, sends exactly one MsgStats to each live member and carries
// the reports it polled alongside the sums it took from them.
func TestFabricStatusPollsEachMemberOnce(t *testing.T) {
	cfg := DefaultConfig(8)
	cfg.Mode = PolicyCoREC
	c, counter := countedCluster(t, cfg)
	cl := c.NewClient()
	box := Box3D(0, 0, 0, 8, 8, 8)
	if err := cl.Put(context.Background(), "v", box, 1, regionData(t, box, 8, 1)); err != nil {
		t.Fatal(err)
	}
	counter.take()
	fs := c.FabricStatus()
	if n := counter.count(transport.MsgStats); n != cfg.Servers {
		t.Fatalf("FabricStatus sent %d MsgStats to %d live members, want one each", n, cfg.Servers)
	}
	if len(fs.Servers) != cfg.Servers {
		t.Fatalf("FabricStatus carries %d server reports, want %d", len(fs.Servers), cfg.Servers)
	}
	// The one object is replicated or, once the background encode has run,
	// encoded: either way exactly one server is its primary.
	objects := 0
	for _, s := range fs.Servers {
		if !s.Alive {
			t.Fatalf("server %d reported dead", s.ID)
		}
		objects += s.Stats.Replicated + s.Stats.Encoded
	}
	if objects != 1 {
		t.Fatalf("server reports name %d primary objects, want 1", objects)
	}
}

// TestStatusScrubOneRecordTwoViews: the scrub tallies a remote admin reads
// over MsgStats and the ones FabricStatus sums in process are one record.
// After planted rot and a sweep over real TCP sockets, the servers' reported
// Scrub reports add up to FabricStatus().Scrub and to the sweep's own report.
func TestStatusScrubOneRecordTwoViews(t *testing.T) {
	cfg := DefaultConfig(8)
	cfg.Transport = "tcp"
	cfg.StorageEfficiencyMin = 0
	cfg.Seed = 7
	cfg.Scrub = &ScrubConfig{} // verified reads on, no background pass
	c, err := NewCluster(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	cl := c.NewClient()
	ctx := context.Background()
	for i := int64(0); i < 16; i++ {
		b := Box3D(i*16, 0, 0, i*16+8, 8, 8)
		if err := cl.Put(ctx, "views", b, 1, regionData(t, b, 8, 500+i)); err != nil {
			t.Fatal(err)
		}
	}
	for ts := Version(1); ts <= 3; ts++ {
		c.EndTimeStep(ts) // cool objects into stripes: rot has both kinds of target
	}
	rotted := c.InjectBitRot(0, failure.RotAny, 2)
	if len(rotted) == 0 {
		t.Fatal("server 0 holds nothing to rot")
	}
	rep, err := c.ScrubNow(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Corruptions != int64(len(rotted)) {
		t.Fatalf("sweep detected %d corruptions, want the %d planted (%+v)", rep.Corruptions, len(rotted), rep)
	}
	var remote ScrubReport
	for _, s := range cl.Status(ctx) {
		if !s.Alive {
			t.Fatalf("server %d reported dead", s.ID)
		}
		remote.Add(s.Stats.Scrub)
	}
	if fs := c.FabricStatus().Scrub; remote != fs || remote != rep {
		t.Fatalf("scrub views differ:\n  Status sum   %+v\n  FabricStatus %+v\n  sweep        %+v", remote, fs, rep)
	}
}

func TestWaitForVersionCouplesWriterAndReader(t *testing.T) {
	c := testCluster(t, PolicyReplicate)
	ctx := context.Background()
	box := Box3D(0, 0, 0, 8, 8, 8)
	data := regionData(t, box, 8, 7)

	// The simulation (writer) lags the analysis (reader): hand off through a
	// channel right before the reader blocks, rather than guessing a lag
	// with a wall-clock sleep. WaitForVersion must be correct for either
	// interleaving, so the handoff only needs to make the lagging order
	// overwhelmingly likely, not guaranteed.
	readerWaiting := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		<-readerWaiting
		writer := c.NewClient()
		writer.Put(ctx, "coupled", box, 5, data) //nolint:errcheck
	}()

	reader := c.NewClient()
	waitCtx, cancel := context.WithTimeout(ctx, 5*time.Second)
	defer cancel()
	close(readerWaiting)
	metas, err := reader.WaitForVersion(waitCtx, "coupled", box, 5)
	if err != nil {
		t.Fatal(err)
	}
	if len(metas) == 0 || metas[0].Version < 5 {
		t.Fatalf("WaitForVersion returned %+v", metas)
	}
	wg.Wait()
	got, err := reader.Get(ctx, "coupled", box, 5)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(data) {
		t.Fatal("coupled read wrong size")
	}
}

func TestWaitForVersionTimesOut(t *testing.T) {
	c := testCluster(t, PolicyNone)
	cl := c.NewClient()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Millisecond)
	defer cancel()
	if _, err := cl.WaitForVersion(ctx, "never", Box3D(0, 0, 0, 2, 2, 2), 1); err == nil {
		t.Fatal("wait for absent data did not time out")
	}
}

func TestWaitForVersionIgnoresOlderVersions(t *testing.T) {
	c := testCluster(t, PolicyNone)
	cl := c.NewClient()
	ctx := context.Background()
	box := Box3D(0, 0, 0, 4, 4, 4)
	if err := cl.Put(ctx, "v", box, 2, regionData(t, box, 8, 2)); err != nil {
		t.Fatal(err)
	}
	waitCtx, cancel := context.WithTimeout(ctx, 30*time.Millisecond)
	defer cancel()
	if _, err := cl.WaitForVersion(waitCtx, "v", box, 3); err == nil {
		t.Fatal("older version satisfied a newer wait")
	}
}
