package corec

import (
	"bytes"
	"context"
	"sync"
	"testing"

	"corec/internal/erasure"
)

// TestChaosParallelEncodeDegradedReads is the cluster-level arm of the
// encode-engine race coverage (the -race chaos CI job matches TestChaos*):
// concurrent Puts drive every server's encode worker pool while, after a
// server kill, concurrent degraded Gets hammer the shared decode-matrix
// caches. Everything must round-trip byte-exact, every codec must run the
// fixed engine (GOMAXPROCS workers, a decode cache) and the caches must
// report hits for the repeated loss pattern.
func TestChaosParallelEncodeDegradedReads(t *testing.T) {
	cfg := DefaultConfig(8)
	cfg.Mode = PolicyErasure
	cfg.Seed = 7
	c, err := NewCluster(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	ctx := context.Background()
	const objects = 12
	boxes := make([]Box, objects)
	payload := make([][]byte, objects)
	for i := range boxes {
		boxes[i] = Box3D(int64(i)*16, 0, 0, int64(i)*16+8, 8, 8)
		payload[i] = regionData(t, boxes[i], 8, int64(900+i))
	}
	// Phase 1: concurrent Puts through the parallel encode path.
	var wg sync.WaitGroup
	errs := make(chan error, objects)
	for i := range boxes {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			cl := c.NewClient()
			if err := cl.Put(ctx, "temp", boxes[i], 1, payload[i]); err != nil {
				errs <- err
			}
		}(i)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	// Confirm the engine configuration is live on the servers.
	workers := erasure.DefaultWorkers()
	cl := c.NewClient()
	for _, st := range cl.Status(ctx) {
		if st.Alive && st.Stats.EncodeWorkers != workers {
			t.Fatalf("server %d encode workers = %d, want GOMAXPROCS = %d", st.ID, st.Stats.EncodeWorkers, workers)
		}
	}
	// Phase 2: kill a shard holder, then concurrent degraded reads of every
	// object — the same erasure pattern repeats, so caches must fill and hit.
	metas, err := cl.Query(ctx, "temp", boxes[0])
	if err != nil || len(metas) != 1 {
		t.Fatalf("query: %v, %d metas", err, len(metas))
	}
	c.Kill(metas[0].Primary)
	errs = make(chan error, objects)
	for round := 0; round < 2; round++ {
		for i := range boxes {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				cl := c.NewClient()
				got, err := cl.Get(ctx, "temp", boxes[i], 1)
				if err != nil {
					errs <- err
					return
				}
				if !bytes.Equal(got, payload[i]) {
					errs <- errMismatch(i, 1)
				}
			}(i)
		}
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	enc := c.FabricStatus().Encoding
	if enc.Workers != workers {
		t.Fatalf("fabric encoding workers = %d, want GOMAXPROCS = %d", enc.Workers, workers)
	}
	if enc.DecodeCacheHits == 0 {
		t.Fatalf("repeated degraded reads produced no decode-cache hits: %+v", enc)
	}
}
