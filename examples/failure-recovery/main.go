// failure-recovery: reproduces the shape of the paper's Figure 10 — a
// read-every-step workload with staged failures, degraded-mode reads, and
// CoREC's lazy recovery once a replacement server joins. Watch the read
// latency bump while servers are dead, the gradual repair, and the return
// to baseline.
//
// Run with: go run ./examples/failure-recovery
package main

import (
	"context"
	"fmt"
	"log"
	"math/rand"
	"time"

	"corec"
	"corec/internal/geometry"
	"corec/internal/ndarray"
)

func main() {
	cfg := corec.DefaultConfig(8)
	cfg.MTBF = 4 * time.Second // lazy recovery deadline = 1s
	cluster, err := corec.NewCluster(cfg)
	if err != nil {
		log.Fatal(err)
	}
	defer cluster.Close()
	client := cluster.NewClient()
	ctx := context.Background()

	// Populate the domain once (Case 5: read-dominated workload).
	domain := corec.Box3D(0, 0, 0, 64, 32, 32)
	blocks, err := geometry.GridDecompose(domain, []int64{16, 16, 16})
	if err != nil {
		log.Fatal(err)
	}
	rng := rand.New(rand.NewSource(7))
	for _, b := range blocks {
		buf := make([]byte, ndarray.BufferSize(b, 8))
		rng.Read(buf)
		if err := client.Put(ctx, "field", b, 1, buf); err != nil {
			log.Fatal(err)
		}
	}
	// Let everything cool into erasure coding.
	for ts := corec.Version(2); ts <= 3; ts++ {
		cluster.EndTimeStep(ts)
	}
	rep := cluster.StorageReport()
	fmt.Printf("staged %d objects (%d encoded) across 8 servers\n",
		rep.Replicated+rep.Encoded, rep.Encoded)

	victim := corec.ServerID(2)
	for ts := 4; ts <= 16; ts++ {
		switch ts {
		case 6:
			cluster.Kill(victim)
			fmt.Printf("-- ts %d: server %d FAILED (degraded mode: reads reconstruct on the fly)\n", ts, victim)
		case 10:
			if _, err := cluster.Replace(victim); err != nil {
				log.Fatal(err)
			}
			fmt.Printf("-- ts %d: replacement server joined; lazy recovery running (deadline MTBF/4)\n", ts)
			go func() {
				repaired, err := client.RecoverServer(ctx, victim, corec.RecoveryLazy)
				if err != nil {
					log.Printf("recovery: %v", err)
				}
				fmt.Printf("   lazy recovery finished: %d objects repaired in the background\n", repaired)
			}()
		}
		start := time.Now()
		if _, err := client.Get(ctx, "field", domain, 1); err != nil {
			log.Fatalf("ts %d: read failed: %v", ts, err)
		}
		fmt.Printf("   ts %2d: full-domain read %v\n", ts, time.Since(start).Round(time.Microsecond))
		time.Sleep(100 * time.Millisecond) // pace the timeline so repair interleaves
	}
	fmt.Println("all reads stayed available across failure and recovery ✓")
}
