// s3d-workflow: a scaled-down version of the paper's S3D lifted-hydrogen
// combustion workflow — a parallel simulation writes its 3-D decomposition
// into the staging area every time step while a coupled analysis
// application reads the full domain back, all protected by CoREC.
//
// Run with: go run ./examples/s3d-workflow
package main

import (
	"context"
	"fmt"
	"log"
	"math/rand"
	"sync"
	"time"

	"corec"
	"corec/internal/geometry"
	"corec/internal/ndarray"
)

const (
	writers   = 16
	timeSteps = 10
	blockEdge = 16 // per-writer 16^3 block, mirroring the paper's 64^3
)

func main() {
	// Domain: 4x2x2 writer grid of 16^3 blocks = 64x32x32 cells.
	domain := corec.Box3D(0, 0, 0, 4*blockEdge, 2*blockEdge, 2*blockEdge)
	cfg := corec.DefaultConfig(8)
	cfg.Domain = domain
	cluster, err := corec.NewCluster(cfg)
	if err != nil {
		log.Fatal(err)
	}
	defer cluster.Close()

	blocks, err := geometry.GridDecompose(domain, []int64{blockEdge, blockEdge, blockEdge})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("S3D-like workflow: %d writers x %d steps over %v (%.1f MiB/step)\n",
		writers, timeSteps, domain, float64(domain.Volume()*8)/(1<<20))

	ctx := context.Background()

	// The analysis application runs concurrently with the simulation,
	// consuming each time step as soon as its data reaches the staging
	// area (WaitForVersion is the coupling primitive).
	type stepReport struct {
		ts   corec.Version
		read time.Duration
	}
	reads := make(chan stepReport, timeSteps)
	go func() {
		analysis := cluster.NewClient()
		// One buffer for every step: GetInto fills it in place (and clears
		// whatever a step did not cover), so the loop allocates no field.
		field := make([]byte, ndarray.BufferSize(domain, cfg.ElemSize))
		for ts := corec.Version(1); ts <= timeSteps; ts++ {
			if _, err := analysis.WaitForVersion(ctx, "species", domain, ts); err != nil {
				log.Fatal(err)
			}
			start := time.Now()
			if err := analysis.GetInto(ctx, "species", domain, ts, field); err != nil {
				log.Fatal(err)
			}
			reads <- stepReport{ts: ts, read: time.Since(start)}
		}
		close(reads)
	}()

	for ts := corec.Version(1); ts <= timeSteps; ts++ {
		// Simulation phase: every writer rank stages its sub-domain.
		wStart := time.Now()
		var wg sync.WaitGroup
		for w := 0; w < writers; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				client := cluster.NewClient()
				rng := rand.New(rand.NewSource(int64(ts)*100 + int64(w)))
				for i := w; i < len(blocks); i += writers {
					buf := make([]byte, ndarray.BufferSize(blocks[i], 8))
					rng.Read(buf)
					if err := client.Put(ctx, "species", blocks[i], ts, buf); err != nil {
						log.Fatal(err)
					}
				}
			}(w)
		}
		wg.Wait()
		writeTime := time.Since(wStart)
		demoted, promoted := cluster.EndTimeStep(ts)
		fmt.Printf("  ts %2d: write %8v  (transitions: %d demoted, %d promoted)\n",
			ts, writeTime.Round(time.Microsecond), demoted, promoted)
	}
	for r := range reads {
		fmt.Printf("  analysis consumed ts %2d in %v\n", r.ts, r.read.Round(time.Microsecond))
	}

	rep := cluster.StorageReport()
	fmt.Printf("final storage: %.1f MiB primary, %.1f MiB replicas, %.1f MiB shards; efficiency %.2f\n",
		mib(rep.ObjectBytes), mib(rep.ReplicaBytes), mib(rep.ShardBytes), rep.Efficiency)
}

func mib(b int64) float64 { return float64(b) / (1 << 20) }
