// checkpoint-compare: the Figure 2 story as a runnable demo — the same
// staged workload protected three ways: not at all, by periodic
// Checkpoint/Restart to a (simulated) parallel file system, and by CoREC.
// Checkpointing stalls the workflow in proportion to the staged volume and
// still needs a costly global restart after a failure; CoREC's redundancy
// rides along with the writes and recovers in place.
//
// Run with: go run ./examples/checkpoint-compare
package main

import (
	"fmt"
	"log"
	"time"

	"corec"
	"corec/internal/geometry"
	"corec/internal/harness"
	"corec/internal/simnet"
	"corec/internal/workload"
)

func main() {
	cfg := corec.DefaultConfig(8)
	cfg.Domain = geometry.Box3D(0, 0, 0, 96, 96, 96)
	cfg.Link = simnet.Titan(1)
	cfg.Seed = 9
	base := harness.Options{
		Config:    cfg,
		Writers:   8,
		Readers:   4,
		Pattern:   workload.Case5ReadAll,
		BlockSize: []int64{24, 24, 24},
		TimeSteps: 20,
	}
	fmt.Printf("workload: stage %.1f MiB once, analysis reads it for 20 steps\n\n",
		float64(cfg.Domain.Volume()*8)/(1<<20))

	plain := base
	plain.Label = "no fault tolerance"
	plain.Config.Mode = corec.PolicyNone
	rPlain, err := harness.Run(plain)
	if err != nil {
		log.Fatal(err)
	}

	checked := base
	checked.Label = "checkpoint/restart"
	checked.Config.Mode = corec.PolicyNone
	checked.Checkpoints = 13 // the paper's 4 s cadence over a 20-step run
	checked.PFS = simnet.PFSModel{OpenLatency: 2 * time.Millisecond, BytesPerSecond: 256 << 20}
	rCheck, err := harness.Run(checked)
	if err != nil {
		log.Fatal(err)
	}

	withCoREC := base
	withCoREC.Label = "CoREC"
	withCoREC.Config.Mode = corec.PolicyCoREC
	rCoREC, err := harness.Run(withCoREC)
	if err != nil {
		log.Fatal(err)
	}

	fmt.Printf("%-22s total %8v  (baseline)\n", rPlain.Label, rPlain.Elapsed.Round(time.Millisecond))
	fmt.Printf("%-22s total %8v  (%+.0f%%: %d checkpoints cost %v, restart would cost %v,\n",
		rCheck.Label, rCheck.Elapsed.Round(time.Millisecond),
		pct(rCheck.Elapsed, rPlain.Elapsed), rCheck.Checkpoints,
		rCheck.CheckpointTime.Round(time.Millisecond), rCheck.RestartTime.Round(time.Millisecond))
	fmt.Printf("%-22s %8s  and a failure rolls every component back)\n", "", "")
	fmt.Printf("%-22s total %8v  (%+.0f%%: redundancy is online; failures are served\n",
		rCoREC.Label, rCoREC.Elapsed.Round(time.Millisecond), pct(rCoREC.Elapsed, rPlain.Elapsed))
	fmt.Printf("%-22s %8s  in degraded mode with zero lost work)\n", "", "")
}

func pct(a, b time.Duration) float64 {
	if b == 0 {
		return 0
	}
	return (float64(a)/float64(b) - 1) * 100
}
