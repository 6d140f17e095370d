// policy-compare: runs the same hotspot workload (the paper's Case 3)
// under every resilience policy and prints a Figure 8-style comparison of
// write/read response times, storage efficiency, and the combined
// write-efficiency metric.
//
// Run with: go run ./examples/policy-compare
package main

import (
	"fmt"
	"log"
	"os"

	"corec"
	"corec/internal/harness"
	"corec/internal/workload"
)

func main() {
	fmt.Println("Case-3 hotspot workload under each resilience policy:")
	var results []*harness.Result
	for _, spec := range []struct {
		label string
		mode  corec.Mode
	}{
		{"DataSpaces (none)", corec.PolicyNone},
		{"Replication", corec.PolicyReplicate},
		{"Erasure coding", corec.PolicyErasure},
		{"Simple hybrid", corec.PolicyHybrid},
		{"CoREC", corec.PolicyCoREC},
	} {
		res, err := harness.Run(harness.Options{
			Label:     spec.label,
			Mode:      spec.mode,
			Pattern:   workload.Case3Hotspot,
			Servers:   8,
			Writers:   8,
			Readers:   4,
			Domain:    corec.Box3D(0, 0, 0, 64, 64, 64),
			BlockSize: []int64{16, 16, 16},
			TimeSteps: 12,
			Seed:      5,
		})
		if err != nil {
			log.Fatal(err)
		}
		results = append(results, res)
	}
	harness.SummaryTable(results).WriteText(os.Stdout)
	fmt.Println("\nlower write_ms at higher storage_eff is better; CoREC should offer the")
	fmt.Println("best write-time/storage-efficiency balance among the resilient policies.")
}
