// Package storage implements the staging fabric's tiered storage engine:
// L1 is process memory (the fast path every staged object starts in), L2 is
// a per-server set of append-only disk segments holding write-cold
// erasure-coded payloads behind checksummed record headers, and L3 is a modeled
// remote object store (open latency + shared bandwidth + injectable faults,
// in the style of internal/simnet) shared by the whole cluster.
//
// The engine is deliberately self-contained: it never calls back into the
// server, so the server's state mutex may be ordered before every engine
// method. Spilling (L1→L2), uploading (L2→L3) and prefetching run on the
// engine's own bounded worker pool; the caller only ever pays a disk or
// remote read when it touches a cold key.
//
// One walk, demote, keeps L1 and L2 within their budgets. It queues a
// tier's idle entries in that tier's victim order until the tier's excess,
// less the bytes already on their way down, is covered. L1's order absorbs
// the utility-density policy of the old internal/tiering package: lowest
// access-frequency × read-cost-saved per byte first, so hot small objects
// stay resident while cold bulk pays the tier penalty. L2's order is least
// recently touched first. Both read recency off the engine's logical access
// clock, not wall time.
package storage

import "fmt"

// Tier identifies one level of the storage hierarchy. This is the single
// tier vocabulary for the repository — the old internal/tiering package's
// DRAM/NVRAM/SSD levels are retired in favour of these names.
type Tier int

const (
	// TierMem is L1: bytes resident in process memory.
	TierMem Tier = iota
	// TierDisk is L2: bytes in a local append-only segment file.
	TierDisk
	// TierRemote is L3: bytes held by the shared remote object store,
	// represented locally by a manifest record in a segment.
	TierRemote

	numTiers
)

// String implements fmt.Stringer.
func (t Tier) String() string {
	switch t {
	case TierMem:
		return "mem"
	case TierDisk:
		return "disk"
	case TierRemote:
		return "remote"
	default:
		return fmt.Sprintf("Tier(%d)", int(t))
	}
}
