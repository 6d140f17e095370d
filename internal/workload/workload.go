// Package workload generates the access patterns of the paper's
// evaluation: the five synthetic test cases of Section IV-1 (write-all,
// round-robin subdomains, hotspot, random subsets, read-all) and the
// S3D-like coupled simulation/analysis workflow of Section IV-2.
//
// A workload is a sequence of time steps; each step lists the regions
// written (by the simulated parallel writers) and the regions read (by the
// simulated analysis ranks). The harness executes these against a staging
// cluster with configurable parallelism.
package workload

import (
	"fmt"
	"math/rand"

	"corec/internal/geometry"
	"corec/internal/types"
)

// Pattern selects a generator.
type Pattern int

// Workload patterns.
const (
	// Case1WriteAll writes the entire domain every time step.
	Case1WriteAll Pattern = iota
	// Case2RoundRobin divides the domain into four subdomains and writes
	// one per time step, cycling.
	Case2RoundRobin
	// Case3Hotspot writes one subdomain every step and the rest only once.
	Case3Hotspot
	// Case4Random writes a random subset of blocks every step.
	Case4Random
	// Case5ReadAll writes the domain once, then reads all of it every step.
	Case5ReadAll
	// S3D emulates the coupled simulation/analysis workflow: full-domain
	// writes every step plus full-domain analysis reads every step.
	S3D
)

var patternNames = [...]string{
	"case1-write-all", "case2-round-robin", "case3-hotspot",
	"case4-random", "case5-read-all", "s3d",
}

// String implements fmt.Stringer.
func (p Pattern) String() string {
	if int(p) >= 0 && int(p) < len(patternNames) {
		return patternNames[p]
	}
	return fmt.Sprintf("Pattern(%d)", int(p))
}

// Config parameterizes generation.
type Config struct {
	Pattern Pattern
	// Domain is the global data domain.
	Domain geometry.Box
	// BlockSize is the per-writer block extent (the paper's per-rank
	// sub-domain, e.g. 64^3).
	BlockSize []int64
	// TimeSteps is the number of simulation steps (the paper uses 20).
	TimeSteps int
	// Var is the staged variable name.
	Var string
	// Seed drives Case4Random.
	Seed int64
	// RandomFraction is the fraction of blocks written per step in
	// Case4Random (default 0.25).
	RandomFraction float64
}

// Step is one time step's accesses. Writes happen before reads.
type Step struct {
	TS     types.Version
	Writes []geometry.Box
	Reads  []geometry.Box
}

// Workload is a fully materialized access trace.
type Workload struct {
	Cfg    Config
	Blocks []geometry.Box
	Steps  []Step
}

// TotalWriteCells returns the number of grid cells written across the
// trace (payload volume, for reporting).
func (w *Workload) TotalWriteCells() int64 {
	var total int64
	for _, s := range w.Steps {
		for _, b := range s.Writes {
			total += b.Volume()
		}
	}
	return total
}

// Generate materializes the workload.
func Generate(cfg Config) (*Workload, error) {
	if cfg.TimeSteps < 1 {
		return nil, fmt.Errorf("workload: need at least one time step")
	}
	if cfg.Var == "" {
		cfg.Var = "field"
	}
	if cfg.RandomFraction <= 0 || cfg.RandomFraction > 1 {
		cfg.RandomFraction = 0.25
	}
	blocks, err := geometry.GridDecompose(cfg.Domain, cfg.BlockSize)
	if err != nil {
		return nil, err
	}
	w := &Workload{Cfg: cfg, Blocks: blocks}
	switch cfg.Pattern {
	case Case1WriteAll:
		for ts := 1; ts <= cfg.TimeSteps; ts++ {
			w.Steps = append(w.Steps, Step{
				TS:     types.Version(ts),
				Writes: blocks,
				Reads:  []geometry.Box{cfg.Domain},
			})
		}
	case Case2RoundRobin:
		quarters := quarterize(blocks, cfg.Domain)
		for ts := 1; ts <= cfg.TimeSteps; ts++ {
			q := (ts - 1) % 4
			w.Steps = append(w.Steps, Step{
				TS:     types.Version(ts),
				Writes: quarters[q],
				Reads:  []geometry.Box{cfg.Domain},
			})
		}
	case Case3Hotspot:
		quarters := quarterize(blocks, cfg.Domain)
		for ts := 1; ts <= cfg.TimeSteps; ts++ {
			writes := append([]geometry.Box(nil), quarters[0]...)
			if ts == 1 {
				// The cold subdomains are written exactly once.
				writes = append([]geometry.Box(nil), blocks...)
			}
			w.Steps = append(w.Steps, Step{
				TS:     types.Version(ts),
				Writes: writes,
				Reads:  []geometry.Box{cfg.Domain},
			})
		}
	case Case4Random:
		rng := rand.New(rand.NewSource(cfg.Seed))
		count := int(float64(len(blocks)) * cfg.RandomFraction)
		if count < 1 {
			count = 1
		}
		for ts := 1; ts <= cfg.TimeSteps; ts++ {
			writes := append([]geometry.Box(nil), blocks...)
			if ts == 1 {
				// First step populates everything so reads always succeed.
			} else {
				perm := rng.Perm(len(blocks))[:count]
				writes = writes[:0]
				for _, i := range perm {
					writes = append(writes, blocks[i])
				}
			}
			w.Steps = append(w.Steps, Step{
				TS:     types.Version(ts),
				Writes: writes,
				Reads:  []geometry.Box{cfg.Domain},
			})
		}
	case Case5ReadAll:
		for ts := 1; ts <= cfg.TimeSteps; ts++ {
			st := Step{TS: types.Version(ts), Reads: []geometry.Box{cfg.Domain}}
			if ts == 1 {
				st.Writes = blocks
			}
			w.Steps = append(w.Steps, st)
		}
	case S3D:
		for ts := 1; ts <= cfg.TimeSteps; ts++ {
			w.Steps = append(w.Steps, Step{
				TS:     types.Version(ts),
				Writes: blocks,
				Reads:  []geometry.Box{cfg.Domain},
			})
		}
	default:
		return nil, fmt.Errorf("workload: unknown pattern %v", cfg.Pattern)
	}
	return w, nil
}

// quarterize splits the domain into four subdomains along the first
// dimension pair and buckets blocks by the subdomain containing their lower
// corner.
func quarterize(blocks []geometry.Box, domain geometry.Box) [4][]geometry.Box {
	var out [4][]geometry.Box
	midX := domain.Lo[0] + domain.Size(0)/2
	d2 := 0
	if domain.Dims() > 1 {
		d2 = 1
	}
	midY := domain.Lo[d2] + domain.Size(d2)/2
	for _, b := range blocks {
		q := 0
		if b.Lo[0] >= midX {
			q += 1
		}
		if b.Lo[d2] >= midY {
			q += 2
		}
		out[q] = append(out[q], b)
	}
	return out
}

// S3DScale describes one of the paper's Table II configurations, scaled
// down by the given factor while preserving the core-count ratios.
type S3DScale struct {
	Name string
	// Writers, Staging, Readers are the scaled worker counts.
	Writers, Staging, Readers int
	// Domain is the scaled global domain.
	Domain geometry.Box
	// BlockSize is the per-writer block.
	BlockSize []int64
}

// TableIIScales returns the three S3D test scales of Table II, shrunk so a
// single machine can run them: per-rank blocks of `block` cells per
// dimension and writer grids of 4x4x4, 8x4x4 and 8x8x4 (preserving the
// paper's 4096 -> 8448 -> 16896 doubling progression and the 16:1
// writer:staging, 2:1 staging:analysis ratios).
func TableIIScales(block int64) []S3DScale {
	mk := func(name string, wx, wy, wz int64, staging, readers int) S3DScale {
		return S3DScale{
			Name:      name,
			Writers:   int(wx * wy * wz),
			Staging:   staging,
			Readers:   readers,
			Domain:    geometry.Box3D(0, 0, 0, wx*block, wy*block, wz*block),
			BlockSize: []int64{block, block, block},
		}
	}
	return []S3DScale{
		mk("small (4480-core analogue)", 4, 4, 4, 4, 2),
		mk("medium (8960-core analogue)", 8, 4, 4, 8, 4),
		mk("large (17920-core analogue)", 8, 8, 4, 16, 8),
	}
}
