// Package model implements the analytic cost model of Section II-D: the
// storage-efficiency and write-cost formulas for replication, erasure
// coding, simple hybrid erasure coding, and CoREC (equations 1-9), and a
// sampler that regenerates the Figure 4 curves (relative write cost versus
// hot-data percentage for several classifier miss ratios).
package model

import (
	"fmt"

	"corec/internal/policy"
)

// Params are the model's free parameters, using the paper's notation.
type Params struct {
	// NLevel is the resilience level (simultaneous failures tolerated).
	NLevel int
	// NNode is the number of data objects per stripe (k).
	NNode int
	// L is the per-object transfer latency "l" (arbitrary time units).
	L float64
	// C is the streaming transfer cost "c" of one object.
	C float64
	// Alpha scales the O(NLevel*NNode) encoding-computation term.
	Alpha float64
	// FHot and FCold are the update frequencies of hot and cold objects
	// (f_h > f_c).
	FHot, FCold float64
	// N is the number of staged objects (workload scale).
	N float64
	// S is the storage-efficiency constraint (lower bound).
	S float64
}

// Default returns the parameterization used for the Figure 4 reproduction:
// RS(4,3) (NNode=3 data objects, one parity), latency-dominated transfers,
// hot data updated 10x more often than cold.
func Default() Params {
	return Params{
		NLevel: 1,
		NNode:  3,
		L:      1.0,
		C:      0.2,
		Alpha:  1.0,
		FHot:   10,
		FCold:  1,
		N:      1,
		S:      0.67,
	}
}

// Validate reports parameter errors.
func (p Params) Validate() error {
	if p.NLevel < 1 || p.NNode < 1 {
		return fmt.Errorf("model: NLevel and NNode must be >= 1")
	}
	if p.FHot <= p.FCold {
		return fmt.Errorf("model: FHot (%v) must exceed FCold (%v)", p.FHot, p.FCold)
	}
	if p.S < 0 || p.S > 1 {
		return fmt.Errorf("model: S = %v outside [0,1]", p.S)
	}
	return nil
}

// Er returns the replication storage efficiency E_r = 1/(NLevel+1).
func (p Params) Er() float64 { return policy.ReplicationEfficiency(p.NLevel) }

// Ee returns the erasure-coding storage efficiency
// E_e = NNode/(NLevel+NNode).
func (p Params) Ee() float64 { return policy.ErasureEfficiency(p.NNode, p.NLevel) }

// Cr returns the per-object replication cost C_r = l*NLevel + c.
func (p Params) Cr() float64 { return p.L*float64(p.NLevel) + p.C }

// Ce returns the per-object erasure-coding cost
// C_e = alpha*NLevel*NNode + l*(NLevel+NNode)/NNode + c.
func (p Params) Ce() float64 {
	return p.Alpha*float64(p.NLevel)*float64(p.NNode) +
		p.L*float64(p.NLevel+p.NNode)/float64(p.NNode) + p.C
}

// PrConstraint returns P_r = E_r (S - E_e) / (S (E_r - E_e)), the fraction
// of data that may be replicated at the constraint boundary, clamped to
// [0, 1].
func (p Params) PrConstraint() float64 {
	return policy.ReplicationProbability(p.S, p.NLevel, p.NNode, p.NLevel)
}

// CReplica is equation (4): the cost of replicating everything, as a
// function of the hot fraction ph.
func (p Params) CReplica(ph float64) float64 {
	return (p.FHot-p.FCold)*p.Cr()*p.N*ph + p.Cr()*p.FCold*p.N
}

// CErasure is equation (5): the cost of erasure coding everything.
func (p Params) CErasure(ph float64) float64 {
	return (p.FHot-p.FCold)*p.Ce()*p.N*ph + p.Ce()*p.FCold*p.N
}

// CHybrid is equation (1): simple hybrid with random selection at the
// constraint's P_r, at mean update frequency f = ph*f_h + (1-ph)*f_c.
func (p Params) CHybrid(ph float64) float64 {
	pr := p.PrConstraint()
	f := ph*p.FHot + (1-ph)*p.FCold
	return (pr*p.Cr() + (1-pr)*p.Ce()) * f * p.N
}

// CCoREC is equations (8) and (9): CoREC's cost at hot fraction ph with
// classifier miss ratio rm, under the storage constraint. Below the
// constraint boundary (ph <= effective P_r) all correctly-classified hot
// data is replicated (eq. 8); above it, replication capacity is capped at
// P_r and the remaining hot data is encoded (eq. 9).
func (p Params) CCoREC(ph, rm float64) float64 {
	cr, ce := p.Cr(), p.Ce()
	pr := p.PrConstraint()
	if ph <= pr {
		// Equation (8).
		return (cr*p.FHot-ce*p.FCold+(ce-cr)*p.FHot*rm)*p.N*ph + ce*p.FCold*p.N
	}
	// Equation (9).
	return (p.FHot-p.FCold)*ce*p.N*ph + ce*p.FCold*p.N -
		(ce-cr)*(1-rm)*pr*p.FHot*p.N
}

// Gain is equation (6): the advantage of CoREC over simple hybrid at hot
// fraction ph (perfect classification, no constraint).
func (p Params) Gain(ph float64) float64 {
	return (p.Ce() - p.Cr()) * ph * (1 - ph) * (p.FHot - p.FCold) * p.N
}

// Point is one sample of the Figure 4 curves.
type Point struct {
	// Ph is the hot-data fraction (x axis).
	Ph float64
	// CoREC holds the cost for each requested miss ratio, in order.
	CoREC []float64
	// Replica, Erasure, Hybrid are the baseline costs.
	Replica, Erasure, Hybrid float64
}

// Fig4Curves samples the model across hot-data fractions for the given
// miss ratios, normalizing all costs by the erasure cost at ph=0 so curves
// are "relative write/update cost" as in the paper's figure.
func Fig4Curves(p Params, missRatios []float64, samples int) ([]Point, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	if samples < 2 {
		return nil, fmt.Errorf("model: need at least 2 samples")
	}
	norm := p.CErasure(0)
	if norm <= 0 {
		return nil, fmt.Errorf("model: degenerate normalization")
	}
	out := make([]Point, samples)
	for i := 0; i < samples; i++ {
		ph := float64(i) / float64(samples-1)
		pt := Point{
			Ph:      ph,
			Replica: p.CReplica(ph) / norm,
			Erasure: p.CErasure(ph) / norm,
			Hybrid:  p.CHybrid(ph) / norm,
		}
		for _, rm := range missRatios {
			pt.CoREC = append(pt.CoREC, p.CCoREC(ph, rm)/norm)
		}
		out[i] = pt
	}
	return out, nil
}
