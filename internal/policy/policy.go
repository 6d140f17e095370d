// Package policy owns every resilience decision a staging server makes, for
// the policies compared throughout the paper's evaluation:
//
//   - None:      plain data staging, no fault tolerance (the "DataSpaces"
//     baseline).
//   - Replicate: every object fully replicated N_level times.
//   - Erasure:   every object erasure coded on every write.
//   - Hybrid:    "simple hybrid erasure coding" — replicate-vs-encode chosen
//     randomly per write under the storage-efficiency constraint, with no
//     data classification (Section II-D1).
//   - CoREC:     classifier-driven hybrid (the paper's contribution).
//
// A server asks its Decider what to do with a write (OnPut), which objects
// change state at a step's end (Transitions, PromotionBudget), whether a
// transition fits the storage-efficiency constraint S (Admits,
// StaysReplicated), and whether demotion runs in the background
// (DemotesInBackground); it keeps the classifier's books through the
// Decider too (Track, SetEncoded, Forget), which does nothing in the modes
// that run no classifier. The server never learns which mode it runs.
//
// The package also holds the one implementation of the storage-efficiency
// arithmetic the runtime and the analytic model share (E_r, E_e, the
// constraint-derived P_r).
package policy

import (
	"fmt"
	"math"
	"math/rand"
	"sync"

	"corec/internal/classifier"
	"corec/internal/types"
)

// Mode selects a resilience policy.
type Mode int

// Policy modes.
const (
	None Mode = iota
	Replicate
	Erasure
	Hybrid
	CoREC
)

var modeNames = [...]string{"none", "replicate", "erasure", "hybrid", "corec"}

// String implements fmt.Stringer.
func (m Mode) String() string {
	if int(m) >= 0 && int(m) < len(modeNames) {
		return modeNames[m]
	}
	return fmt.Sprintf("Mode(%d)", int(m))
}

// ParseMode converts a mode name ("corec", "erasure", ...) to a Mode.
func ParseMode(s string) (Mode, error) {
	for i, n := range modeNames {
		if n == s {
			return Mode(i), nil
		}
	}
	return None, fmt.Errorf("policy: unknown mode %q", s)
}

// Action is a write-path decision.
type Action int

// Write-path actions.
const (
	ActNone Action = iota
	ActReplicate
	ActEncode
)

// String implements fmt.Stringer.
func (a Action) String() string {
	switch a {
	case ActReplicate:
		return "replicate"
	case ActEncode:
		return "encode"
	default:
		return "none"
	}
}

// Config parameterizes a policy decider.
type Config struct {
	Mode Mode
	// NLevel is the resilience level: number of simultaneous failures to
	// tolerate. Replication keeps NLevel extra copies; erasure coding uses
	// M = NLevel parity shards.
	NLevel int
	// K, M are the Reed-Solomon parameters (M normally equals NLevel).
	K, M int
	// StorageEfficiencyMin is the paper's constraint S: the runtime must
	// keep data/(data+redundancy) at or above this bound. Zero disables the
	// constraint.
	StorageEfficiencyMin float64
	// Seed drives the Hybrid policy's random choice.
	Seed int64
}

// ReplicationEfficiency returns E_r = 1 / (NLevel + 1).
func ReplicationEfficiency(nLevel int) float64 {
	return 1.0 / float64(nLevel+1)
}

// ErasureEfficiency returns E_e = k / (k + m).
func ErasureEfficiency(k, m int) float64 {
	return float64(k) / float64(k+m)
}

// ReplicationProbability solves the paper's constraint equation for P_r,
// the fraction of data that may be replicated while overall efficiency
// stays at the bound S:
//
//	P_r = E_r (S - E_e) / (S (E_r - E_e))
//
// clamped to [0, 1]. With E_r < E_e, as in every configuration the paper
// runs, S at or below E_r (everything may be replicated) gives 1, and S at or
// above E_e (nothing may be) gives 0. S <= 0 (no constraint) and E_r = E_e
// give 1.
func ReplicationProbability(s float64, nLevel, k, m int) float64 {
	er := ReplicationEfficiency(nLevel)
	ee := ErasureEfficiency(k, m)
	if s <= 0 || er == ee {
		return 1
	}
	pr := er * (s - ee) / (s * (er - ee))
	return math.Max(0, math.Min(1, pr))
}

// MixedEfficiency returns the storage efficiency of a mix holding dataRepl
// bytes of replicated data and dataEnc bytes of encoded data under the
// config's redundancy parameters (equation 7's runtime form).
func (c Config) MixedEfficiency(dataRepl, dataEnc int64) float64 {
	total := dataRepl + dataEnc
	if total == 0 {
		return 1
	}
	raw := float64(dataRepl)*float64(1+c.NLevel) +
		float64(dataEnc)*float64(c.K+c.M)/float64(c.K)
	return float64(total) / raw
}

// Redundant reports whether the mode keeps redundancy, as every mode but
// None does: it then needs valid RS parameters and a full coding group.
func (c Config) Redundant() bool { return c.Mode != None }

// Decider makes the write-path and transition decisions for one staging
// server. It is safe for concurrent use.
type Decider struct {
	cfg Config
	cls *classifier.Classifier

	mu  sync.Mutex
	rng *rand.Rand
	pr  float64 // hybrid replication probability
}

// NewDecider builds a decider. CoREC requires the classifier cls; every
// other mode runs none and drops it.
func NewDecider(cfg Config, cls *classifier.Classifier) (*Decider, error) {
	if cfg.Mode != CoREC {
		cls = nil
	} else if cls == nil {
		return nil, fmt.Errorf("policy: CoREC requires a classifier")
	}
	if cfg.Redundant() {
		if cfg.NLevel < 1 {
			return nil, fmt.Errorf("policy: NLevel %d must be >= 1", cfg.NLevel)
		}
		if cfg.K < 1 || cfg.M < 1 {
			return nil, fmt.Errorf("policy: invalid RS parameters k=%d m=%d", cfg.K, cfg.M)
		}
	}
	return &Decider{
		cfg: cfg,
		cls: cls,
		rng: rand.New(rand.NewSource(cfg.Seed)),
		pr:  ReplicationProbability(cfg.StorageEfficiencyMin, cfg.NLevel, cfg.K, cfg.M),
	}, nil
}

// Classifier returns the CoREC classifier (nil for other modes).
func (d *Decider) Classifier() *classifier.Classifier { return d.cls }

// DemotesInBackground reports whether the write path replicates and leaves
// the encoding to a background queue and the step's end, as CoREC's
// encoding workflow does (Figure 6); the baselines encode on the write path
// itself and make no step-end transitions.
func (d *Decider) DemotesInBackground() bool { return d.cfg.Mode == CoREC }

// OnPut decides the resilience action for a write of the object at time
// step ts, given the storage efficiency of the server's primary objects were
// this one replicated (see Efficiency). For CoREC, fresh writes are hot
// (Section II-C) and replicated unless that would break the storage
// constraint.
func (d *Decider) OnPut(id types.ObjectID, ts types.Version, currentEff float64) Action {
	switch d.cfg.Mode {
	case None:
		return ActNone
	case Replicate:
		return ActReplicate
	case Erasure:
		return ActEncode
	case Hybrid:
		d.mu.Lock()
		roll := d.rng.Float64()
		d.mu.Unlock()
		if roll < d.pr {
			return ActReplicate
		}
		return ActEncode
	case CoREC:
		d.cls.RecordWrite(id, ts)
		if !d.admitsEfficiency(currentEff) {
			return ActEncode
		}
		return ActReplicate
	default:
		return ActNone
	}
}

// Efficiency returns the storage efficiency of a server whose primary objects
// hold repl bytes replicated and enc bytes encoded.
func (d *Decider) Efficiency(repl, enc int64) float64 {
	return d.cfg.MixedEfficiency(repl, enc)
}

// Admits reports whether a mix of repl replicated and enc encoded bytes
// meets the storage-efficiency constraint S (always, when S is zero).
func (d *Decider) Admits(repl, enc int64) bool {
	return d.admitsEfficiency(d.Efficiency(repl, enc))
}

func (d *Decider) admitsEfficiency(eff float64) bool {
	return d.cfg.StorageEfficiencyMin <= 0 || eff >= d.cfg.StorageEfficiencyMin
}

// PromotionBudget returns how many of a server's encoded objects may turn
// replicated at a step's end: objects of the encoded ones' average size are
// moved from enc bytes to repl bytes one at a time, while the mix stays
// admitted. Without a constraint the budget is unbounded (1<<20).
func (d *Decider) PromotionBudget(repl, enc int64, encoded int) int {
	if d.cfg.StorageEfficiencyMin <= 0 {
		return 1 << 20
	}
	if encoded == 0 {
		return 0
	}
	avg := max(enc/int64(encoded), 1)
	budget := 0
	for budget < encoded {
		repl += avg
		enc -= avg
		if !d.Admits(repl, enc) {
			break
		}
		budget++
	}
	return budget
}

// StaysReplicated re-checks a queued demotion of the object: it stays
// replicated when the classifier finds it hot again and the mix of repl
// replicated and enc encoded bytes admits it. Without a classifier nothing
// stays.
func (d *Decider) StaysReplicated(id types.ObjectID, repl, enc int64) bool {
	if d.cls == nil {
		return false
	}
	cl, _ := d.cls.Classify(id)
	return cl == classifier.Hot && d.Admits(repl, enc)
}

// Track registers a primary object restored by recovery, in its resilience
// state, with the classifier. Like SetEncoded and Forget, it does nothing in
// the modes that run no classifier.
func (d *Decider) Track(id types.ObjectID, encoded bool) {
	if d.cls != nil {
		d.cls.Track(id, encoded)
	}
}

// SetEncoded records a primary object's change of resilience state with the
// classifier.
func (d *Decider) SetEncoded(id types.ObjectID, encoded bool) {
	if d.cls != nil {
		d.cls.SetEncoded(id, encoded)
	}
}

// Forget drops a deleted or handed-off object from the classifier.
func (d *Decider) Forget(id types.ObjectID) {
	if d.cls != nil {
		d.cls.Forget(id)
	}
}

// Transitions returns the state changes to apply at the end of time step
// ts: objects to demote to erasure coding and objects to promote back to
// replication. Only CoREC produces transitions; promotions are capped by
// maxPromote (see PromotionBudget).
func (d *Decider) Transitions(ts types.Version, maxPromote int) (toEncode, toReplicate []types.ObjectID) {
	if d.cfg.Mode != CoREC {
		return nil, nil
	}
	d.cls.AdvanceTo(ts)
	for _, c := range d.cls.CoolCandidates(1 << 30) {
		toEncode = append(toEncode, c.ID)
	}
	if maxPromote > 0 {
		for _, c := range d.cls.HeatCandidates(maxPromote) {
			// Only promote objects that are actually hot again; a high
			// historic refcount alone is not evidence of current heat.
			if cl, _ := d.cls.Classify(c.ID); cl == classifier.Hot {
				toReplicate = append(toReplicate, c.ID)
			}
		}
	}
	return toEncode, toReplicate
}

// ReplicationProbabilityValue exposes the hybrid policy's P_r (for tests
// and the harness's reporting).
func (d *Decider) ReplicationProbabilityValue() float64 { return d.pr }
