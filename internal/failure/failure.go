// Package failure injects staging-server failures into a running cluster
// and models the failure statistics of the host system. Two schedules are
// supported: scripted failures at fixed time steps (Figure 10 injects
// failures at steps 4 and 6 and recoveries at 8 and 12) and stochastic
// fail-stop events drawn from an exponential MTBF distribution (the
// sustained-failure experiments).
package failure

import (
	"math"
	"math/rand"
	"sort"
	"sync"
	"time"

	"corec/internal/types"
)

// Event is one scripted cluster event.
type Event struct {
	// TimeStep is when the event fires (compared against the workflow's
	// current step).
	TimeStep types.Version
	// Kind selects what happens.
	Kind EventKind
	// Server is the target server.
	Server types.ServerID
}

// EventKind enumerates scripted event types.
type EventKind int

// Scripted event kinds.
const (
	// Kill removes the server from the fabric, losing its memory.
	Kill EventKind = iota
	// Recover starts a replacement server under the failed ID and begins
	// recovery.
	Recover
)

// String implements fmt.Stringer.
func (k EventKind) String() string {
	if k == Recover {
		return "recover"
	}
	return "kill"
}

// Cluster is the minimal surface the injector drives; *corec.Cluster
// satisfies it via a thin adapter in the harness.
type Cluster interface {
	// Kill fail-stops the server.
	Kill(id types.ServerID)
	// Recover replaces the failed server and runs recovery (asynchronously
	// or synchronously per the cluster's recovery mode).
	Recover(id types.ServerID)
	// Alive reports reachability.
	Alive(id types.ServerID) bool
}

// Schedule is an ordered list of scripted events, applied as the workflow
// advances through time steps.
type Schedule struct {
	mu     sync.Mutex
	events []Event
	next   int
}

// NewSchedule sorts and wraps the events.
func NewSchedule(events []Event) *Schedule {
	sorted := append([]Event(nil), events...)
	sort.SliceStable(sorted, func(i, j int) bool { return sorted[i].TimeStep < sorted[j].TimeStep })
	return &Schedule{events: sorted}
}

// Advance applies every event scheduled at or before ts, returning the
// events fired.
func (s *Schedule) Advance(ts types.Version, c Cluster) []Event {
	s.mu.Lock()
	defer s.mu.Unlock()
	var fired []Event
	for s.next < len(s.events) && s.events[s.next].TimeStep <= ts {
		ev := s.events[s.next]
		s.next++
		switch ev.Kind {
		case Kill:
			if c.Alive(ev.Server) {
				c.Kill(ev.Server)
				fired = append(fired, ev)
			}
		case Recover:
			if !c.Alive(ev.Server) {
				c.Recover(ev.Server)
				fired = append(fired, ev)
			}
		}
	}
	return fired
}

// Remaining returns the number of unfired events.
func (s *Schedule) Remaining() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.events) - s.next
}

// Exponential draws inter-failure intervals from an exponential
// distribution with the given MTBF, the standard model for independent
// fail-stop component failures.
type Exponential struct {
	mu   sync.Mutex
	rng  *rand.Rand
	mtbf time.Duration
}

// NewExponential builds a generator; mtbf must be positive.
func NewExponential(mtbf time.Duration, seed int64) *Exponential {
	if mtbf <= 0 {
		panic("failure: MTBF must be positive")
	}
	return &Exponential{rng: rand.New(rand.NewSource(seed)), mtbf: mtbf}
}

// Next returns the time until the next failure.
func (e *Exponential) Next() time.Duration {
	e.mu.Lock()
	defer e.mu.Unlock()
	u := e.rng.Float64()
	for u == 0 {
		u = e.rng.Float64()
	}
	return time.Duration(-math.Log(u) * float64(e.mtbf))
}

// PickVictim chooses a uniformly random live server, or InvalidServer when
// none is alive.
func (e *Exponential) PickVictim(c Cluster, n int) types.ServerID {
	e.mu.Lock()
	perm := e.rng.Perm(n)
	e.mu.Unlock()
	for _, i := range perm {
		if c.Alive(types.ServerID(i)) {
			return types.ServerID(i)
		}
	}
	return types.InvalidServer
}
