// Package recovery implements the scheduling logic of CoREC's
// data-recovery schemes (Section III-D): which mode applies, by when
// background repair must finish, and in what order keys are repaired. The
// staging server and client run the repairs; this package keeps the
// decision logic pure and unit-testable.
//
// Two modes exist. In *degraded mode* (failure, no replacement server yet)
// only requested data is reconstructed on the read path and discarded after
// serving. In *lazy recovery mode* (a replacement server has joined) objects
// are repaired on first access, and all remaining objects are repaired in
// the background before a deadline of MTBF/4 — late enough to avoid the
// thundering-herd interference of aggressive recovery, early enough to keep
// the window of double-failure vulnerability acceptable.
package recovery

import "time"

// Mode selects the recovery strategy for a cluster.
type Mode int

// Recovery strategies.
const (
	// Lazy is CoREC's scheme: on-access repair plus deadline-paced
	// background repair.
	Lazy Mode = iota
	// Aggressive repairs everything immediately at full speed (the
	// baseline used by the Erasure+1f/+2f comparisons).
	Aggressive
)

// String implements fmt.Stringer.
func (m Mode) String() string {
	if m == Aggressive {
		return "aggressive"
	}
	return "lazy"
}

// DeadlineFraction is the fraction of the MTBF within which lazy recovery
// must complete (the paper uses MTBF/4).
const DeadlineFraction = 0.25

// Deadline returns the lazy-recovery deadline for a system with the given
// mean time between failures.
func Deadline(mtbf time.Duration) time.Duration {
	return time.Duration(float64(mtbf) * DeadlineFraction)
}

// Queue is the replacement server's to-repair list. Objects repaired on
// access are removed so the background drain skips them. Queue is not safe
// for concurrent use; the owning server serializes access.
type Queue struct {
	pending map[string]struct{}
	order   []string
	next    int
}

// NewQueue builds a repair queue over the given object keys.
func NewQueue(keys []string) *Queue {
	q := &Queue{pending: make(map[string]struct{}, len(keys))}
	for _, k := range keys {
		if _, dup := q.pending[k]; !dup {
			q.pending[k] = struct{}{}
			q.order = append(q.order, k)
		}
	}
	return q
}

// Len returns the number of objects still awaiting repair.
func (q *Queue) Len() int { return len(q.pending) }

// MarkRepaired removes a key (repaired on access or by the drain loop).
// It reports whether the key was still pending.
func (q *Queue) MarkRepaired(key string) bool {
	if _, ok := q.pending[key]; !ok {
		return false
	}
	delete(q.pending, key)
	return true
}

// Next returns the next pending key for background repair, or "" when the
// queue is drained.
func (q *Queue) Next() string {
	for q.next < len(q.order) {
		k := q.order[q.next]
		q.next++
		if _, ok := q.pending[k]; ok {
			return k
		}
	}
	return ""
}
