// Package metrics collects the timing evidence the paper reports: average
// read/write response times (Figure 8, 11, 12), per-phase breakdowns of
// transport / metadata / encode / classify time (Figure 9), and per-time-step
// response series (Figure 10). All collectors are safe for concurrent use by
// the staging servers and client goroutines.
package metrics

import (
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// Bucket names a phase of request processing, matching Figure 9's legend.
type Bucket int

// Phase buckets.
const (
	Transport Bucket = iota // data movement between servers
	Metadata                // distributed metadata (directory) updates
	Encode                  // erasure encoding work
	Decode                  // reconstruction work (degraded reads, recovery)
	Classify                // CoREC data classification
	numBuckets
)

var bucketNames = [...]string{"transport", "metadata", "encode", "decode", "classify"}

// String implements fmt.Stringer.
func (b Bucket) String() string {
	if int(b) < len(bucketNames) {
		return bucketNames[b]
	}
	return fmt.Sprintf("Bucket(%d)", int(b))
}

// Counter names a fault-tolerance event class tallied alongside the
// timing evidence: how often the RPC layer retried, failed writes over to a
// successor, or saw the fabric misbehave.
type Counter int

// Fault-tolerance counters.
const (
	// RetryCount tallies resent RPC attempts (attempts beyond the first).
	RetryCount Counter = iota
	// FailoverCount tallies writes rerouted to a replication-group
	// successor after the placed primary was unreachable.
	FailoverCount
	// CorruptFrameCount tallies CRC32 integrity failures that persisted
	// through a sender's whole retry policy (absorbed corruptions count
	// as retries, not here).
	CorruptFrameCount
	// FaultCount tallies fabric faults (drops, partitions, unreachable
	// peers) that exhausted a sender's retry policy. Faults absorbed by
	// a successful retry show up in RetryCount only.
	FaultCount
	// MirrorRepairCount tallies directory mirror writes that initially
	// failed (leaving the record group degraded) and were later repaired
	// by the hinted-handoff flush.
	MirrorRepairCount
	// DirFallbackCount tallies region lookups whose targeted answer did not
	// cover the region and were repeated against the whole fleet. Near zero
	// on a healthy fleet reading staged regions; it climbs on reads of
	// regions nobody wrote and while records await re-homing after churn.
	DirFallbackCount
	// DirSecondAskCount tallies region lookups naming a version that the
	// first directory mirror asked did not settle. Zero while mirrors agree.
	DirSecondAskCount
	// PrimaryReadCount tallies gets an object's primary answered in one
	// request, with no directory lookup.
	PrimaryReadCount
	// PrimaryMissCount tallies gets asked of a primary that did not answer
	// them (no record at the floor, a piece missing, unreachable) and went on
	// to the directory.
	PrimaryMissCount
	numCounters
)

var counterNames = [...]string{
	"retries", "failovers", "corrupt_frames", "faults", "mirror_repairs", "dir_fallbacks", "dir_second_asks",
	"primary_reads", "primary_misses",
}

// String implements fmt.Stringer.
func (c Counter) String() string {
	if int(c) < len(counterNames) {
		return counterNames[c]
	}
	return fmt.Sprintf("Counter(%d)", int(c))
}

// Collector accumulates phase durations and read/write response times.
// The zero value is NOT usable; call NewCollector.
type Collector struct {
	phaseNanos [numBuckets]atomic.Int64
	phaseCount [numBuckets]atomic.Int64

	counters [numCounters]atomic.Int64

	writeNanos atomic.Int64
	writeCount atomic.Int64
	readNanos  atomic.Int64
	readCount  atomic.Int64

	mu     sync.Mutex
	series map[int64]*stepStats // by time step
}

type stepStats struct {
	readNanos, readCount   int64
	writeNanos, writeCount int64
}

// NewCollector returns an empty collector.
func NewCollector() *Collector {
	return &Collector{series: make(map[int64]*stepStats)}
}

// Add charges d to the given phase bucket.
func (c *Collector) Add(b Bucket, d time.Duration) {
	c.phaseNanos[b].Add(int64(d))
	c.phaseCount[b].Add(1)
}

// AddCounter increments the fault-tolerance counter by n.
func (c *Collector) AddCounter(ct Counter, n int64) {
	if n != 0 {
		c.counters[ct].Add(n)
	}
}

// Counter returns the current value of the fault-tolerance counter.
func (c *Collector) Counter(ct Counter) int64 { return c.counters[ct].Load() }

// RecordWrite records one client-observed write response time at time step ts.
func (c *Collector) RecordWrite(ts int64, d time.Duration) {
	c.writeNanos.Add(int64(d))
	c.writeCount.Add(1)
	c.step(ts, func(s *stepStats) {
		s.writeNanos += int64(d)
		s.writeCount++
	})
}

// RecordRead records one client-observed read response time at time step ts.
func (c *Collector) RecordRead(ts int64, d time.Duration) {
	c.readNanos.Add(int64(d))
	c.readCount.Add(1)
	c.step(ts, func(s *stepStats) {
		s.readNanos += int64(d)
		s.readCount++
	})
}

func (c *Collector) step(ts int64, f func(*stepStats)) {
	c.mu.Lock()
	defer c.mu.Unlock()
	s := c.series[ts]
	if s == nil {
		s = &stepStats{}
		c.series[ts] = s
	}
	f(s)
}

// Snapshot is an immutable copy of a collector's state.
type Snapshot struct {
	// Phase durations and counts by bucket.
	PhaseTotal [numBuckets]time.Duration
	PhaseCount [numBuckets]int64
	// Fault-tolerance event counters by Counter.
	Counters [numCounters]int64
	// Aggregate response times.
	WriteTotal time.Duration
	WriteCount int64
	ReadTotal  time.Duration
	ReadCount  int64
	// Per-time-step means in time-step order.
	Steps []StepSnapshot
}

// StepSnapshot is the mean response time at one time step.
type StepSnapshot struct {
	TimeStep   int64
	MeanWrite  time.Duration
	WriteCount int64
	MeanRead   time.Duration
	ReadCount  int64
}

// Phase returns the total duration charged to bucket b.
func (s *Snapshot) Phase(b Bucket) time.Duration { return s.PhaseTotal[b] }

// MeanWrite returns the mean write response time (0 when no writes).
func (s *Snapshot) MeanWrite() time.Duration {
	if s.WriteCount == 0 {
		return 0
	}
	return s.WriteTotal / time.Duration(s.WriteCount)
}

// MeanRead returns the mean read response time (0 when no reads).
func (s *Snapshot) MeanRead() time.Duration {
	if s.ReadCount == 0 {
		return 0
	}
	return s.ReadTotal / time.Duration(s.ReadCount)
}

// Snapshot captures the collector state.
func (c *Collector) Snapshot() *Snapshot {
	out := &Snapshot{}
	for b := Bucket(0); b < numBuckets; b++ {
		out.PhaseTotal[b] = time.Duration(c.phaseNanos[b].Load())
		out.PhaseCount[b] = c.phaseCount[b].Load()
	}
	for ct := Counter(0); ct < numCounters; ct++ {
		out.Counters[ct] = c.counters[ct].Load()
	}
	out.WriteTotal = time.Duration(c.writeNanos.Load())
	out.WriteCount = c.writeCount.Load()
	out.ReadTotal = time.Duration(c.readNanos.Load())
	out.ReadCount = c.readCount.Load()

	c.mu.Lock()
	steps := make([]int64, 0, len(c.series))
	for ts := range c.series {
		steps = append(steps, ts)
	}
	sort.Slice(steps, func(i, j int) bool { return steps[i] < steps[j] })
	for _, ts := range steps {
		st := c.series[ts]
		ss := StepSnapshot{TimeStep: ts, WriteCount: st.writeCount, ReadCount: st.readCount}
		if st.writeCount > 0 {
			ss.MeanWrite = time.Duration(st.writeNanos / st.writeCount)
		}
		if st.readCount > 0 {
			ss.MeanRead = time.Duration(st.readNanos / st.readCount)
		}
		out.Steps = append(out.Steps, ss)
	}
	c.mu.Unlock()
	return out
}

// Reset clears all accumulated state.
func (c *Collector) Reset() {
	for b := Bucket(0); b < numBuckets; b++ {
		c.phaseNanos[b].Store(0)
		c.phaseCount[b].Store(0)
	}
	for ct := Counter(0); ct < numCounters; ct++ {
		c.counters[ct].Store(0)
	}
	c.writeNanos.Store(0)
	c.writeCount.Store(0)
	c.readNanos.Store(0)
	c.readCount.Store(0)
	c.mu.Lock()
	c.series = make(map[int64]*stepStats)
	c.mu.Unlock()
}
