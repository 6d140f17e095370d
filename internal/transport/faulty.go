package transport

import (
	"context"
	"math/rand"
	"sync"
	"sync/atomic"
	"time"

	"corec/internal/failure"
	"corec/internal/types"
)

// FaultyNetwork decorates any Network with seeded, deterministic network
// faults: per-link message drops, duplicate delivery, payload corruption,
// extra latency/jitter, and bidirectional partitions between server sets.
// It is the message-level half of the failure model — the node-level half
// (fail-stop kills) lives in Cluster.Kill — and exists so the resilience
// claims can be exercised under the messy failures a real fabric produces,
// not just clean server deaths.
//
// Corruption is injected below the codec: the message is framed exactly as
// the TCP fabric would put it on the wire, one byte is flipped, and the
// frame is re-verified — so the frame's integrity checks are exercised for
// real, and detection surfaces as the retryable ErrCorruptFrame.
//
// A request's RecvInto is the wrapped fabric's to honour; the injector only
// keeps its own extra deliveries away from it, and a response it reports as
// corrupt or lost may already have been written there — which is the rule
// anyway: after a failed Send the buffer's contents are unspecified.
type FaultyNetwork struct {
	inner Network

	mu   sync.Mutex
	rng  *rand.Rand
	plan failure.FaultPlan
	step types.Version
	// manual holds partitions installed at runtime (transient partitions a
	// test opens and heals around a scenario), keyed by handle.
	manual map[int]failure.Partition
	nextID int

	drops        atomic.Int64
	dups         atomic.Int64
	corrupts     atomic.Int64
	respCorrupts atomic.Int64
	connBreaks   atomic.Int64
	partitioned  atomic.Int64
	delayed      atomic.Int64
}

// connBreaker is the optional fabric hook the injector uses to sever live
// client connections (TCPNetwork implements it; the in-process fabric has
// no connections to break).
type connBreaker interface {
	BreakConns(to types.ServerID) int
}

var _ Network = (*FaultyNetwork)(nil)

// FaultStats reports cumulative injected-fault counters.
type FaultStats struct {
	// Drops is the number of messages lost in flight.
	Drops int64
	// Dups is the number of messages delivered twice.
	Dups int64
	// Corrupts is the number of request frames corrupted (and caught by
	// the frame checks).
	Corrupts int64
	// RespCorrupts is the number of response frames corrupted after the
	// request was delivered and processed.
	RespCorrupts int64
	// ConnBreaks is the number of connection-severing faults injected
	// (each may break several live connections).
	ConnBreaks int64
	// Partitioned is the number of sends refused by an active partition.
	Partitioned int64
	// Delayed is the number of messages charged extra latency or jitter.
	Delayed int64
}

// NewFaultyNetwork wraps inner with the fault plan. A nil plan injects
// nothing until partitions are installed manually.
func NewFaultyNetwork(inner Network, plan *failure.FaultPlan) *FaultyNetwork {
	f := &FaultyNetwork{
		inner:  inner,
		manual: make(map[int]failure.Partition),
	}
	if plan != nil {
		f.plan = *plan
		f.plan.Links = append([]failure.LinkFault(nil), plan.Links...)
		f.plan.Partitions = append([]failure.Partition(nil), plan.Partitions...)
	}
	f.rng = rand.New(rand.NewSource(f.plan.Seed))
	return f
}

// Inner returns the wrapped fabric (used by the cluster to reach
// fabric-specific APIs like TCPNetwork.Addr).
func (f *FaultyNetwork) Inner() Network { return f.inner }

// PeerHealth forwards to the wrapped fabric's table: injected faults never
// surface as ErrUnreachable, so the injector adds no knowledge of its own.
func (f *FaultyNetwork) PeerHealth() *PeerHealth { return HealthOf(f.inner) }

// Register implements Network.
func (f *FaultyNetwork) Register(id types.ServerID, h Handler) { f.inner.Register(id, h) }

// Unregister implements Network.
func (f *FaultyNetwork) Unregister(id types.ServerID) { f.inner.Unregister(id) }

// Registered forwards liveness checks to the inner fabric when supported.
func (f *FaultyNetwork) Registered(id types.ServerID) bool {
	if r, ok := f.inner.(interface{ Registered(types.ServerID) bool }); ok {
		return r.Registered(id)
	}
	return false
}

// AdvanceStep moves the plan's current workflow time step, activating and
// expiring step-windowed fault rules and partitions.
func (f *FaultyNetwork) AdvanceStep(ts types.Version) {
	f.mu.Lock()
	if ts > f.step {
		f.step = ts
	}
	f.mu.Unlock()
}

// Step returns the plan's current workflow time step.
func (f *FaultyNetwork) Step() types.Version {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.step
}

// Partition installs a manual bidirectional partition between the sets and
// returns a heal function that removes it. Manual partitions ignore step
// windows — they are active from install to heal.
func (f *FaultyNetwork) Partition(a, b []types.ServerID) (heal func()) {
	f.mu.Lock()
	id := f.nextID
	f.nextID++
	f.manual[id] = failure.Partition{A: a, B: b}
	f.mu.Unlock()
	return func() {
		f.mu.Lock()
		delete(f.manual, id)
		f.mu.Unlock()
	}
}

// Stats returns the cumulative injected-fault counters.
func (f *FaultyNetwork) Stats() FaultStats {
	return FaultStats{
		Drops:        f.drops.Load(),
		Dups:         f.dups.Load(),
		Corrupts:     f.corrupts.Load(),
		RespCorrupts: f.respCorrupts.Load(),
		ConnBreaks:   f.connBreaks.Load(),
		Partitioned:  f.partitioned.Load(),
		Delayed:      f.delayed.Load(),
	}
}

// linkDecision is the set of faults drawn for one message.
type linkDecision struct {
	blocked     bool
	drop        bool
	dup         bool
	corrupt     bool
	respCorrupt bool
	connBreak   bool
	delay       time.Duration
}

func (f *FaultyNetwork) decide(from, to types.ServerID) linkDecision {
	f.mu.Lock()
	defer f.mu.Unlock()
	ts := f.step
	var d linkDecision
	for i := range f.plan.Partitions {
		p := &f.plan.Partitions[i]
		if p.ActiveAt(ts) && p.Blocks(from, to) {
			d.blocked = true
			return d
		}
	}
	for _, p := range f.manual {
		if p.Blocks(from, to) {
			d.blocked = true
			return d
		}
	}
	for i := range f.plan.Links {
		r := &f.plan.Links[i]
		if !r.ActiveAt(ts) || !r.Matches(from, to) {
			continue
		}
		d.delay += r.ExtraLatency
		if r.Jitter > 0 {
			d.delay += time.Duration(f.rng.Int63n(int64(r.Jitter)))
		}
		if r.DropProb > 0 && f.rng.Float64() < r.DropProb {
			d.drop = true
		}
		if r.DupProb > 0 && f.rng.Float64() < r.DupProb {
			d.dup = true
		}
		if r.CorruptProb > 0 && f.rng.Float64() < r.CorruptProb {
			d.corrupt = true
		}
		if r.RespCorruptProb > 0 && f.rng.Float64() < r.RespCorruptProb {
			d.respCorrupt = true
		}
		if r.ConnBreakProb > 0 && f.rng.Float64() < r.ConnBreakProb {
			d.connBreak = true
		}
	}
	return d
}

// Send implements Network, applying the drawn faults in fabric order:
// partition check, transit delay, corruption, loss, duplication, delivery.
func (f *FaultyNetwork) Send(ctx context.Context, from, to types.ServerID, req *Message) (*Message, error) {
	d := f.decide(from, to)
	if d.blocked {
		f.partitioned.Add(1)
		return nil, ErrPartitioned
	}
	if d.delay > 0 {
		f.delayed.Add(1)
		t := time.NewTimer(d.delay)
		select {
		case <-ctx.Done():
			t.Stop()
			return nil, ctx.Err()
		case <-t.C:
		}
	}
	if d.corrupt {
		f.corrupts.Add(1)
		return nil, f.corruptFrame(req)
	}
	if d.drop {
		f.drops.Add(1)
		return nil, ErrDropped
	}
	if d.dup {
		f.dups.Add(1)
		// Deliver the duplicate inline, before the original, with its
		// response discarded: duplicates on a request/response fabric come
		// from retransmits, which stay ordered with respect to the
		// sender's later traffic. Replaying out of band would inject
		// reorderings a TCP stream cannot produce (e.g. a stale
		// metadata update clobbering a newer same-version record).
		cp := *req
		cp.RecvInto = nil
		_, _ = f.inner.Send(ctx, from, to, &cp) // injected duplicate: its outcome must stay invisible
	}
	if d.connBreak {
		// Sever every live client connection to the destination before this
		// send, modeling mid-stream connection loss: requests pipelined on a
		// shared multiplexed connection fail together with ErrConnBroken and
		// exercise the mux redial salvage. The in-process fabric has no
		// connections, so the draw is a no-op there.
		if br, ok := f.inner.(connBreaker); ok {
			f.connBreaks.Add(1)
			br.BreakConns(to)
		}
	}
	resp, err := f.inner.Send(ctx, from, to, req)
	if err == nil && d.respCorrupt {
		// The request was delivered and processed; corrupt the reply on the
		// way back. On a multiplexed connection this is the per-request
		// failure path: only this request fails, the stream realigns.
		f.respCorrupts.Add(1)
		return nil, f.corruptFrame(resp)
	}
	return resp, err
}

// corruptFrame frames the message exactly as the TCP wire codec would,
// flips one segment byte, and runs the frame back through the frame
// verification — returning the resulting typed error. This keeps the
// injector honest: if the integrity checks ever regressed, corruption would
// silently deliver garbage and tests would catch it.
func (f *FaultyNetwork) corruptFrame(req *Message) error {
	buf := EncodeFrame(req)
	f.mu.Lock()
	// Flip within the segments (past the header) so the frame boundary
	// stays intact, mirroring the aligned-stream corruption TCP survives.
	i := frameHeaderSize + f.rng.Intn(len(buf)-frameHeaderSize)
	bit := byte(1) << uint(f.rng.Intn(8))
	f.mu.Unlock()
	buf[i] ^= bit
	if _, err := DecodeFrame(buf); err != nil {
		return err
	}
	// Unreachable with sound checks; fall back to the typed error so the
	// caller still sees the corruption.
	return ErrCorruptFrame
}
