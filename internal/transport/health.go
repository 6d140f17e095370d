package transport

import (
	"fmt"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"corec/internal/types"
)

// ErrPeerDown is returned by RetryPolicy.Send, without touching the fabric,
// for a destination the fabric's PeerHealth table has marked down. It wraps
// ErrUnreachable, so callers classify it exactly like the failure it
// remembers: retryable, and a reason for the write path to fail over.
var ErrPeerDown = fmt.Errorf("%w: peer marked down, failing fast", ErrUnreachable)

// PeerHealth is a process's one record of which servers are down: one table
// per fabric, fed by RetryPolicy.Send and by first-hand news. The first send
// that spends its whole budget on ErrUnreachable — the address is gone or
// the dial was refused — marks the peer down, and so does MarkDown (a gossip
// death verdict); every later send to it fails fast with ErrPeerDown
// instead of re-learning the death through another round of backoffs, and
// the cluster's monitor reads DownPeers to decide what to recover.
//
// The table runs no goroutine or timer of its own. Message-level faults
// (drops, corrupt frames, partitions, timeouts, broken connections) never
// mark a peer, so they keep their full retry budget. A marked peer is
// re-admitted three ways: a half-open trial (one real request let through
// per interval, the interval doubling from the marking policy's BaseBackoff
// to its MaxBackoff) that succeeds, the fabric learning a fresh handler for
// the ID (Register: Cluster.Replace and Join), or an explicit Admit (a
// membership alive event).
//
// The zero value is an empty table, ready to use. All methods are safe for
// concurrent use and tolerate a nil receiver (a fabric without a table).
type PeerHealth struct {
	// word packs the re-admission generation (high 32 bits) and the number
	// of peers marked down (low 32 bits), so a send on a healthy fabric
	// pays one atomic load for both. The generation lets a send that began
	// before a re-admission discard its stale verdict.
	word      atomic.Uint64
	fastFails atomic.Int64

	mu   sync.Mutex
	down map[types.ServerID]downPeer
	now  func() time.Time // test clock; nil means time.Now
}

// downPeer is the half-open state of one marked peer.
type downPeer struct {
	interval  time.Duration // gap between trials; doubles on each failed one
	nextTrial time.Time     // earliest instant the next trial may pass
}

// admission is the table's verdict on one send.
type admission int

const (
	admitOpen   admission = iota // peer not marked: the full retry budget applies
	admitTrial                   // peer marked, this send is the interval's half-open trial
	admitDenied                  // peer marked: fail fast
)

// healthCarrier is implemented by fabrics that own a PeerHealth table.
type healthCarrier interface {
	PeerHealth() *PeerHealth
}

// HealthOf returns the fabric's peer-health table, or nil when the fabric
// keeps none (custom test networks); RetryPolicy.Send then behaves as a
// plain retry loop.
func HealthOf(n Network) *PeerHealth {
	if c, ok := n.(healthCarrier); ok {
		return c.PeerHealth()
	}
	return nil
}

func (h *PeerHealth) clock() time.Time {
	if h.now != nil {
		return h.now()
	}
	return time.Now()
}

// admit classifies a send about to start and returns the table generation
// it started under (handed back to markDown).
func (h *PeerHealth) admit(to types.ServerID) (admission, uint32) {
	if h == nil {
		return admitOpen, 0
	}
	w := h.word.Load()
	gen := uint32(w >> 32)
	if uint32(w) == 0 {
		return admitOpen, gen
	}
	h.mu.Lock()
	d, marked := h.down[to]
	if !marked {
		h.mu.Unlock()
		return admitOpen, gen
	}
	now := h.clock()
	if now.Before(d.nextTrial) {
		h.mu.Unlock()
		h.fastFails.Add(1)
		return admitDenied, gen
	}
	// Claim this interval's trial; concurrent senders keep failing fast.
	d.nextTrial = now.Add(d.interval)
	h.down[to] = d
	h.mu.Unlock()
	return admitTrial, gen
}

// markDown records that a send admitted under generation gen found the peer
// unreachable: an exhausted budget marks it, a failed trial re-arms it with
// a doubled interval. A verdict that predates a re-admission is dropped.
func (h *PeerHealth) markDown(to types.ServerID, gen uint32, p RetryPolicy, trial bool) {
	if h == nil {
		return
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	if uint32(h.word.Load()>>32) != gen {
		return
	}
	d, marked := h.down[to]
	switch {
	case !marked:
		if h.down == nil {
			h.down = make(map[types.ServerID]downPeer)
		}
		d.interval = p.BaseBackoff
		h.word.Add(1)
	case trial:
		// Double within [BaseBackoff, MaxBackoff]. An uncapped policy
		// (MaxBackoff 0) keeps the interval flat rather than letting a
		// long-dead peer's re-admission drift out without bound.
		d.interval = min(max(2*d.interval, p.BaseBackoff), max(p.MaxBackoff, p.BaseBackoff))
	default:
		return // a concurrent sender exhausted its budget first
	}
	d.nextTrial = h.clock().Add(d.interval)
	h.down[to] = d
}

// Admit re-admits the peer unconditionally: the caller has first-hand news
// that it is up (a fresh handler registered under the ID, a successful
// trial, a membership alive event). Sends already in flight that began
// before the call cannot mark it down again.
func (h *PeerHealth) Admit(id types.ServerID) {
	if h == nil {
		return
	}
	h.mu.Lock()
	delta := uint64(1) << 32
	if _, marked := h.down[id]; marked {
		delete(h.down, id)
		delta-- // generation +1, down count -1
	}
	h.word.Add(delta)
	h.mu.Unlock()
}

// MarkDown marks the peer down as an exhausted send under policy p would:
// the caller has first-hand news that it is gone (a gossip death verdict).
// A peer already marked keeps its half-open state.
func (h *PeerHealth) MarkDown(id types.ServerID, p RetryPolicy) {
	h.markDown(id, h.Generation(), p, false)
}

// DownPeers returns the peers currently marked down, in ID order.
func (h *PeerHealth) DownPeers() []types.ServerID {
	if h.PeersDown() == 0 {
		return nil
	}
	h.mu.Lock()
	out := make([]types.ServerID, 0, len(h.down))
	for id := range h.down {
		out = append(out, id)
	}
	h.mu.Unlock()
	slices.Sort(out)
	return out
}

// Generation counts re-admissions: it moves whenever a peer is admitted
// (among others, whenever a fresh handler registers under an ID, which is how
// a replacement server arrives), so work that spans a window can tell whether
// a member it relied on may have been replaced meanwhile.
func (h *PeerHealth) Generation() uint32 {
	if h == nil {
		return 0
	}
	return uint32(h.word.Load() >> 32)
}

// Down reports whether the peer is currently marked down. Read paths use it
// to order mirrors and to plan a degraded read up front; it never blocks a
// send (only RetryPolicy.Send's admission does).
func (h *PeerHealth) Down(id types.ServerID) bool {
	if h == nil || uint32(h.word.Load()) == 0 {
		return false
	}
	h.mu.Lock()
	_, marked := h.down[id]
	h.mu.Unlock()
	return marked
}

// PeersDown returns the number of peers currently marked down.
func (h *PeerHealth) PeersDown() int {
	if h == nil {
		return 0
	}
	return int(uint32(h.word.Load()))
}

// FastFails returns how many sends were refused without touching the fabric.
func (h *PeerHealth) FastFails() int64 {
	if h == nil {
		return 0
	}
	return h.fastFails.Load()
}
