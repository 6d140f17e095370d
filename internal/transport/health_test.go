package transport

import (
	"context"
	"errors"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"corec/internal/failure"
	"corec/internal/simnet"
	"corec/internal/types"
)

// scriptNet is a fabric with a health table whose Send outcome the test
// scripts: fail holds the error every send returns (nil answers OK), hook
// runs inside each send, and sends counts the attempts that reached it.
type scriptNet struct {
	health PeerHealth
	mu     sync.Mutex
	fail   error
	hook   func()
	sends  atomic.Int64
}

func (n *scriptNet) Register(types.ServerID, Handler) {}
func (n *scriptNet) Unregister(types.ServerID)        {}
func (n *scriptNet) PeerHealth() *PeerHealth          { return &n.health }
func (n *scriptNet) setFail(err error)                { n.mu.Lock(); n.fail = err; n.mu.Unlock() }
func (n *scriptNet) Send(ctx context.Context, from, to types.ServerID, req *Message) (*Message, error) {
	n.sends.Add(1)
	n.mu.Lock()
	err, hook := n.fail, n.hook
	n.mu.Unlock()
	if hook != nil {
		hook()
	}
	if err != nil {
		return nil, err
	}
	return Ok(), nil
}

// fakeClock is the table's injected time source.
type fakeClock struct {
	mu sync.Mutex
	t  time.Time
}

func (c *fakeClock) now() time.Time          { c.mu.Lock(); defer c.mu.Unlock(); return c.t }
func (c *fakeClock) advance(d time.Duration) { c.mu.Lock(); c.t = c.t.Add(d); c.mu.Unlock() }

// healthPolicy sleeps microseconds between attempts but, through the fake
// clock, gives the table intervals a test can step over exactly.
var healthPolicy = RetryPolicy{MaxAttempts: 3, BaseBackoff: 100 * time.Microsecond, MaxBackoff: 400 * time.Microsecond}

func newScriptNet() (*scriptNet, *fakeClock) {
	n, clk := &scriptNet{}, &fakeClock{t: time.Unix(1000, 0)}
	n.health.now = clk.now
	return n, clk
}

func ping() *Message { return &Message{Kind: MsgPing} }

func TestPeerHealthTripsOnlyAfterExhaustedUnreachable(t *testing.T) {
	n, _ := newScriptNet()
	ctx := context.Background()

	// Unreachable twice, then up: the send succeeds inside its budget and
	// the table stays empty.
	flaky := &flakyNet{inner: n, failFirst: 2}
	if _, attempts, err := healthPolicy.Send(ctx, flaky, -1, 5, ping()); err != nil || attempts != 3 {
		t.Fatalf("recovering send: attempts=%d err=%v, want 3 and success", attempts, err)
	}
	if n.health.PeersDown() != 0 {
		t.Fatal("a send that succeeded within its budget marked the peer")
	}

	// A cancelled caller gives no verdict either.
	n.setFail(ErrUnreachable)
	cctx, cancel := context.WithCancel(ctx)
	cancel()
	if _, _, err := healthPolicy.Send(cctx, n, -1, 5, ping()); err == nil {
		t.Fatal("cancelled send succeeded")
	}
	if n.health.PeersDown() != 0 {
		t.Fatal("a cancelled send marked the peer")
	}

	// The whole budget spent on ErrUnreachable: marked.
	if _, attempts, err := healthPolicy.Send(ctx, n, -1, 5, ping()); !errors.Is(err, ErrUnreachable) || attempts != 3 {
		t.Fatalf("exhausting send: attempts=%d err=%v", attempts, err)
	}
	if n.health.PeersDown() != 1 || !n.health.Down(5) || n.health.Down(6) {
		t.Fatalf("PeersDown=%d Down(5)=%v Down(6)=%v after an exhausted budget",
			n.health.PeersDown(), n.health.Down(5), n.health.Down(6))
	}
}

// flakyNet fails its first failFirst sends with ErrUnreachable, then
// forwards; it shares the inner fabric's table.
type flakyNet struct {
	inner     *scriptNet
	failFirst int64
	n         atomic.Int64
}

func (f *flakyNet) Register(types.ServerID, Handler) {}
func (f *flakyNet) Unregister(types.ServerID)        {}
func (f *flakyNet) PeerHealth() *PeerHealth          { return &f.inner.health }
func (f *flakyNet) Send(ctx context.Context, from, to types.ServerID, req *Message) (*Message, error) {
	if f.n.Add(1) <= f.failFirst {
		return nil, ErrUnreachable
	}
	return f.inner.Send(ctx, from, to, req)
}

func TestPeerHealthFailsFastAfterMark(t *testing.T) {
	n, _ := newScriptNet()
	ctx := context.Background()
	n.setFail(ErrUnreachable)
	healthPolicy.Send(ctx, n, -1, 5, ping()) //nolint:errcheck // marks the peer
	before := n.sends.Load()

	for i := 0; i < 50; i++ {
		_, attempts, err := healthPolicy.Send(ctx, n, -1, 5, ping())
		if attempts != 1 || !errors.Is(err, ErrPeerDown) {
			t.Fatalf("send %d to a marked peer: attempts=%d err=%v", i, attempts, err)
		}
		if !errors.Is(err, ErrUnreachable) || !IsRetryable(err) {
			t.Fatalf("fast-fail error %v must classify like ErrUnreachable", err)
		}
	}
	if got := n.sends.Load() - before; got != 0 {
		t.Fatalf("%d fast-failed sends reached the fabric", got)
	}
	if n.health.FastFails() != 50 {
		t.Fatalf("FastFails = %d, want 50", n.health.FastFails())
	}
	// Other peers are untouched.
	n.setFail(nil)
	if _, attempts, err := healthPolicy.Send(ctx, n, -1, 6, ping()); err != nil || attempts != 1 {
		t.Fatalf("send to a healthy peer: attempts=%d err=%v", attempts, err)
	}
}

func TestPeerHealthHalfOpenTrial(t *testing.T) {
	n, clk := newScriptNet()
	ctx := context.Background()
	n.setFail(ErrUnreachable)
	healthPolicy.Send(ctx, n, -1, 5, ping()) //nolint:errcheck // marks the peer, interval = BaseBackoff

	// trial reports whether the next send reached the fabric (exactly once).
	trial := func() bool {
		before := n.sends.Load()
		_, attempts, _ := healthPolicy.Send(ctx, n, -1, 5, ping())
		if attempts != 1 {
			t.Fatalf("send to a marked peer made %d attempts", attempts)
		}
		return n.sends.Load()-before == 1
	}
	base := healthPolicy.BaseBackoff
	if trial() {
		t.Fatal("trial admitted before the interval elapsed")
	}
	// Failed trials re-arm with a doubled interval, capped at MaxBackoff.
	for _, want := range []time.Duration{base, 2 * base, 4 * base, 4 * base} {
		clk.advance(want - 1)
		if trial() {
			t.Fatalf("trial admitted %v into a %v interval", want-1, want)
		}
		clk.advance(1)
		if !trial() {
			t.Fatalf("no trial after the %v interval elapsed", want)
		}
		if trial() {
			t.Fatal("second trial admitted inside one interval")
		}
	}
	// A trial that succeeds re-admits the peer.
	n.setFail(nil)
	clk.advance(healthPolicy.MaxBackoff)
	if _, attempts, err := healthPolicy.Send(ctx, n, -1, 5, ping()); err != nil || attempts != 1 {
		t.Fatalf("successful trial: attempts=%d err=%v", attempts, err)
	}
	if n.health.PeersDown() != 0 || n.health.Down(5) {
		t.Fatal("peer still marked after a successful trial")
	}
	// Back to the full budget.
	n.setFail(ErrUnreachable)
	if _, attempts, _ := healthPolicy.Send(ctx, n, -1, 5, ping()); attempts != 3 {
		t.Fatalf("re-admitted peer got %d attempts, want the full 3", attempts)
	}
}

// TestPeerHealthInFlightSendBailsOut: a send still inside its budget when
// another sender marks the peer stops after its current attempt.
func TestPeerHealthInFlightSendBailsOut(t *testing.T) {
	n, _ := newScriptNet()
	n.setFail(ErrUnreachable)
	_, gen := n.health.admit(5)
	n.hook = func() { n.health.markDown(5, gen, healthPolicy, false) } // "another sender" exhausts mid-attempt
	_, attempts, err := healthPolicy.Send(context.Background(), n, -1, 5, ping())
	if attempts != 1 || !errors.Is(err, ErrUnreachable) {
		t.Fatalf("in-flight send: attempts=%d err=%v, want to stop after 1", attempts, err)
	}
}

func TestPeerHealthAdmitDiscardsStaleVerdict(t *testing.T) {
	n := NewInProc(simnet.LinkModel{})
	h := n.PeerHealth()
	ctx := context.Background()
	p := RetryPolicy{MaxAttempts: 2} // no backoff, so no sleeps (and a zero trial interval)
	if _, _, err := p.Send(ctx, n, -1, 3, ping()); !errors.Is(err, ErrUnreachable) {
		t.Fatalf("send to an unregistered peer: %v", err)
	}
	if !h.Down(3) {
		t.Fatal("unregistered peer not marked")
	}
	// A send admitted now carries the current generation...
	_, gen := h.admit(4)
	// ...a fresh handler re-admits server 3 and moves the generation...
	n.Register(3, echoHandler)
	if h.Down(3) || h.PeersDown() != 0 {
		t.Fatal("Register did not re-admit the peer")
	}
	// ...so a verdict formed before that is dropped.
	h.markDown(3, gen, p, false)
	if h.Down(3) {
		t.Fatal("a verdict older than the re-admission marked the peer down again")
	}
	if _, attempts, err := p.Send(ctx, n, -1, 3, ping()); err != nil || attempts != 1 {
		t.Fatalf("send after Register: attempts=%d err=%v", attempts, err)
	}
}

// TestPeerHealthIgnoresMessageLevelFaults: drops, corrupt frames,
// partitions, timeouts and broken connections at 100 % keep their full
// retry budget on every send and never mark the peer.
func TestPeerHealthIgnoresMessageLevelFaults(t *testing.T) {
	ctx := context.Background()
	p := RetryPolicy{MaxAttempts: 3, BaseBackoff: 10 * time.Microsecond, MaxBackoff: 40 * time.Microsecond}

	check := func(name string, n Network, pol RetryPolicy, want error) {
		t.Helper()
		for i := 0; i < 5; i++ {
			_, attempts, err := pol.Send(ctx, n, 0, 1, sampleMessage())
			if attempts != pol.MaxAttempts {
				t.Fatalf("%s: send %d made %d attempts, want the full %d", name, i, attempts, pol.MaxAttempts)
			}
			if want != nil && !errors.Is(err, want) {
				t.Fatalf("%s: err = %v, want %v", name, err, want)
			}
			if errors.Is(err, ErrUnreachable) {
				t.Fatalf("%s: surfaced as unreachable: %v", name, err)
			}
		}
		if h := HealthOf(n); h == nil || h.PeersDown() != 0 || h.FastFails() != 0 {
			t.Fatalf("%s: table tripped (down=%d fastFails=%d)", name, h.PeersDown(), h.FastFails())
		}
	}

	faulty := func(plan *failure.FaultPlan) *FaultyNetwork {
		inner := NewInProc(simnet.LinkModel{})
		inner.Register(1, echoHandler)
		return NewFaultyNetwork(inner, plan)
	}
	check("drop", faulty(&failure.FaultPlan{Links: []failure.LinkFault{{DropProb: 1}}}), p, ErrDropped)
	check("corrupt", faulty(&failure.FaultPlan{Links: []failure.LinkFault{{CorruptProb: 1}}}), p, ErrCorruptFrame)
	part := faulty(nil)
	part.Partition([]types.ServerID{0}, []types.ServerID{1})
	check("partition", part, p, ErrPartitioned)

	slow := NewInProc(simnet.LinkModel{})
	slow.Register(1, func(ctx context.Context, req *Message) *Message {
		<-ctx.Done() // never answers inside the attempt timeout
		return nil
	})
	slowNet := &timeoutNet{InProc: slow}
	pt := p
	pt.PerAttemptTimeout = 2 * time.Millisecond
	check("timeout", slowNet, pt, context.DeadlineExceeded)

	broken, _ := newScriptNet()
	broken.setFail(ErrConnBroken)
	check("conn-broken", broken, p, ErrConnBroken)
}

// timeoutNet turns a handler that outlives the attempt deadline into the
// error a real fabric reports.
type timeoutNet struct{ *InProc }

func (n *timeoutNet) Send(ctx context.Context, from, to types.ServerID, req *Message) (*Message, error) {
	resp, err := n.InProc.Send(ctx, from, to, req)
	if cerr := ctx.Err(); cerr != nil {
		return nil, cerr
	}
	return resp, err
}

// TestPeerHealthConcurrentSenders hammers one table from many goroutines
// while a peer flaps; run under -race. Whatever the interleaving, once the
// peer is registered for good a send reaches it again.
func TestPeerHealthConcurrentSenders(t *testing.T) {
	n := NewInProc(simnet.LinkModel{})
	n.Register(0, echoHandler)
	n.Register(1, echoHandler)
	p := RetryPolicy{MaxAttempts: 3, BaseBackoff: 5 * time.Microsecond, MaxBackoff: 50 * time.Microsecond, JitterFrac: 0.5}
	ctx := context.Background()

	stop := make(chan struct{})
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				to := types.ServerID(i % 2)
				_, _, err := p.Send(ctx, n, types.ServerID(-1-g), to, ping())
				if err != nil && !errors.Is(err, ErrUnreachable) {
					t.Errorf("unexpected error: %v", err)
					return
				}
				if to == 0 && err != nil {
					t.Errorf("send to the stable peer failed: %v", err)
					return
				}
				n.PeerHealth().Down(to)
			}
		}(g)
	}
	for i := 0; i < 200; i++ {
		n.Unregister(1)
		time.Sleep(50 * time.Microsecond)
		n.Register(1, echoHandler)
		time.Sleep(50 * time.Microsecond)
	}
	close(stop)
	wg.Wait()
	if n.PeerHealth().Down(1) {
		t.Fatal("peer still marked down after its final Register")
	}
	if _, _, err := p.Send(ctx, n, -1, 1, ping()); err != nil {
		t.Fatalf("send after the final Register: %v", err)
	}
}

// TestPeerHealthMarkDown: first-hand news marks a peer exactly as an
// exhausted send does — sends fail fast, a half-open trial comes after the
// policy's BaseBackoff — and DownPeers lists the marks in ID order.
func TestPeerHealthMarkDown(t *testing.T) {
	n, clk := newScriptNet()
	h := n.PeerHealth()
	h.MarkDown(7, healthPolicy)
	h.MarkDown(2, healthPolicy)
	h.MarkDown(7, healthPolicy) // already marked: no second count
	if got := h.DownPeers(); !slices.Equal(got, []types.ServerID{2, 7}) || h.PeersDown() != 2 {
		t.Fatalf("DownPeers = %v, PeersDown = %d; want [2 7] and 2", got, h.PeersDown())
	}
	ctx := context.Background()
	if _, _, err := healthPolicy.Send(ctx, n, -1, 7, ping()); !errors.Is(err, ErrPeerDown) || n.sends.Load() != 0 {
		t.Fatalf("send to a marked peer: err=%v, %d sends reached the fabric", err, n.sends.Load())
	}
	clk.advance(healthPolicy.BaseBackoff)
	if _, attempts, err := healthPolicy.Send(ctx, n, -1, 7, ping()); err != nil || attempts != 1 {
		t.Fatalf("trial after BaseBackoff: attempts=%d err=%v", attempts, err)
	}
	if got := h.DownPeers(); !slices.Equal(got, []types.ServerID{2}) {
		t.Fatalf("DownPeers = %v after a successful trial, want [2]", got)
	}
}

// TestPeerHealthNilTableReadsEmpty: a fabric that keeps no table hands out a
// nil one, and every reader treats it as a table with nobody down.
func TestPeerHealthNilTableReadsEmpty(t *testing.T) {
	var nilTable *PeerHealth
	nilTable.MarkDown(3, healthPolicy)
	if nilTable.Down(3) || nilTable.PeersDown() != 0 || nilTable.FastFails() != 0 || nilTable.DownPeers() != nil {
		t.Fatal("nil table must read as empty")
	}
}
