package transport

import (
	"context"
	"errors"
	"fmt"
	"net"
	"sync"

	"corec/internal/types"
)

// Request multiplexing is the TCP fabric's one wire discipline: a small
// fixed set of connections per peer carries many concurrent requests,
// correlated by the frame header's request ID. Each connection runs one
// writer goroutine (scatter-gather frame writes off a channel) and one
// demultiplexing reader goroutine (pooled frame reads, responses routed to
// per-request channels), with a bounded in-flight window applying
// backpressure. The connection count and the window are sizing, not
// protocol: any client interoperates with any TCPServer.
//
// Failure semantics:
//
//   - A corrupt response frame fails only its own request with the
//     retryable ErrCorruptFrame; the length prefix bounded the damage, so
//     the stream realigns and every other pipelined request proceeds.
//   - A dead connection (EOF, reset, write error) fails all its pending
//     requests with the retryable ErrConnBroken and the next request
//     transparently dials a replacement — and the failing request itself is
//     salvaged by one immediate retry on the fresh connection (counted in
//     MuxRedials), so a server restarted under its ID costs no request.

// DefaultMuxConns and DefaultMaxInFlight size a fabric that was given no
// explicit values: connections per peer, and the pipelining window per
// connection.
const (
	DefaultMuxConns    = 2
	DefaultMaxInFlight = 32
)

// muxResult carries one demultiplexed response (or its failure).
type muxResult struct {
	m   *Message
	err error
}

// muxWrite is one frame handed to the writer goroutine.
type muxWrite struct {
	reqID uint64
	m     *Message
}

// muxSet is the per-peer connection set, used round-robin.
type muxSet struct {
	conns []*muxConn
	next  uint64
}

// muxConn is one multiplexed connection: a writer goroutine, a demux
// reader goroutine, and the pending-request table between them.
type muxConn struct {
	owner   *TCPNetwork
	conn    net.Conn
	writeCh chan muxWrite
	// sem is the in-flight window: holding a slot admits one request to
	// the pipeline.
	sem  chan struct{}
	done chan struct{}
	once sync.Once

	mu      sync.Mutex
	pending map[uint64]chan muxResult
	broken  bool
	cause   error
}

func newMuxConn(owner *TCPNetwork, conn net.Conn, window int) *muxConn {
	mc := &muxConn{
		owner:   owner,
		conn:    conn,
		writeCh: make(chan muxWrite, window),
		sem:     make(chan struct{}, window),
		done:    make(chan struct{}),
		pending: make(map[uint64]chan muxResult),
	}
	go mc.writeLoop()
	go mc.readLoop()
	return mc
}

func (mc *muxConn) writeLoop() {
	for {
		select {
		case w := <-mc.writeCh:
			if err := writeFrameID(mc.conn, w.m, w.reqID); err != nil {
				// A partial frame may be on the wire; the stream cannot be
				// trusted, so the whole connection fails (the pending
				// request, this one included, all get ErrConnBroken).
				mc.fail(err)
				return
			}
		case <-mc.done:
			return
		}
	}
}

func (mc *muxConn) readLoop() {
	hdr := make([]byte, frameHeaderSize)
	for {
		reqID, m, err := readFramePooled(mc.conn, hdr)
		switch {
		case err == nil:
			mc.deliver(reqID, muxResult{m: m})
		case errors.Is(err, ErrCorruptFrame):
			// The frame boundary held, so the stream is realigned: fail
			// only the request the corrupt frame answered and keep every
			// other pipelined request in flight. The frame CRC covers the
			// request ID, so a corrupt ID cannot misroute the failure to a
			// healthy request's frame.
			mc.deliver(reqID, muxResult{err: err})
		default:
			mc.fail(err)
			return
		}
	}
}

// deliver routes one response to its waiting request. The pending entry is
// removed under the lock; the send happens outside it on a buffered
// channel, so delivery never blocks on (or deadlocks with) the requester.
func (mc *muxConn) deliver(reqID uint64, r muxResult) {
	mc.mu.Lock()
	ch := mc.pending[reqID]
	delete(mc.pending, reqID)
	mc.mu.Unlock()
	if ch != nil {
		ch <- r
	}
	// A nil channel means the requester gave up (context cancellation) or
	// the frame answered nothing we sent; either way the response is
	// dropped and its buffer left to the GC.
}

// forget abandons a pending request (context cancellation). Any late
// response is discarded by deliver.
func (mc *muxConn) forget(reqID uint64) {
	mc.mu.Lock()
	delete(mc.pending, reqID)
	mc.mu.Unlock()
}

// fail marks the connection broken, closes it, and fails every pending
// request with the retryable ErrConnBroken.
func (mc *muxConn) fail(cause error) {
	mc.mu.Lock()
	if !mc.broken {
		mc.broken = true
		mc.cause = cause
	}
	pend := mc.pending
	mc.pending = make(map[uint64]chan muxResult)
	mc.mu.Unlock()
	mc.once.Do(func() { close(mc.done) })
	_ = mc.conn.Close() // the failure cause is what gets reported
	err := fmt.Errorf("%w: %v", ErrConnBroken, cause)
	for _, ch := range pend {
		ch <- muxResult{err: err}
	}
}

func (mc *muxConn) isBroken() bool {
	mc.mu.Lock()
	defer mc.mu.Unlock()
	return mc.broken
}

func (mc *muxConn) brokenErr() error {
	mc.mu.Lock()
	cause := mc.cause
	mc.mu.Unlock()
	if cause == nil {
		return ErrConnBroken
	}
	return fmt.Errorf("%w: %v", ErrConnBroken, cause)
}

// release returns an in-flight window slot.
func (mc *muxConn) release() {
	<-mc.sem
	mc.owner.inflight.Add(-1)
}

// roundTrip runs one request over the multiplexed connection: acquire a
// window slot, register the request ID, enqueue the frame for the writer,
// await the demultiplexed response.
func (mc *muxConn) roundTrip(ctx context.Context, req *Message) (*Message, error) {
	select {
	case mc.sem <- struct{}{}:
	case <-mc.done:
		return nil, mc.brokenErr()
	case <-ctx.Done():
		return nil, ctx.Err()
	}
	mc.owner.inflight.Add(1)
	defer mc.release()

	reqID := mc.owner.reqSeq.Add(1)
	ch := make(chan muxResult, 1)
	mc.mu.Lock()
	if mc.broken {
		mc.mu.Unlock()
		return nil, mc.brokenErr()
	}
	mc.pending[reqID] = ch
	mc.mu.Unlock()

	select {
	case mc.writeCh <- muxWrite{reqID: reqID, m: req}:
	case <-mc.done:
		mc.forget(reqID)
		return nil, mc.brokenErr()
	case <-ctx.Done():
		mc.forget(reqID)
		return nil, ctx.Err()
	}

	select {
	case r := <-ch:
		return r.m, r.err
	case <-ctx.Done():
		mc.forget(reqID)
		return nil, ctx.Err()
	}
}

// getMuxConn returns the destination's next multiplexed connection in
// round-robin order, dialing fresh or replacement connections lazily.
func (n *TCPNetwork) getMuxConn(to types.ServerID) (*muxConn, error) {
	n.muxMu.Lock()
	set := n.muxes[to]
	if set == nil {
		set = &muxSet{conns: make([]*muxConn, n.muxConns)}
		n.muxes[to] = set
	}
	i := int(set.next % uint64(len(set.conns)))
	set.next++
	if mc := set.conns[i]; mc != nil && !mc.isBroken() {
		n.muxMu.Unlock()
		return mc, nil
	}
	// Dialing under muxMu keeps slot management race-free; dials are rare
	// (first use of a peer and replacement of broken connections).
	c, err := n.dial(to)
	if err != nil {
		n.muxMu.Unlock()
		return nil, err
	}
	mc := newMuxConn(n, c, n.maxInFlight)
	set.conns[i] = mc
	n.muxMu.Unlock()
	return mc, nil
}

// Send implements Network. A request whose connection broke is retried once
// on a fresh connection: the shared connection may simply predate a server
// restart, and that salvage must not surface as a request failure.
func (n *TCPNetwork) Send(ctx context.Context, from, to types.ServerID, req *Message) (*Message, error) {
	if req.From != from {
		// Stamp once: the retry layer resends the same message, and a dying
		// connection's writer may still be reading the previous attempt.
		req.From = from
	}
	mc, err := n.getMuxConn(to)
	if err != nil {
		return nil, err
	}
	resp, err := mc.roundTrip(ctx, req)
	if err == nil || !errors.Is(err, ErrConnBroken) || ctx.Err() != nil {
		return resp, err
	}
	n.muxRedials.Add(1)
	mc, derr := n.getMuxConn(to)
	if derr != nil {
		return nil, derr
	}
	return mc.roundTrip(ctx, req)
}

// dropMux tears down the destination's multiplexed connections (address
// change, unregistration). In-flight requests fail with the retryable
// ErrConnBroken.
func (n *TCPNetwork) dropMux(id types.ServerID) {
	n.muxMu.Lock()
	set := n.muxes[id]
	delete(n.muxes, id)
	n.muxMu.Unlock()
	if set == nil {
		return
	}
	for _, mc := range set.conns {
		if mc != nil {
			mc.fail(errors.New("connection dropped (peer reconfigured)"))
		}
	}
}

// dropAllMux tears down every multiplexed connection (fabric Close).
func (n *TCPNetwork) dropAllMux() {
	n.muxMu.Lock()
	sets := make([]*muxSet, 0, len(n.muxes))
	for _, set := range n.muxes {
		sets = append(sets, set)
	}
	n.muxes = make(map[types.ServerID]*muxSet)
	n.muxMu.Unlock()
	for _, set := range sets {
		for _, mc := range set.conns {
			if mc != nil {
				mc.fail(errors.New("connection dropped (fabric closed)"))
			}
		}
	}
}

// ActiveMuxConns reports the number of live multiplexed connections across
// all peers (the gauge surfaced by FabricStatus).
func (n *TCPNetwork) ActiveMuxConns() int {
	n.muxMu.Lock()
	defer n.muxMu.Unlock()
	live := 0
	for _, set := range n.muxes {
		for _, mc := range set.conns {
			if mc != nil && !mc.isBroken() {
				live++
			}
		}
	}
	return live
}

// BreakConns severs every live client connection to the destination
// without touching the destination server. The seeded fault injector uses
// it to model mid-stream connection loss; requests in flight fail with the
// retryable ErrConnBroken and are salvaged by the redial path.
func (n *TCPNetwork) BreakConns(to types.ServerID) int {
	n.muxMu.Lock()
	var mcs []*muxConn
	if set := n.muxes[to]; set != nil {
		for i, mc := range set.conns {
			if mc != nil {
				mcs = append(mcs, mc)
				set.conns[i] = nil
			}
		}
	}
	n.muxMu.Unlock()
	for _, mc := range mcs {
		mc.fail(errors.New("connection broken by fault injection"))
	}
	return len(mcs)
}
