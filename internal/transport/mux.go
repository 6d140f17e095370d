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
// demultiplexing reader goroutine (responses routed to per-request
// channels), with a bounded in-flight window applying backpressure. The
// connection count and the window are sizing, not protocol: any client
// interoperates with any TCPServer.
//
// The pending entry of a request keeps its RecvInto, and the reader lands
// the response's payload there straight off the socket. What makes that
// safe is one rule: roundTrip does not return while the reader may still
// touch the buffer. The reader marks the connection as filling from the
// moment it claims a pending request's buffer until it has read and checked
// the payload; every way out of roundTrip other than the delivered result —
// cancellation, connection failure — waits for that mark to clear, and a
// request abandoned in mid-payload fails the connection first so the wait
// does not depend on the peer.
//
// Failure semantics:
//
//   - A response frame with a damaged segment fails only its own request
//     with the retryable ErrCorruptFrame; the authenticated lengths bounded
//     the damage, so the stream stays aligned and every other pipelined
//     request proceeds.
//   - A dead connection (EOF, reset, write error, a damaged frame header)
//     fails all its pending requests with the retryable ErrConnBroken and
//     the next request transparently dials a replacement — and the failing
//     request itself is salvaged by one immediate retry on the fresh
//     connection (counted in MuxRedials), so a server restarted under its ID
//     costs no request.

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

// muxWrite is one frame handed to the writer goroutine, with the writer's
// hold of the payload Buffer (see buffers.go).
type muxWrite struct {
	reqID uint64
	m     *Message
	buf   *Buffer
}

// muxPending is one request awaiting its response: where the result goes
// and, when the request named one, where the payload lands.
type muxPending struct {
	ch   chan muxResult
	into []byte
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
	pending map[uint64]muxPending
	// filling is the request whose RecvInto the reader has claimed and may
	// be touching (0: none); fillIdle, on mu, signals its return to 0.
	filling  uint64
	fillIdle sync.Cond
	broken   bool
	cause    error
}

func newMuxConn(owner *TCPNetwork, conn net.Conn, window int) *muxConn {
	mc := &muxConn{
		owner:   owner,
		conn:    conn,
		writeCh: make(chan muxWrite, window),
		sem:     make(chan struct{}, window),
		done:    make(chan struct{}),
		pending: make(map[uint64]muxPending),
	}
	mc.fillIdle.L = &mc.mu
	go mc.writeLoop()
	go mc.readLoop()
	return mc
}

func (mc *muxConn) writeLoop() {
	for {
		select {
		case w := <-mc.writeCh:
			err := writeFrameID(mc.conn, w.m, w.reqID)
			w.buf.Release()
			if err != nil {
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
	fr := newFrameReader(mc.conn)
	for {
		reqID, m, err := fr.next(mc)
		switch {
		case err == nil:
			mc.deliver(reqID, muxResult{m: m})
		case segmentCorrupt(err):
			// The header held, so the stream is aligned: fail only the
			// request the damaged frame answered and keep every other
			// pipelined request in flight. The header check covers the
			// request ID, so a corrupt ID cannot misroute the failure to a
			// healthy request.
			mc.deliver(reqID, muxResult{err: err})
		default:
			mc.fail(err)
			return
		}
	}
}

// claim implements payloadSink: the pending request's RecvInto, marked as
// filling until unclaim when it is non-empty.
func (mc *muxConn) claim(reqID uint64) (into []byte, wanted bool) {
	mc.mu.Lock()
	defer mc.mu.Unlock()
	p, ok := mc.pending[reqID]
	if !ok {
		return nil, false
	}
	if len(p.into) > 0 {
		mc.filling = reqID
	}
	return p.into, true
}

// unclaim implements payloadSink.
func (mc *muxConn) unclaim() {
	mc.mu.Lock()
	mc.filling = 0
	mc.fillIdle.Broadcast()
	mc.mu.Unlock()
}

// deliver routes one response to its waiting request. The pending entry is
// removed under the lock; the send happens outside it on a buffered
// channel, so delivery never blocks on (or deadlocks with) the requester.
func (mc *muxConn) deliver(reqID uint64, r muxResult) {
	mc.mu.Lock()
	p := mc.pending[reqID]
	delete(mc.pending, reqID)
	mc.mu.Unlock()
	if p.ch != nil {
		p.ch <- r
	}
	// A nil channel means the requester gave up (context cancellation) or
	// the frame answered nothing we sent; claim already had the reader skip
	// the payload, and what is left of the response is dropped.
}

// forget abandons a pending request (context cancellation): once the entry
// is gone the reader can no longer claim its buffer, and a late response is
// skipped. Should the reader be filling the buffer right now, the
// connection is failed — that unblocks its read whatever the peer does —
// and fail waits for it to let go.
func (mc *muxConn) forget(reqID uint64) {
	mc.mu.Lock()
	delete(mc.pending, reqID)
	filling := mc.filling == reqID
	mc.mu.Unlock()
	if filling {
		mc.fail(errors.New("request abandoned in mid-payload"))
	}
}

// fail marks the connection broken, closes it, and fails every pending
// request with the retryable ErrConnBroken — after the reader has let go of
// any buffer it was filling, since the failed requests' Sends return next.
func (mc *muxConn) fail(cause error) {
	mc.mu.Lock()
	if !mc.broken {
		mc.broken = true
		mc.cause = cause
	}
	pend := mc.pending
	mc.pending = make(map[uint64]muxPending)
	mc.mu.Unlock()
	mc.once.Do(func() { close(mc.done) })
	_ = mc.conn.Close() // the failure cause is what gets reported
	// The close has unblocked the reader's read; wait until it holds no
	// claimed buffer (it cannot claim another: pending is empty for good).
	mc.mu.Lock()
	for mc.filling != 0 {
		mc.fillIdle.Wait()
	}
	mc.mu.Unlock()
	err := fmt.Errorf("%w: %v", ErrConnBroken, cause)
	for _, p := range pend {
		p.ch <- muxResult{err: err}
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
	mc.pending[reqID] = muxPending{ch: ch, into: req.RecvInto}
	mc.mu.Unlock()

	// The writer holds the payload from here until the frame is written: it
	// may still be writing when this call returns. A frame left queued on a
	// connection that failed keeps its hold, and the GC its memory.
	w := muxWrite{reqID: reqID, m: req, buf: req.Buf.Hold()}
	select {
	case mc.writeCh <- w:
	case <-mc.done:
		w.buf.Release()
		mc.forget(reqID)
		return nil, mc.brokenErr()
	case <-ctx.Done():
		w.buf.Release()
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
