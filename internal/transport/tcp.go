package transport

import (
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"net"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"corec/internal/types"
)

// The TCP fabric serializes Messages with the wire codec and frames them
// with a 16-byte header: a little-endian payload length, the frame's CRC32
// (IEEE), and a 64-bit request ID that correlates responses with requests
// on multiplexed connections (the baseline one-request-per-connection path
// sends ID 0 and ignores it on responses). The CRC covers the request ID
// and the payload, so every header corruption is detected — a flipped
// length fails the length/stream check, a flipped CRC or ID fails the
// checksum — and turns into the typed, retryable ErrCorruptFrame instead
// of a decode panic or silent garbage. Because the length prefix still
// bounds the frame, the stream stays aligned and the connection survives a
// corrupt frame.

const maxFrame = 1 << 30

// frameHeaderSize is the frame header: uint32 payload length + uint32
// CRC32(request ID || payload) + uint64 request ID.
const frameHeaderSize = 16

// frameCRC chains the frame checksum over the request ID and the logical
// payload segments without concatenating them — the scatter-gather send
// path hands the header+metadata and Data slices separately. id is the
// request ID exactly as framed: the 8 little-endian bytes at header offset
// 8 (taking the already-encoded bytes instead of the uint64 keeps a
// scratch buffer, and its per-call heap escape, off the hot path).
func frameCRC(id []byte, segments ...[]byte) uint32 {
	crc := crc32.Update(0, crc32.IEEETable, id)
	for _, s := range segments {
		crc = crc32.Update(crc, crc32.IEEETable, s)
	}
	return crc
}

// EncodeFrame serializes one message into a self-contained frame:
// length-prefixed, CRC32-protected wire bytes as written to a TCP stream
// (request ID 0, the baseline discipline).
func EncodeFrame(m *Message) []byte { return encodeFrameID(m, 0) }

func encodeFrameID(m *Message, reqID uint64) []byte {
	buf := Encode(m, make([]byte, frameHeaderSize, frameHeaderSize+m.WireSize()))
	payload := buf[frameHeaderSize:]
	binary.LittleEndian.PutUint32(buf[0:4], uint32(len(payload)))
	binary.LittleEndian.PutUint64(buf[8:16], reqID)
	binary.LittleEndian.PutUint32(buf[4:8], frameCRC(buf[8:16], payload))
	return buf
}

// DecodeFrame parses one complete frame produced by EncodeFrame, verifying
// its CRC32 before decoding. A checksum mismatch yields ErrCorruptFrame.
func DecodeFrame(buf []byte) (*Message, error) {
	if len(buf) < frameHeaderSize {
		return nil, fmt.Errorf("transport: frame of %d bytes shorter than header", len(buf))
	}
	n := binary.LittleEndian.Uint32(buf[0:4])
	if n > maxFrame {
		return nil, fmt.Errorf("transport: frame of %d bytes exceeds limit", n)
	}
	if int(n)+frameHeaderSize != len(buf) {
		return nil, fmt.Errorf("transport: frame length %d does not match %d buffered bytes", n, len(buf)-frameHeaderSize)
	}
	payload := buf[frameHeaderSize:]
	if got, want := frameCRC(buf[8:16], payload), binary.LittleEndian.Uint32(buf[4:8]); got != want {
		return nil, fmt.Errorf("%w: checksum %08x, want %08x", ErrCorruptFrame, got, want)
	}
	return Decode(payload)
}

// WriteFrame writes one length-prefixed, CRC32-protected message to w with
// the baseline (seed) discipline: the whole frame, payload included, is
// copied into one freshly allocated buffer. The mux path uses
// writeFrameID's zero-copy scatter-gather instead; this copy-heavy variant
// is retained as the measurable comparison baseline.
func WriteFrame(w io.Writer, m *Message) error {
	_, err := w.Write(EncodeFrame(m))
	return err
}

// writeFrameID writes one frame with scatter-gather I/O: the header and
// wire metadata are encoded into a pooled scratch buffer, the Data payload
// is written straight from the caller's slice (never copied), and the CRC
// is chained across the logical payload segments. On a *net.TCPConn the
// three segments go out as a single writev.
func writeFrameID(w io.Writer, m *Message, reqID uint64) error {
	// WireSize is a close estimate, not a bound (its fixed term undercounts
	// the field prefixes by a few dozen bytes); the slack keeps Encode from
	// outgrowing the pooled scratch and paying a realloc every frame.
	scratchLen := frameHeaderSize + m.WireSize() - len(m.Data) + 64
	scratch := getBuf(scratchLen)
	defer putBuf(scratch)
	var mark int
	buf := Encode(m, scratch[:frameHeaderSize], SplitData(&mark))
	payloadLen := len(buf) - frameHeaderSize + len(m.Data)
	if payloadLen > maxFrame {
		return fmt.Errorf("transport: frame of %d bytes exceeds limit", payloadLen)
	}
	binary.LittleEndian.PutUint32(buf[0:4], uint32(payloadLen))
	binary.LittleEndian.PutUint64(buf[8:16], reqID)
	binary.LittleEndian.PutUint32(buf[4:8], frameCRC(buf[8:16], buf[frameHeaderSize:mark], m.Data, buf[mark:]))
	bufs := net.Buffers{buf[:mark], m.Data, buf[mark:]}
	_, err := bufs.WriteTo(w)
	return err
}

// ReadFrame reads one frame from r, verifying its integrity. Corruption
// surfaces as ErrCorruptFrame with the stream still aligned on the next
// frame boundary (the length prefix was honoured). Like WriteFrame this is
// the baseline allocate-per-frame variant; the mux and pipelined-server
// paths use readFramePooled.
func ReadFrame(r io.Reader) (*Message, error) {
	var hdr [frameHeaderSize]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return nil, err
	}
	n := binary.LittleEndian.Uint32(hdr[0:4])
	if n > maxFrame {
		return nil, fmt.Errorf("transport: frame of %d bytes exceeds limit", n)
	}
	buf := make([]byte, n)
	if _, err := io.ReadFull(r, buf); err != nil {
		return nil, err
	}
	if got, want := frameCRC(hdr[8:16], buf), binary.LittleEndian.Uint32(hdr[4:8]); got != want {
		return nil, fmt.Errorf("%w: checksum %08x, want %08x", ErrCorruptFrame, got, want)
	}
	return Decode(buf)
}

// readFramePooled reads one frame into a pooled buffer and decodes it with
// Data aliasing. The pooled buffer is recycled here unless the decoded
// message aliases it, in which case ownership transfers to the Message
// (see buffers.go for the full ownership rules).
//
// The request ID is returned even when the frame fails its integrity
// check, so a demultiplexing reader can fail just that request and keep
// the stream: the length prefix was honoured, the stream is realigned, and
// the CRC covered the ID itself, so a corrupt ID cannot silently misroute
// a healthy frame.
// hdr is caller-provided scratch of at least frameHeaderSize bytes; the
// per-connection read loops allocate it once, because a local array here
// would escape into the io.Reader call and cost an allocation per frame.
func readFramePooled(r io.Reader, hdr []byte) (reqID uint64, m *Message, err error) {
	hdr = hdr[:frameHeaderSize]
	if _, err := io.ReadFull(r, hdr); err != nil {
		return 0, nil, err
	}
	n := binary.LittleEndian.Uint32(hdr[0:4])
	reqID = binary.LittleEndian.Uint64(hdr[8:16])
	if n > maxFrame {
		return reqID, nil, fmt.Errorf("transport: frame of %d bytes exceeds limit", n)
	}
	buf := getBuf(int(n))
	if _, err := io.ReadFull(r, buf); err != nil {
		putBuf(buf)
		return reqID, nil, err
	}
	if got, want := frameCRC(hdr[8:16], buf), binary.LittleEndian.Uint32(hdr[4:8]); got != want {
		putBuf(buf)
		return reqID, nil, fmt.Errorf("%w: checksum %08x, want %08x", ErrCorruptFrame, got, want)
	}
	m, err = Decode(buf, AliasData())
	if err != nil {
		putBuf(buf)
		return reqID, nil, err
	}
	if !m.Aliased() {
		putBuf(buf)
	}
	return reqID, m, nil
}

// maxConnHandlers bounds concurrently executing handlers per pipelined
// connection, backpressuring a client that outruns the server.
const maxConnHandlers = 256

// TCPServer serves the staging protocol on a TCP listener, dispatching each
// request to a Handler. One reader goroutine per connection. In pipelined
// mode requests are decoded from pooled frame buffers and dispatched to
// concurrent handler goroutines, with responses echoing the request ID so
// a multiplexing client can interleave many requests on one stream; in
// baseline mode requests are served sequentially with the seed's
// allocate-and-copy framing, preserving the original one-request-per-
// connection stack as the benchmark comparison point.
type TCPServer struct {
	handler   Handler
	listener  net.Listener
	pipelined bool

	mu     sync.Mutex
	conns  map[net.Conn]struct{}
	closed bool
	wg     sync.WaitGroup
}

// NewTCPServer listens on addr (e.g. "127.0.0.1:0") and serves requests
// with h until Close, in pipelined mode.
func NewTCPServer(addr string, h Handler) (*TCPServer, error) {
	return newTCPServerMode(addr, h, true)
}

// NewTCPServerBaseline is NewTCPServer with the seed's sequential
// one-request-at-a-time connection loop — the retained comparison baseline
// (a TCPNetwork with multiplexing disabled registers its servers this way
// so the baseline measures the original stack end to end).
func NewTCPServerBaseline(addr string, h Handler) (*TCPServer, error) {
	return newTCPServerMode(addr, h, false)
}

func newTCPServerMode(addr string, h Handler, pipelined bool) (*TCPServer, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, err
	}
	s := &TCPServer{handler: h, listener: ln, pipelined: pipelined, conns: make(map[net.Conn]struct{})}
	s.wg.Add(1)
	go s.acceptLoop()
	return s, nil
}

// Addr returns the bound listen address.
func (s *TCPServer) Addr() string { return s.listener.Addr().String() }

func (s *TCPServer) acceptLoop() {
	defer s.wg.Done()
	for {
		conn, err := s.listener.Accept()
		if err != nil {
			return // listener closed
		}
		s.mu.Lock()
		if s.closed {
			s.mu.Unlock()
			_ = conn.Close() // raced with Close; connection was never served
			return
		}
		s.conns[conn] = struct{}{}
		s.mu.Unlock()
		s.wg.Add(1)
		go s.serveConn(conn)
	}
}

func (s *TCPServer) serveConn(conn net.Conn) {
	defer s.wg.Done()
	defer func() {
		_ = conn.Close() // nothing to flush on a request/response stream
		s.mu.Lock()
		delete(s.conns, conn)
		s.mu.Unlock()
	}()
	if !s.pipelined {
		s.serveConnBaseline(conn)
		return
	}
	// Pipelined loop: frames are read into pooled buffers, each request
	// runs in its own handler goroutine, and responses are serialized onto
	// the stream under wmu carrying the request's ID. A corrupt request
	// frame fails only that request — the length prefix held, so the
	// stream is realigned and the retryable error is routed back under the
	// recovered ID.
	var wmu sync.Mutex
	sem := make(chan struct{}, maxConnHandlers)
	hdr := make([]byte, frameHeaderSize)
	for {
		reqID, req, err := readFramePooled(conn, hdr)
		if err != nil {
			if errors.Is(err, ErrCorruptFrame) {
				resp := Errf("%v", err)
				resp.Flag = true // retryable: the client should resend
				wmu.Lock()
				werr := writeFrameID(conn, resp, reqID)
				wmu.Unlock()
				if werr == nil {
					continue
				}
			}
			return
		}
		sem <- struct{}{}
		s.wg.Add(1)
		go func(reqID uint64, req *Message) {
			defer s.wg.Done()
			defer func() { <-sem }()
			resp := s.handler(context.Background(), req)
			if resp == nil {
				resp = Ok()
			}
			wmu.Lock()
			err := writeFrameID(conn, resp, reqID)
			wmu.Unlock()
			if err != nil {
				// The stream may hold a partial frame; tearing the
				// connection down is the only safe realignment. The reader
				// loop unblocks on the close.
				_ = conn.Close() // write failed; the conn is already broken
			}
		}(reqID, req)
	}
}

// serveConnBaseline is the seed's sequential connection loop: one frame
// read (allocate + copy), one handler call, one response write per
// iteration, request IDs fixed at 0.
func (s *TCPServer) serveConnBaseline(conn net.Conn) {
	for {
		req, err := ReadFrame(conn)
		if err != nil {
			if errors.Is(err, ErrCorruptFrame) {
				// The frame boundary held (length prefix was valid), so the
				// stream is still aligned: report the corruption as a
				// retryable error and keep the connection.
				resp := Errf("%v", err)
				resp.Flag = true // retryable: the client should resend
				if WriteFrame(conn, resp) == nil {
					continue
				}
			}
			return
		}
		resp := s.handler(context.Background(), req)
		if resp == nil {
			resp = Ok()
		}
		if err := WriteFrame(conn, resp); err != nil {
			return
		}
	}
}

// Close stops accepting and tears down all connections.
func (s *TCPServer) Close() error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil
	}
	s.closed = true
	err := s.listener.Close()
	for c := range s.conns {
		_ = c.Close() // serveConn exits on the closed conn; listener error is the one reported
	}
	s.mu.Unlock()
	s.wg.Wait()
	return err
}

// TCPNetwork implements Network over TCP: a directory maps server IDs to
// addresses, and a small per-destination connection pool amortizes dials.
// Register/Unregister manage locally hosted servers (each gets its own
// TCPServer).
type TCPNetwork struct {
	mu      sync.Mutex
	addrs   map[types.ServerID]string
	servers map[types.ServerID]*TCPServer
	pool    map[types.ServerID][]net.Conn
	// listenAddr is the host/interface used for locally hosted servers.
	listenAddr string
	// portBase, when > 0, pins server id's listener to port portBase+id
	// instead of an ephemeral port, so the processes of a multi-host fleet
	// can compute each other's addresses without a coordination round.
	portBase int
	// redials counts requests salvaged by redialing after a pooled
	// connection turned out to be stale (server restarted under its ID).
	redials atomic.Int64
	// health remembers which peers a retried send found unreachable (see
	// PeerHealth); Register re-admits the ID it brings up.
	health PeerHealth

	// Multiplexing state (see mux.go). muxConns == 0 keeps the baseline
	// one-request-per-connection discipline; > 0 routes Send over muxConns
	// shared pipelined connections per peer, each with a bounded in-flight
	// window of maxInFlight requests.
	muxConns    int
	maxInFlight int
	muxMu       sync.Mutex
	muxes       map[types.ServerID]*muxSet
	// muxRedials counts requests salvaged by replacing a broken mux
	// connection (the mux analogue of redials); inflight is the current
	// number of requests in mux flight, reqSeq issues correlation IDs.
	muxRedials atomic.Int64
	inflight   atomic.Int64
	reqSeq     atomic.Uint64
}

var _ Network = (*TCPNetwork)(nil)

// NewTCPNetwork creates a TCP fabric whose locally registered servers bind
// to listenHost (e.g. "127.0.0.1"), with multiplexing disabled (the
// baseline one-request-per-connection discipline).
func NewTCPNetwork(listenHost string) *TCPNetwork {
	return &TCPNetwork{
		addrs:      make(map[types.ServerID]string),
		servers:    make(map[types.ServerID]*TCPServer),
		pool:       make(map[types.ServerID][]net.Conn),
		muxes:      make(map[types.ServerID]*muxSet),
		listenAddr: listenHost,
	}
}

// ConfigureMux enables request multiplexing: conns pipelined connections
// per peer, each with a bounded window of maxInFlight concurrent requests
// (0 resolves to DefaultMaxInFlight). conns <= 0 keeps the baseline
// discipline. Configure before the first Send; servers registered
// afterwards serve pipelined connections.
func (n *TCPNetwork) ConfigureMux(conns, maxInFlight int) {
	if conns < 0 {
		conns = 0
	}
	if maxInFlight <= 0 {
		maxInFlight = DefaultMaxInFlight
	}
	n.muxMu.Lock()
	n.muxConns = conns
	n.maxInFlight = maxInFlight
	n.muxMu.Unlock()
}

// muxEnabled reports whether Send routes over multiplexed connections.
func (n *TCPNetwork) muxEnabled() bool {
	n.muxMu.Lock()
	defer n.muxMu.Unlock()
	return n.muxConns > 0
}

// MuxConfig returns the multiplexing knobs in effect: connections per peer
// (0 = baseline discipline) and the per-connection in-flight window.
func (n *TCPNetwork) MuxConfig() (conns, maxInFlight int) {
	n.muxMu.Lock()
	defer n.muxMu.Unlock()
	return n.muxConns, n.maxInFlight
}

// SetPortBase pins locally registered servers to deterministic ports:
// server id listens on listenAddr:base+id. base <= 0 restores ephemeral
// ports. Configure before the first Register.
func (n *TCPNetwork) SetPortBase(base int) {
	n.mu.Lock()
	n.portBase = base
	n.mu.Unlock()
}

// listenPort returns the port string server id should bind.
func (n *TCPNetwork) listenPort(id types.ServerID) string {
	n.mu.Lock()
	defer n.mu.Unlock()
	if n.portBase > 0 {
		return strconv.Itoa(n.portBase + int(id))
	}
	return "0"
}

// Register implements Network: it spins up a TCP server for the handler on
// an ephemeral port (or portBase+id when a port base is set) and records
// its address. The server mode follows the fabric's discipline: pipelined
// when multiplexing is enabled, the seed's sequential loop otherwise (so a
// baseline fabric measures the original stack end to end).
func (n *TCPNetwork) Register(id types.ServerID, h Handler) {
	srv, err := newTCPServerMode(net.JoinHostPort(n.listenAddr, n.listenPort(id)), h, n.muxEnabled())
	if err != nil {
		// Registration has no error path in the interface; fail loudly.
		panic(fmt.Sprintf("transport: cannot listen for server %d: %v", id, err))
	}
	n.mu.Lock()
	if old, ok := n.servers[id]; ok {
		_ = old.Close() // replaced server; its listener error has no consumer
	}
	n.servers[id] = srv
	n.addrs[id] = srv.Addr()
	n.dropPoolLocked(id)
	n.mu.Unlock()
	n.dropMux(id)
	n.health.Admit(id)
}

// PeerHealth returns the fabric's peer-health table (see RetryPolicy.Send).
func (n *TCPNetwork) PeerHealth() *PeerHealth { return &n.health }

// Addr returns the known address for a server, if any.
func (n *TCPNetwork) Addr(id types.ServerID) (string, bool) {
	n.mu.Lock()
	defer n.mu.Unlock()
	addr, ok := n.addrs[id]
	return addr, ok
}

// Registered reports whether the fabric knows an address for the server.
func (n *TCPNetwork) Registered(id types.ServerID) bool {
	n.mu.Lock()
	defer n.mu.Unlock()
	_, ok := n.addrs[id]
	return ok
}

// AddRemote records the address of a server hosted elsewhere.
func (n *TCPNetwork) AddRemote(id types.ServerID, addr string) {
	n.mu.Lock()
	n.addrs[id] = addr
	n.dropPoolLocked(id)
	n.mu.Unlock()
	n.dropMux(id)
}

// Unregister implements Network.
func (n *TCPNetwork) Unregister(id types.ServerID) {
	n.mu.Lock()
	srv := n.servers[id]
	delete(n.servers, id)
	delete(n.addrs, id)
	n.dropPoolLocked(id)
	n.mu.Unlock()
	n.dropMux(id)
	if srv != nil {
		_ = srv.Close() // unregistering; the server is gone either way
	}
}

func (n *TCPNetwork) dropPoolLocked(id types.ServerID) {
	for _, c := range n.pool[id] {
		_ = c.Close() // idle pooled conns; nothing in flight
	}
	delete(n.pool, id)
}

// getConn returns a connection to the destination, preferring the pool.
// pooled reports whether the connection was reused: a pooled connection may
// be stale (its server restarted under the same ID), so the caller redials
// once when the first exchange on it fails.
func (n *TCPNetwork) getConn(to types.ServerID) (c net.Conn, pooled bool, err error) {
	n.mu.Lock()
	if _, ok := n.addrs[to]; !ok {
		n.mu.Unlock()
		return nil, false, ErrUnreachable
	}
	if conns := n.pool[to]; len(conns) > 0 {
		c := conns[len(conns)-1]
		n.pool[to] = conns[:len(conns)-1]
		n.mu.Unlock()
		return c, true, nil
	}
	n.mu.Unlock()
	c, err = n.dial(to)
	return c, false, err
}

// dial opens a fresh connection to the destination's current address.
func (n *TCPNetwork) dial(to types.ServerID) (net.Conn, error) {
	n.mu.Lock()
	addr, ok := n.addrs[to]
	n.mu.Unlock()
	if !ok {
		return nil, ErrUnreachable
	}
	c, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrUnreachable, err)
	}
	return c, nil
}

func (n *TCPNetwork) putConn(to types.ServerID, c net.Conn) {
	n.mu.Lock()
	defer n.mu.Unlock()
	if _, ok := n.addrs[to]; !ok || len(n.pool[to]) >= 8 {
		_ = c.Close() // pool full or destination gone; drop the spare conn
		return
	}
	n.pool[to] = append(n.pool[to], c)
}

// Send implements Network. With multiplexing enabled the request rides a
// shared pipelined connection (see mux.go). On the baseline path a request
// that fails on a pooled connection is retried once on a freshly dialed
// one: the pooled connection may simply be stale because its server
// restarted under the same ID, and that salvage must not surface as a
// request failure.
func (n *TCPNetwork) Send(ctx context.Context, from, to types.ServerID, req *Message) (*Message, error) {
	if n.muxEnabled() {
		return n.sendMux(ctx, from, to, req)
	}
	conn, pooled, err := n.getConn(to)
	if err != nil {
		return nil, err
	}
	req.From = from
	resp, err := n.exchange(ctx, conn, to, req)
	if err == nil {
		return resp, nil
	}
	if !pooled || errors.Is(err, ErrCorruptFrame) {
		// Fresh dials and integrity failures are genuine; only staleness of
		// a reused connection warrants the silent redial.
		return nil, err
	}
	n.redials.Add(1)
	conn, err = n.dial(to)
	if err != nil {
		return nil, err
	}
	return n.exchange(ctx, conn, to, req)
}

// exchange runs one request/response on the connection, returning it to the
// pool on success and closing it on failure.
func (n *TCPNetwork) exchange(ctx context.Context, conn net.Conn, to types.ServerID, req *Message) (*Message, error) {
	// A failed SetDeadline means the conn is already dead; the exchange
	// below fails and reports it.
	if dl, ok := ctx.Deadline(); ok {
		_ = conn.SetDeadline(dl)
	} else {
		_ = conn.SetDeadline(time.Time{})
	}
	resp, err := n.send(conn, req)
	if err != nil {
		_ = conn.Close() // exchange failed; the request error is the one reported
		return nil, err
	}
	n.putConn(to, conn)
	return resp, nil
}

// Redials returns how many requests were salvaged by redialing after a
// stale pooled connection failed.
func (n *TCPNetwork) Redials() int64 { return n.redials.Load() }

// MuxRedials returns how many requests were salvaged by replacing a broken
// multiplexed connection.
func (n *TCPNetwork) MuxRedials() int64 { return n.muxRedials.Load() }

// InFlight returns the current number of requests in mux flight (the
// in-flight depth gauge surfaced by FabricStatus).
func (n *TCPNetwork) InFlight() int64 { return n.inflight.Load() }

func (n *TCPNetwork) send(conn net.Conn, req *Message) (*Message, error) {
	if err := WriteFrame(conn, req); err != nil {
		return nil, err
	}
	return ReadFrame(conn)
}

// Close tears down all hosted servers, pooled and multiplexed connections.
func (n *TCPNetwork) Close() {
	n.mu.Lock()
	servers := make([]*TCPServer, 0, len(n.servers))
	for _, s := range n.servers {
		servers = append(servers, s)
	}
	n.servers = make(map[types.ServerID]*TCPServer)
	for id := range n.pool {
		n.dropPoolLocked(id)
	}
	n.addrs = make(map[types.ServerID]string)
	n.mu.Unlock()
	n.dropAllMux()
	for _, s := range servers {
		_ = s.Close() // fabric teardown; listener errors have no consumer
	}
}
