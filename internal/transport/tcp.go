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

	"corec/internal/types"
)

// The TCP fabric serializes Messages with the wire codec and frames them
// with a 16-byte header: a little-endian payload length, the frame's CRC32
// (IEEE), and a 64-bit request ID that correlates responses with requests
// on the multiplexed connections of mux.go. The CRC covers the request ID
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
// length-prefixed, CRC32-protected wire bytes as written to a TCP stream,
// under request ID 0. It is the allocate-and-copy reference that
// writeFrameID is tested against, and the frame FaultyNetwork corrupts.
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

// readFramePooled reads one frame into a buffer from getBuf and decodes it
// with Data aliasing. The buffer is recycled here unless the decoded
// message aliases it, in which case it belongs to the Message and the GC
// (see buffers.go for the ownership rule).
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

// maxConnHandlers bounds concurrently executing handlers per connection,
// backpressuring a client that outruns the server.
const maxConnHandlers = 256

// TCPServer serves the staging protocol on a TCP listener, dispatching each
// request to a Handler. One reader goroutine per connection decodes
// requests from pooled frame buffers and hands each to its own handler
// goroutine; responses echo the request ID, so a multiplexing client can
// interleave many requests on one stream.
type TCPServer struct {
	handler  Handler
	listener net.Listener

	mu     sync.Mutex
	conns  map[net.Conn]struct{}
	closed bool
	wg     sync.WaitGroup
}

// NewTCPServer listens on addr (e.g. "127.0.0.1:0") and serves requests
// with h until Close.
func NewTCPServer(addr string, h Handler) (*TCPServer, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, err
	}
	s := &TCPServer{handler: h, listener: ln, conns: make(map[net.Conn]struct{})}
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

// serveConn is the per-connection loop: frames are read into pooled
// buffers, each request runs in its own handler goroutine, and responses
// are serialized onto the stream under wmu carrying the request's ID. A
// corrupt request frame fails only that request — the length prefix held,
// so the stream is realigned and the retryable error is routed back under
// the recovered ID.
func (s *TCPServer) serveConn(conn net.Conn) {
	defer s.wg.Done()
	defer func() {
		_ = conn.Close() // nothing to flush on a request/response stream
		s.mu.Lock()
		delete(s.conns, conn)
		s.mu.Unlock()
	}()
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
// addresses, and every Send rides one of a small fixed set of multiplexed
// connections per peer (see mux.go). Register/Unregister manage locally
// hosted servers (each gets its own TCPServer).
type TCPNetwork struct {
	mu      sync.Mutex
	addrs   map[types.ServerID]string
	servers map[types.ServerID]*TCPServer
	// listenAddr is the host/interface used for locally hosted servers.
	listenAddr string
	// portBase, when > 0, pins server id's listener to port portBase+id
	// instead of an ephemeral port, so the processes of a multi-host fleet
	// can compute each other's addresses without a coordination round.
	portBase int
	// health remembers which peers a retried send found unreachable (see
	// PeerHealth); Register re-admits the ID it brings up.
	health PeerHealth

	// Multiplexing state (see mux.go): Send routes over muxConns shared
	// connections per peer, each with a bounded in-flight window of
	// maxInFlight requests. Both are sizing only — a client and a server
	// configured differently still interoperate.
	muxConns    int
	maxInFlight int
	muxMu       sync.Mutex
	muxes       map[types.ServerID]*muxSet
	// muxRedials counts requests salvaged by replacing a broken mux
	// connection; inflight is the current number of requests in flight,
	// reqSeq issues correlation IDs.
	muxRedials atomic.Int64
	inflight   atomic.Int64
	reqSeq     atomic.Uint64
}

var _ Network = (*TCPNetwork)(nil)

// NewTCPNetwork creates a TCP fabric whose locally registered servers bind
// to listenHost (e.g. "127.0.0.1"), sized with DefaultMuxConns connections
// per peer and a DefaultMaxInFlight window.
func NewTCPNetwork(listenHost string) *TCPNetwork {
	return &TCPNetwork{
		addrs:       make(map[types.ServerID]string),
		servers:     make(map[types.ServerID]*TCPServer),
		muxes:       make(map[types.ServerID]*muxSet),
		listenAddr:  listenHost,
		muxConns:    DefaultMuxConns,
		maxInFlight: DefaultMaxInFlight,
	}
}

// ConfigureMux sizes the fabric: conns connections per peer, each with a
// bounded window of maxInFlight concurrent requests. A value <= 0 resolves
// to DefaultMuxConns / DefaultMaxInFlight. Configure before the first Send.
func (n *TCPNetwork) ConfigureMux(conns, maxInFlight int) {
	if conns <= 0 {
		conns = DefaultMuxConns
	}
	if maxInFlight <= 0 {
		maxInFlight = DefaultMaxInFlight
	}
	n.muxMu.Lock()
	n.muxConns = conns
	n.maxInFlight = maxInFlight
	n.muxMu.Unlock()
}

// MuxConfig returns the sizing in effect: connections per peer and the
// per-connection in-flight window.
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
// its address.
func (n *TCPNetwork) Register(id types.ServerID, h Handler) {
	srv, err := NewTCPServer(net.JoinHostPort(n.listenAddr, n.listenPort(id)), h)
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
	n.mu.Unlock()
	n.dropMux(id)
}

// Unregister implements Network.
func (n *TCPNetwork) Unregister(id types.ServerID) {
	n.mu.Lock()
	srv := n.servers[id]
	delete(n.servers, id)
	delete(n.addrs, id)
	n.mu.Unlock()
	n.dropMux(id)
	if srv != nil {
		_ = srv.Close() // unregistering; the server is gone either way
	}
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

// MuxRedials returns how many requests were salvaged by replacing a broken
// multiplexed connection.
func (n *TCPNetwork) MuxRedials() int64 { return n.muxRedials.Load() }

// InFlight returns the current number of requests in flight (the in-flight
// depth gauge surfaced by FabricStatus).
func (n *TCPNetwork) InFlight() int64 { return n.inflight.Load() }

// Close tears down all hosted servers and multiplexed connections.
func (n *TCPNetwork) Close() {
	n.mu.Lock()
	servers := make([]*TCPServer, 0, len(n.servers))
	for _, s := range n.servers {
		servers = append(servers, s)
	}
	n.servers = make(map[types.ServerID]*TCPServer)
	n.addrs = make(map[types.ServerID]string)
	n.mu.Unlock()
	n.dropAllMux()
	for _, s := range servers {
		_ = s.Close() // fabric teardown; listener errors have no consumer
	}
}
