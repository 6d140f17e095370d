package transport

import (
	"bufio"
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net"
	"strconv"
	"sync"
	"sync/atomic"

	"corec/internal/scrub"
	"corec/internal/types"
)

// The TCP fabric frames every Message as a fixed header and two segments:
//
//	offset  size  field
//	0       4     meta length     uint32 LE
//	4       4     payload length  uint32 LE
//	8       8     request ID      uint64 LE, correlates responses on mux.go's connections
//	16      4     payload check   CRC-32C of the payload segment (0 when it is empty)
//	20      4     meta check      CRC-32C of the meta segment
//	24      4     header check    CRC-32C of bytes 0..23
//	28      ml    meta segment    Encode's field walk with Data elided
//	28+ml   pl    payload segment Message.Data, byte for byte
//
// The reader verifies the header check before it believes anything else:
// until it has, neither length sizes an allocation and the request ID names
// no buffer, so a damaged length cannot make a reader reserve a gigabyte and
// wait for bytes that never come. A header that fails it leaves the stream
// unframed and costs the connection (errCorruptHeader; the mux salvages the
// requests in flight on a fresh one). Damage to either segment is bounded
// by the authenticated lengths: the stream stays aligned and only that
// request fails, with the typed, retryable ErrCorruptFrame.
//
// The payload is a segment of its own so that it can be written from, and
// read into, the memory it lives in. Its check is CRC-32C because that is
// the high word of the at-rest digest (scrub.Checksum): a sender that holds
// the digest attaches it and makes no pass over the bytes
// (Message.AttachDigest), and the receiver takes the check over each chunk
// right after the read that filled it. A server's frame reader takes the
// IEEE half in the same pass, so the message arrives with the whole digest
// of the bytes it delivered (Message.VerifiedDigest) and a server that
// stores them reads them no more.

const maxFrame = 1 << 30

// frameHeaderSize is the fixed header above.
const frameHeaderSize = 28

// errCorruptHeader reports a frame whose fixed header failed its own check:
// the lengths cannot be trusted, so the stream cannot be realigned.
var errCorruptHeader = fmt.Errorf("%w: header check failed", ErrCorruptFrame)

// segmentCorrupt reports damage confined to a frame's meta or payload
// segment: the request ID is authentic and the stream aligned on the next
// frame.
func segmentCorrupt(err error) bool {
	return errors.Is(err, ErrCorruptFrame) && !errors.Is(err, errCorruptHeader)
}

// Cumulative payload-check outcomes, process-global like the buffer pools.
var payloadChecksComputed, payloadChecksAttached, payloadChecksVerified, payloadDigests atomic.Int64

// PayloadChecks reports how the frames of this process came by their
// payload checks.
type PayloadChecks struct {
	// Computed counts sends that made a CRC-32C pass over Data, Attached
	// sends that took the check from a digest the sender held
	// (Message.AttachDigest) and made none.
	Computed, Attached int64
	// Verified counts the CRC-32C passes frame readers made over received
	// payloads; Digested those of them, on servers, that took the IEEE half
	// along (Message.VerifiedDigest).
	Verified, Digested int64
}

// PayloadCheckStats returns this process's payload-check counters.
func PayloadCheckStats() PayloadChecks {
	return PayloadChecks{
		Computed: payloadChecksComputed.Load(), Attached: payloadChecksAttached.Load(),
		Verified: payloadChecksVerified.Load(), Digested: payloadDigests.Load(),
	}
}

// payloadCheck returns the check the frame carries for m.Data.
func payloadCheck(m *Message) uint32 {
	switch {
	case len(m.Data) == 0:
		return 0
	case m.src == sumAttached:
		payloadChecksAttached.Add(1)
		return uint32(m.sum >> 32)
	default:
		payloadChecksComputed.Add(1)
		return scrub.CRC32C(0, m.Data)
	}
}

// sealHeader fills the fixed header at the front of buf, whose meta segment
// (buf[frameHeaderSize:]) is already encoded.
func sealHeader(buf []byte, m *Message, reqID uint64) {
	binary.LittleEndian.PutUint32(buf[0:4], uint32(len(buf)-frameHeaderSize))
	binary.LittleEndian.PutUint32(buf[4:8], uint32(len(m.Data)))
	binary.LittleEndian.PutUint64(buf[8:16], reqID)
	binary.LittleEndian.PutUint32(buf[16:20], payloadCheck(m))
	binary.LittleEndian.PutUint32(buf[20:24], scrub.CRC32C(0, buf[frameHeaderSize:]))
	binary.LittleEndian.PutUint32(buf[24:28], scrub.CRC32C(0, buf[:24]))
}

// frameSize rejects a message no frame can carry and returns the exact size
// of its header plus meta segment.
func frameSize(m *Message) (int, error) {
	metaLen := m.WireSize() - m.dataFieldSize()
	if metaLen > maxFrame || len(m.Data) > maxFrame {
		return 0, fmt.Errorf("transport: frame of %d+%d bytes exceeds limit", metaLen, len(m.Data))
	}
	return frameHeaderSize + metaLen, nil
}

// EncodeFrame serializes one message into a self-contained frame, exactly
// the bytes written to a TCP stream, under request ID 0. It is the
// allocate-and-copy reference that writeFrameID is tested against, and the
// frame FaultyNetwork corrupts.
func EncodeFrame(m *Message) []byte { return encodeFrameID(m, 0) }

func encodeFrameID(m *Message, reqID uint64) []byte {
	buf := Encode(m, make([]byte, frameHeaderSize, frameHeaderSize+m.WireSize()), elideData)
	sealHeader(buf, m, reqID)
	return append(buf, m.Data...)
}

// DecodeFrame parses one complete frame produced by EncodeFrame, verifying
// all three checks before decoding; the payload is copied out. A mismatch
// yields ErrCorruptFrame.
func DecodeFrame(buf []byte) (*Message, error) {
	if len(buf) < frameHeaderSize {
		return nil, fmt.Errorf("transport: frame of %d bytes shorter than header", len(buf))
	}
	if scrub.CRC32C(0, buf[:24]) != binary.LittleEndian.Uint32(buf[24:28]) {
		return nil, errCorruptHeader
	}
	metaLen := binary.LittleEndian.Uint32(buf[0:4])
	dataLen := binary.LittleEndian.Uint32(buf[4:8])
	if metaLen > maxFrame || dataLen > maxFrame {
		return nil, fmt.Errorf("transport: frame of %d+%d bytes exceeds limit", metaLen, dataLen)
	}
	if frameHeaderSize+int(metaLen)+int(dataLen) != len(buf) {
		return nil, fmt.Errorf("transport: frame lengths %d+%d do not match %d buffered bytes", metaLen, dataLen, len(buf)-frameHeaderSize)
	}
	meta, data := buf[frameHeaderSize:frameHeaderSize+int(metaLen)], buf[frameHeaderSize+int(metaLen):]
	if got, want := scrub.CRC32C(0, meta), binary.LittleEndian.Uint32(buf[20:24]); got != want {
		return nil, fmt.Errorf("%w: meta check %08x, want %08x", ErrCorruptFrame, got, want)
	}
	if got, want := scrub.CRC32C(0, data), binary.LittleEndian.Uint32(buf[16:20]); got != want {
		return nil, fmt.Errorf("%w: payload check %08x, want %08x", ErrCorruptFrame, got, want)
	}
	m, err := Decode(meta, elidedData)
	if err != nil {
		return nil, err
	}
	if len(data) > 0 {
		m.Data = append([]byte(nil), data...)
	}
	return m, nil
}

// writeFrameID writes one frame with scatter-gather I/O: header and meta
// segment are encoded into a pooled scratch buffer of exactly their size,
// the payload is written straight from the caller's slice (never copied);
// on a *net.TCPConn the two go out as a single writev.
func writeFrameID(w io.Writer, m *Message, reqID uint64) error {
	n, err := frameSize(m)
	if err != nil {
		return err
	}
	scratch := getBuf(n)
	defer putBuf(scratch)
	buf := Encode(m, scratch[:frameHeaderSize], elideData)
	sealHeader(buf, m, reqID)
	if len(m.Data) == 0 {
		_, err = w.Write(buf)
		return err
	}
	bufs := net.Buffers{buf, m.Data}
	_, err = bufs.WriteTo(w)
	return err
}

// frameReaderBuf sizes a connection's read buffer: a small frame — header,
// meta and a payload of a KiB or so — arrives in one read, several when they
// are pipelined, while a bulk payload larger than the buffer bypasses it
// (bufio reads straight into the destination once its buffer is drained).
const frameReaderBuf = 4 << 10

// frameReader reads frames off one connection.
type frameReader struct {
	br  *bufio.Reader
	hdr [frameHeaderSize]byte
}

func newFrameReader(r io.Reader) *frameReader {
	return &frameReader{br: bufio.NewReaderSize(r, frameReaderBuf)}
}

// payloadSink is how a connection that multiplexes requests places response
// payloads: next asks it, once the header has authenticated the request ID,
// whether anyone still waits for that request and whether they named memory
// for the payload.
type payloadSink interface {
	// claim returns the RecvInto of the pending request, nil when it named
	// none, and wanted == false when no such request is pending (the frame
	// is late, or answers nothing we sent) and the payload is to be skipped.
	// A non-empty into stays claimed until unclaim.
	claim(reqID uint64) (into []byte, wanted bool)
	// unclaim ends a claim: the reader no longer touches the buffer.
	unclaim()
}

// next reads one frame. The meta segment goes through a pooled buffer that
// is back in the pool when next returns; the payload lands in the memory the
// sink names, or in memory that belongs to the returned message: with a nil
// sink (the server side) a pooled Buffer the message holds once when the
// payload is large enough (see buffers.go), an allocation of exactly its
// size otherwise.
//
// On ErrCorruptFrame other than errCorruptHeader the request ID is
// authentic and the stream is aligned on the next frame, so a
// demultiplexing reader fails just that request and carries on.
func (fr *frameReader) next(sink payloadSink) (reqID uint64, m *Message, err error) {
	hdr := fr.hdr[:]
	if _, err := io.ReadFull(fr.br, hdr); err != nil {
		return 0, nil, err
	}
	if scrub.CRC32C(0, hdr[:24]) != binary.LittleEndian.Uint32(hdr[24:28]) {
		return 0, nil, errCorruptHeader
	}
	metaLen := binary.LittleEndian.Uint32(hdr[0:4])
	dataLen := binary.LittleEndian.Uint32(hdr[4:8])
	reqID = binary.LittleEndian.Uint64(hdr[8:16])
	if metaLen > maxFrame || dataLen > maxFrame {
		return reqID, nil, fmt.Errorf("transport: frame of %d+%d bytes exceeds limit", metaLen, dataLen)
	}
	meta := getBuf(int(metaLen))
	defer putBuf(meta)
	if _, err := io.ReadFull(fr.br, meta); err != nil {
		return reqID, nil, err
	}
	if got, want := scrub.CRC32C(0, meta), binary.LittleEndian.Uint32(hdr[20:24]); got != want {
		// Nobody can use the payload of a frame whose meta is damaged: skip
		// it without claiming anyone's memory.
		if err := fr.skip(dataLen); err != nil {
			return reqID, nil, err
		}
		return reqID, nil, fmt.Errorf("%w: meta check %08x, want %08x", ErrCorruptFrame, got, want)
	}
	m, err = Decode(meta, elidedData)
	if err != nil {
		return reqID, nil, err
	}
	if dataLen > 0 {
		want := binary.LittleEndian.Uint32(hdr[16:20])
		if sink == nil {
			err = fr.landPayload(m, int(dataLen), want)
		} else {
			err = fr.payloadInto(sink, reqID, m, int(dataLen), want)
		}
		if err != nil {
			return reqID, nil, err
		}
	}
	return reqID, m, nil
}

// payloadChunk bounds one read of a payload: each chunk is checksummed right
// after the read that filled it, while its bytes are still in cache, instead
// of being read back cold once the whole payload is in.
const payloadChunk = 256 << 10

// landingSum is what a frame reader takes over a payload as it lands: the
// whole digest on a server, which keeps it with the message; elsewhere the
// CRC-32C alone, only to check the payload against the sender's word.
type landingSum struct {
	whole bool
	d     scrub.Digest
	crc   uint32
}

func (ls *landingSum) add(p []byte) {
	if ls.whole {
		ls.d.Write(p)
	} else {
		ls.crc = scrub.CRC32C(ls.crc, p)
	}
}

func (ls *landingSum) crc32c() uint32 {
	if ls.whole {
		return ls.d.CRC32C()
	}
	return ls.crc
}

// read fills p off the stream a chunk at a time, adding each chunk to ls
// right after the read that filled it.
func (fr *frameReader) read(p []byte, ls *landingSum) error {
	for len(p) > 0 {
		n, err := fr.br.Read(p[:min(len(p), payloadChunk)])
		ls.add(p[:n])
		p = p[n:]
		if err != nil && len(p) > 0 {
			if err == io.EOF {
				err = io.ErrUnexpectedEOF
			}
			return err
		}
	}
	return nil
}

// landPayload reads a server's n-byte payload segment into memory of m's
// own, takes its digest on the way in and checks it against want.
func (fr *frameReader) landPayload(m *Message, n int, want uint32) error {
	var buf *Buffer
	var data []byte
	if n >= minPayload {
		buf = getPayload(n)
		data = buf.mem[:n]
	} else {
		data = make([]byte, n)
	}
	ls := landingSum{whole: true}
	err := fr.read(data, &ls)
	if err == nil {
		payloadChecksVerified.Add(1)
		payloadDigests.Add(1)
		if got := ls.crc32c(); got != want {
			err = fmt.Errorf("%w: payload check %08x, want %08x", ErrCorruptFrame, got, want)
		}
	}
	if err != nil {
		buf.Release()
		return err
	}
	m.Data, m.Buf = data, buf
	m.sum, m.src = ls.d.Sum(), digestVerified
	return nil
}

// payloadInto reads an n-byte response payload segment to where the sink
// says it goes and checks it against want. m gets no Data when the sink
// wanted none of it.
func (fr *frameReader) payloadInto(sink payloadSink, reqID uint64, m *Message, n int, want uint32) error {
	into, wanted := sink.claim(reqID)
	if !wanted {
		return fr.skip(uint32(n))
	}
	var data, overflow []byte
	if len(into) == 0 {
		data = make([]byte, n)
	} else {
		defer sink.unclaim()
		data = into[:min(n, len(into))]
		if n > len(data) {
			overflow = make([]byte, n-len(data))
		}
	}
	var ls landingSum
	if err := fr.read(data, &ls); err != nil {
		return err
	}
	if err := fr.read(overflow, &ls); err != nil {
		return err
	}
	payloadChecksVerified.Add(1)
	if got := ls.crc32c(); got != want {
		return fmt.Errorf("%w: payload check %08x, want %08x", ErrCorruptFrame, got, want)
	}
	m.Data, m.Overflow = data, overflow
	return nil
}

// skip consumes n payload bytes nobody will read.
func (fr *frameReader) skip(n uint32) error {
	_, err := io.CopyN(io.Discard, fr.br, int64(n))
	return err
}

// maxConnHandlers bounds concurrently executing handlers per connection,
// backpressuring a client that outruns the server.
const maxConnHandlers = 256

// TCPServer serves the staging protocol on a TCP listener, dispatching each
// request to a Handler. One reader goroutine per connection reads request
// frames and hands each to its own handler goroutine; responses echo the
// request ID, so a multiplexing client can interleave many requests on one
// stream.
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

// serveConn is the per-connection loop: each request runs in its own handler
// goroutine, and responses are serialized onto the stream under wmu carrying
// the request's ID. The request's hold of its payload Buffer ends when the
// handler returns, the response's when its frame is written (buffers.go). A request frame with a damaged segment fails only that
// request — the header held, so the stream is aligned and the retryable
// error is routed back under the authenticated ID; a damaged header ends
// the connection.
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
	fr := newFrameReader(conn)
	for {
		reqID, req, err := fr.next(nil)
		if err != nil {
			if segmentCorrupt(err) {
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
			req.Buf.Release() // a handler that keeps Data took its own hold
			if resp == nil {
				resp = Ok()
			}
			wmu.Lock()
			err := writeFrameID(conn, resp, reqID)
			wmu.Unlock()
			resp.Buf.Release()
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
