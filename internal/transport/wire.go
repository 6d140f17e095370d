package transport

import (
	"encoding/binary"
	"fmt"

	"corec/internal/geometry"
	"corec/internal/types"
)

// The wire format is a hand-rolled little-endian binary encoding. Strings
// and byte slices are length-prefixed with uint32; optional sub-records
// (Meta, StripeInfo) carry a one-byte presence flag. It exists so the TCP
// fabric has a stable, allocation-conscious codec without reflection
// (encoding/gob) or external schema tooling.

const maxWireLen = 1 << 30 // sanity bound on any length prefix

type encoder struct {
	buf []byte
	// splitData, when set, makes bytes() emit only the length prefix and
	// record the payload's insertion point in *dataMark: the caller sends
	// the Data slice itself as a separate scatter-gather segment, so the
	// payload is never copied into the wire buffer.
	splitData bool
	dataMark  *int
}

func (e *encoder) u8(v uint8) { e.buf = append(e.buf, v) }

func (e *encoder) bool(v bool) {
	if v {
		e.u8(1)
	} else {
		e.u8(0)
	}
}

func (e *encoder) u32(v uint32) { e.buf = binary.LittleEndian.AppendUint32(e.buf, v) }
func (e *encoder) u64(v uint64) { e.buf = binary.LittleEndian.AppendUint64(e.buf, v) }
func (e *encoder) i64(v int64)  { e.u64(uint64(v)) }

func (e *encoder) str(s string) {
	e.u32(uint32(len(s)))
	e.buf = append(e.buf, s...)
}

// bytes is only used for the Message.Data payload, which is why the
// split-mode shortcut can assume it runs at most once per message.
func (e *encoder) bytes(b []byte) {
	e.u32(uint32(len(b)))
	if e.splitData {
		*e.dataMark = len(e.buf)
		return
	}
	e.buf = append(e.buf, b...)
}

func (e *encoder) box(b geometry.Box) {
	e.u8(uint8(b.Dims()))
	for _, v := range b.Lo {
		e.i64(v)
	}
	for _, v := range b.Hi {
		e.i64(v)
	}
}

func (e *encoder) meta(m *types.ObjectMeta) {
	e.str(m.ID.Var)
	e.box(m.ID.Box)
	e.i64(int64(m.Version))
	e.u64(m.Seq)
	e.u64(uint64(m.Size))
	e.u8(uint8(m.State))
	e.u64(m.Checksum)
	e.i64(int64(m.Primary))
	e.u32(uint32(len(m.Replicas)))
	for _, r := range m.Replicas {
		e.i64(int64(r))
	}
	e.i64(int64(m.Stripe.Group))
	e.u64(m.Stripe.Seq)
	e.i64(int64(m.ShardIndex))
}

func (e *encoder) stripeInfo(s *types.StripeInfo) {
	e.i64(int64(s.ID.Group))
	e.u64(s.ID.Seq)
	e.u32(uint32(s.K))
	e.u32(uint32(s.M))
	e.u64(uint64(s.ShardSize))
	e.u32(uint32(len(s.Members)))
	for _, m := range s.Members {
		e.i64(int64(m.Server))
		e.u32(uint32(m.Index))
		e.str(m.ObjectKey)
	}
}

type decoder struct {
	buf []byte
	off int
	err error
	// aliasData, when set, lets bytes() return a sub-slice of buf for large
	// payloads instead of copying; aliased records whether it did, because
	// ownership of buf then transfers to the Message.
	aliasData bool
	aliased   bool
}

func (d *decoder) fail(what string) {
	if d.err == nil {
		d.err = fmt.Errorf("transport: truncated or corrupt %s at offset %d", what, d.off)
	}
}

func (d *decoder) u8() uint8 {
	if d.err != nil || d.off+1 > len(d.buf) {
		d.fail("u8")
		return 0
	}
	v := d.buf[d.off]
	d.off++
	return v
}

func (d *decoder) bool() bool { return d.u8() != 0 }

func (d *decoder) u32() uint32 {
	if d.err != nil || d.off+4 > len(d.buf) {
		d.fail("u32")
		return 0
	}
	v := binary.LittleEndian.Uint32(d.buf[d.off:])
	d.off += 4
	return v
}

func (d *decoder) u64() uint64 {
	if d.err != nil || d.off+8 > len(d.buf) {
		d.fail("u64")
		return 0
	}
	v := binary.LittleEndian.Uint64(d.buf[d.off:])
	d.off += 8
	return v
}

func (d *decoder) i64() int64 { return int64(d.u64()) }

func (d *decoder) str() string {
	n := d.u32()
	if d.err != nil || n > maxWireLen || d.off+int(n) > len(d.buf) {
		d.fail("string")
		return ""
	}
	s := string(d.buf[d.off : d.off+int(n)])
	d.off += int(n)
	return s
}

// aliasMinBytes is the smallest Data payload the alias-mode decoder hands
// out as a sub-slice of the frame buffer. Below it the copy is cheaper than
// losing the buffer to the pool; the 4·n ≥ cap guard additionally refuses
// to pin a large pooled buffer for a comparatively small payload.
const aliasMinBytes = 4 << 10

func (d *decoder) bytes() []byte {
	n := d.u32()
	if d.err != nil || n > maxWireLen || d.off+int(n) > len(d.buf) {
		d.fail("bytes")
		return nil
	}
	if n == 0 {
		return nil
	}
	if d.aliasData && int(n) >= aliasMinBytes && 4*int(n) >= cap(d.buf) {
		b := d.buf[d.off : d.off+int(n) : d.off+int(n)]
		d.off += int(n)
		d.aliased = true
		return b
	}
	b := make([]byte, n)
	copy(b, d.buf[d.off:])
	d.off += int(n)
	return b
}

func (d *decoder) box() geometry.Box {
	dims := int(d.u8())
	if dims == 0 {
		return geometry.Box{}
	}
	if dims > geometry.MaxDims {
		d.fail("box dims")
		return geometry.Box{}
	}
	lo := make([]int64, dims)
	hi := make([]int64, dims)
	for i := range lo {
		lo[i] = d.i64()
	}
	for i := range hi {
		hi[i] = d.i64()
	}
	return geometry.Box{Lo: lo, Hi: hi}
}

func (d *decoder) meta() types.ObjectMeta {
	var m types.ObjectMeta
	m.ID.Var = d.str()
	m.ID.Box = d.box()
	m.Version = types.Version(d.i64())
	m.Seq = d.u64()
	m.Size = int(d.u64())
	m.State = types.ResilienceState(d.u8())
	m.Checksum = d.u64()
	m.Primary = types.ServerID(d.i64())
	n := d.u32()
	if n > 1<<20 {
		d.fail("replica count")
		return m
	}
	if n > 0 {
		m.Replicas = make([]types.ServerID, n)
		for i := range m.Replicas {
			m.Replicas[i] = types.ServerID(d.i64())
		}
	}
	m.Stripe.Group = int(d.i64())
	m.Stripe.Seq = d.u64()
	m.ShardIndex = int(d.i64())
	return m
}

func (d *decoder) stripeInfo() *types.StripeInfo {
	s := &types.StripeInfo{}
	s.ID.Group = int(d.i64())
	s.ID.Seq = d.u64()
	s.K = int(d.u32())
	s.M = int(d.u32())
	s.ShardSize = int(d.u64())
	n := d.u32()
	if n > 1<<20 {
		d.fail("stripe member count")
		return s
	}
	s.Members = make([]types.StripeMember, n)
	for i := range s.Members {
		s.Members[i].Server = types.ServerID(d.i64())
		s.Members[i].Index = int(d.u32())
		s.Members[i].ObjectKey = d.str()
	}
	return s
}

// EncodeOpt tunes one Encode call. Options exist so the zero-copy framing
// layer can reuse the single canonical field walk below instead of keeping
// a drift-prone duplicate of it.
type EncodeOpt func(*encoder)

// SplitData makes Encode emit everything except the Data payload bytes:
// the length prefix is written as usual and the payload's insertion offset
// is stored in *mark, so the caller can write buf[:mark], m.Data, buf[mark:]
// as one scatter-gather frame without ever copying the payload.
func SplitData(mark *int) EncodeOpt {
	return func(e *encoder) {
		e.splitData = true
		e.dataMark = mark
	}
}

// DecodeOpt tunes one Decode call.
type DecodeOpt func(*decoder)

// AliasData makes Decode return large Data payloads as sub-slices of buf
// instead of copies. When aliasing happens buf belongs to the Message and
// the buffer must not be reused or recycled by the caller; Aliased reports
// the outcome.
func AliasData() DecodeOpt {
	return func(d *decoder) {
		d.aliasData = true
	}
}

// Aliased reports whether the message's Data aliases the decode buffer
// (ownership of the buffer rests with the message).
func (m *Message) Aliased() bool { return m.aliased }

// Encode serializes the message, appending to dst (which may be nil) and
// returning the extended slice.
func Encode(m *Message, dst []byte, opts ...EncodeOpt) []byte {
	e := encoder{buf: dst}
	for _, o := range opts {
		o(&e)
	}
	e.u8(uint8(m.Kind))
	e.i64(int64(m.From))
	e.str(m.Var)
	e.box(m.Box)
	e.i64(int64(m.Version))
	e.bytes(m.Data)
	e.str(m.Key)
	e.i64(int64(m.Stripe.Group))
	e.u64(m.Stripe.Seq)
	e.i64(int64(m.ShardIndex))
	e.u32(uint32(m.K))
	e.u32(uint32(m.M))
	e.u64(uint64(m.ShardSize))
	e.bool(m.Meta != nil)
	if m.Meta != nil {
		e.meta(m.Meta)
	}
	e.u32(uint32(len(m.Metas)))
	for i := range m.Metas {
		e.meta(&m.Metas[i])
	}
	e.bool(m.StripeInfo != nil)
	if m.StripeInfo != nil {
		e.stripeInfo(m.StripeInfo)
	}
	e.u32(uint32(len(m.Stripes)))
	for i := range m.Stripes {
		e.stripeInfo(&m.Stripes[i])
	}
	e.bool(m.Flag)
	e.i64(m.Num)
	e.u64(m.Sum)
	e.str(m.Err)
	_ = m.aliased // buffer-ownership bookkeeping, deliberately not a wire field
	return e.buf
}

// Decode parses a message previously produced by Encode.
func Decode(buf []byte, opts ...DecodeOpt) (*Message, error) {
	d := decoder{buf: buf}
	for _, o := range opts {
		o(&d)
	}
	m := &Message{}
	k := d.u8()
	if k >= uint8(kindCount) {
		return nil, fmt.Errorf("transport: unknown message kind %d", k)
	}
	m.Kind = Kind(k)
	m.From = types.ServerID(d.i64())
	m.Var = d.str()
	m.Box = d.box()
	m.Version = types.Version(d.i64())
	m.Data = d.bytes()
	m.Key = d.str()
	m.Stripe.Group = int(d.i64())
	m.Stripe.Seq = d.u64()
	m.ShardIndex = int(d.i64())
	m.K = int(d.u32())
	m.M = int(d.u32())
	m.ShardSize = int(d.u64())
	if d.bool() {
		meta := d.meta()
		m.Meta = &meta
	}
	nm := d.u32()
	if nm > 1<<20 {
		return nil, fmt.Errorf("transport: implausible meta count %d", nm)
	}
	if nm > 0 {
		m.Metas = make([]types.ObjectMeta, nm)
		for i := range m.Metas {
			m.Metas[i] = d.meta()
		}
	}
	if d.bool() {
		m.StripeInfo = d.stripeInfo()
	}
	ns := d.u32()
	if ns > 1<<20 {
		return nil, fmt.Errorf("transport: implausible stripe count %d", ns)
	}
	if ns > 0 {
		m.Stripes = make([]types.StripeInfo, ns)
		for i := range m.Stripes {
			m.Stripes[i] = *d.stripeInfo()
		}
	}
	m.Flag = d.bool()
	m.Num = d.i64()
	m.Sum = d.u64()
	m.Err = d.str()
	if d.err != nil {
		return nil, d.err
	}
	if d.off != len(buf) {
		return nil, fmt.Errorf("transport: %d trailing bytes after message", len(buf)-d.off)
	}
	m.aliased = d.aliased
	return m, nil
}
