package transport

import (
	"encoding/binary"
	"fmt"

	"corec/internal/geometry"
	"corec/internal/types"
)

// The wire format is a hand-rolled little-endian binary encoding. Strings
// and byte slices are length-prefixed with uint32; optional sub-records
// (Meta, StripeInfo, a record's Layout) carry a one-byte presence flag. It
// exists so the TCP fabric has a stable, allocation-conscious codec without
// reflection (encoding/gob) or external schema tooling.
//
// Encode/Decode are self-contained: Data travels inline, length-prefixed
// like any other field. A TCP frame (tcp.go) runs the same field walk with
// Data elided — the payload is a frame segment of its own, written from and
// read into the memory it lives in — so its meta segment is exactly
// Encode's output less the Data field. Decode never keeps a reference to
// its input: a frame's pooled meta buffer always goes back to the pool.

const maxWireLen = 1 << 30 // sanity bound on any length prefix

type encoder struct {
	buf []byte
	// noData elides the Data field (see elideData).
	noData bool
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

func (e *encoder) bytes(b []byte) {
	e.u32(uint32(len(b)))
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
	e.bool(m.Layout != nil)
	if m.Layout != nil {
		e.stripeInfo(m.Layout)
	}
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
	}
}

type decoder struct {
	buf []byte
	off int
	err error
	// noData: the input was encoded with the Data field elided.
	noData bool
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

func (d *decoder) bytes() []byte {
	n := d.u32()
	if d.err != nil || n > maxWireLen || d.off+int(n) > len(d.buf) {
		d.fail("bytes")
		return nil
	}
	if n == 0 {
		return nil
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
	if d.bool() {
		m.Layout = d.stripeInfo()
	}
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
	}
	return s
}

// EncodeOpt tunes one Encode call. Options exist so the framing layer can
// reuse the single canonical field walk below instead of keeping a
// drift-prone duplicate of it.
type EncodeOpt func(*encoder)

// elideData makes Encode skip the Data field altogether: the frame writer
// sends the payload as its own segment, straight from the caller's slice.
func elideData(e *encoder) { e.noData = true }

// DecodeOpt tunes one Decode call.
type DecodeOpt func(*decoder)

// elidedData makes Decode expect input encoded with elideData; Data stays
// nil for the frame reader to attach.
func elidedData(d *decoder) { d.noData = true }

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
	if !e.noData {
		e.bytes(m.Data)
	}
	e.str(m.Key)
	e.i64(int64(m.Stripe.Group))
	e.u64(m.Stripe.Seq)
	e.i64(int64(m.ShardIndex))
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
	e.bool(m.Flag)
	e.i64(m.Num)
	e.u64(m.Sum)
	e.str(m.Err)
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
	if !d.noData {
		m.Data = d.bytes()
	}
	m.Key = d.str()
	m.Stripe.Group = int(d.i64())
	m.Stripe.Seq = d.u64()
	m.ShardIndex = int(d.i64())
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
	return m, nil
}
