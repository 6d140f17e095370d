package transport

import (
	"math/bits"
	"sync"
	"sync/atomic"
)

// Size-class recycling for frame buffers, and the ownership rule of the
// whole fabric in one place.
//
// Header and meta bytes use scratch buffers: the frame writer borrows one
// for them, the frame reader takes the meta segment into one. Whoever calls
// getBuf calls putBuf before it returns, always — the codec copies every
// string out and Data is not in there (wire.go), so nothing ever outlives
// the borrow.
//
// Payloads of at least minPayload bytes that a server's frame reader
// receives land in a Buffer drawn from the payload pool, uncleared, and the
// memory goes back only when its last holder lets go. The holder rule:
//
//   - the request message holds it from the read until its handler returns
//     (TCPServer.serveConn lets go);
//   - a handler that keeps Data past its return — a stored copy, a stored
//     shard — takes a hold of its own (Message.Buf.Hold);
//   - code that reads a stored copy's Data outside the lock that keeps the
//     copy in place takes a hold under that lock and lets go when done;
//   - a response carries one hold of the Buffer its Data lives in, let go by
//     whoever ends up with it: serveConn once the frame is written, the mux
//     writer likewise for a request it writes from the time the request is
//     queued (so a send that returned — timed out, or on a connection that
//     broke — cannot leave the writer reading recycled memory).
//
// A holder that never lets go costs a buffer the GC reclaims, nothing more;
// one that lets go early hands live bytes to the next receive. Race builds
// poison a buffer as it returns to the pool, so such a holder's reader fails
// the payload check instead of passing by luck.
//
// Every other payload lands in an allocation of exactly its size, which
// belongs to the message it arrives in, or — when the request named one — in
// the caller's RecvInto, which the fabric writes only until Send returns
// (the invariant stated at Message.RecvInto, enforced in mux.go). Client
// responses never use the pool: Client.Get returns memory its caller owns.

// The scratch size classes. Each class gets its own pool typed as a pointer
// to a fixed-size array (*[classN]byte) rather than *[]byte: a pointer stores
// directly in an interface word, so getBuf and putBuf are allocation-free
// on the hot path, where boxing a slice header would cost one small heap
// allocation per call — per frame, on both send and receive.
const (
	class0 = 4 << 10
	class1 = 64<<10 + 512
)

var (
	bufPool0 sync.Pool // holds *[class0]byte
	bufPool1 sync.Pool // holds *[class1]byte
)

var (
	bufPoolHits   atomic.Int64
	bufPoolMisses atomic.Int64
)

// getBuf returns a buffer of length n from the smallest class that fits,
// or an allocation of exactly n bytes when n exceeds every class. The
// contents are arbitrary (callers overwrite the full length).
func getBuf(n int) []byte {
	var v any
	switch {
	case n <= class0:
		v = bufPool0.Get()
		if v == nil {
			bufPoolMisses.Add(1)
			return make([]byte, n, class0)
		}
		bufPoolHits.Add(1)
		return v.(*[class0]byte)[:n]
	case n <= class1:
		v = bufPool1.Get()
		if v == nil {
			bufPoolMisses.Add(1)
			return make([]byte, n, class1)
		}
		bufPoolHits.Add(1)
		return v.(*[class1]byte)[:n]
	}
	bufPoolMisses.Add(1)
	return make([]byte, n)
}

// putBuf recycles a buffer previously returned by getBuf. Buffers whose
// capacity matches no class (exact-size allocations, or append-grown slices
// that migrated to a new backing array) are silently dropped to the GC.
// The slice-to-array-pointer conversions are safe because capacity is
// measured from the slice's first element: a cap of classN guarantees
// classN addressable bytes behind the pointer.
func putBuf(b []byte) {
	switch cap(b) {
	case class0:
		bufPool0.Put((*[class0]byte)(b[:class0]))
	case class1:
		bufPool1.Put((*[class1]byte)(b[:class1]))
	}
}

// The payload classes cut every power of two from minPayload up to
// maxFrame into eight steps, so a payload wastes at most an eighth of its
// buffer: a 2 MiB object fills its class exactly, and a third of one — an
// RS(3+1) shard — wastes 3 %.
const (
	minPayloadShift = 16
	minPayload      = 1 << minPayloadShift
	payloadSteps    = 8
	// payloadClasses reaches maxFrame, 1<<30.
	payloadClasses = (30-minPayloadShift)*payloadSteps + 1
)

// payloadPools holds released Buffers by class. A sync.Pool keeps nothing
// across two collections, so what a burst of releases leaves idle goes back
// to the GC; until then it counts as live heap, where garbage would not.
var payloadPools [payloadClasses]sync.Pool // holds *Buffer

// Buffer is pooled payload memory with a count of its holders (see the
// holder rule above). The nil *Buffer is memory the GC owns: holding and
// letting go of it do nothing.
type Buffer struct {
	mem   []byte // the whole class-sized allocation
	class int
	refs  atomic.Int32
}

// payloadClass returns the index and the size of the smallest payload class
// that holds n bytes, minPayload <= n <= maxFrame.
func payloadClass(n int) (index, size int) {
	e := bits.Len(uint(n)) - 1 // 1<<e <= n < 1<<(e+1)
	step := 1 << (e - 3)
	j := (n - 1<<e + step - 1) / step
	if j == payloadSteps {
		e, j, step = e+1, 0, step*2
	}
	return (e-minPayloadShift)*payloadSteps + j, 1<<e + j*step
}

// getPayload returns a Buffer of at least n bytes, n >= minPayload, held
// once by the caller. Its contents are arbitrary: the caller overwrites
// the n it uses.
func getPayload(n int) *Buffer {
	index, size := payloadClass(n)
	b, _ := payloadPools[index].Get().(*Buffer)
	if b == nil {
		bufPoolMisses.Add(1)
		b = &Buffer{mem: make([]byte, size), class: index}
	} else {
		bufPoolHits.Add(1)
	}
	b.refs.Store(1)
	return b
}

// Hold adds a holder and returns b. The caller must already be covered by
// a live hold: one taken on a buffer that has gone back to the pool is a
// bug, and panics.
func (b *Buffer) Hold() *Buffer {
	if b != nil && b.refs.Add(1) <= 1 {
		panic("transport: hold taken on a released payload buffer")
	}
	return b
}

// Release lets go of one hold; the last returns the memory to the pool,
// poisoned first in race builds.
func (b *Buffer) Release() {
	if b == nil {
		return
	}
	switch n := b.refs.Add(-1); {
	case n == 0:
		if raceEnabled {
			poison(b.mem)
		}
		payloadPools[b.class].Put(b)
	case n < 0:
		panic("transport: payload buffer released more often than held")
	}
}

// poisonByte fills a released buffer in race builds.
const poisonByte = 0xDB

func poison(mem []byte) {
	mem[0] = poisonByte
	for n := 1; n < len(mem); n *= 2 {
		copy(mem[n:], mem[:n])
	}
}

// BufferPoolStats reports cumulative pool outcomes, scratch and payload
// buffers together: hits are recycled buffers, misses fresh allocations
// (first use, meta segments above class1, and payload buffers whose class
// had none released). The counters are process-global because the pools
// are.
func BufferPoolStats() (hits, misses int64) {
	return bufPoolHits.Load(), bufPoolMisses.Load()
}
