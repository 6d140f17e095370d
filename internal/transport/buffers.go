package transport

import (
	"sync"
	"sync/atomic"
)

// Size-class recycling for frame buffers, and the ownership rule of the
// whole fabric in one place.
//
// Pooled buffers hold only header and meta bytes: the frame writer borrows
// a scratch buffer for them, the frame reader takes the meta segment into
// one. Whoever calls getBuf calls putBuf before it returns, always — the
// codec copies every string out and Data is not in there (wire.go), so
// nothing ever outlives the borrow.
//
// Payload bytes never touch the pool. A frame writer sends them from the
// caller's slice; a frame reader lands them in an allocation of exactly the
// payload's size, which belongs to the message it returns (a server stores
// req.Data by reference for as long as the object lives) — or, when the
// request named one, in the caller's RecvInto, which the fabric writes only
// until Send returns (the invariant stated at Message.RecvInto, enforced in
// mux.go).

// The size classes. Each class gets its own pool typed as a pointer to a
// fixed-size array (*[classN]byte) rather than *[]byte: a pointer stores
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

// BufferPoolStats reports cumulative frame-buffer pool outcomes: hits are
// recycled buffers, misses are fresh allocations (first use, and meta
// segments above class1). The counters are process-global because the pools
// are.
func BufferPoolStats() (hits, misses int64) {
	return bufPoolHits.Load(), bufPoolMisses.Load()
}
