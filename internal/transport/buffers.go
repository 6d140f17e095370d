package transport

import (
	"sync"
	"sync/atomic"
)

// Size-class recycling for frame buffers. Both hot paths of the TCP fabric
// run through here: the send side borrows a scratch buffer for the frame
// header plus wire metadata (the Data payload itself is written straight
// from the caller's slice), and the receive side reads whole frames into a
// buffer from getBuf before decoding.
//
// The ownership rule: getBuf hands out a buffer the caller owns
// exclusively and putBuf takes it back, after which the caller holds no
// reference. readFramePooled returns its buffer itself UNLESS the decoded
// message aliases it (Decode with AliasData, for large Data). An aliased
// buffer belongs to its Message and the GC and is never recycled: the
// server stores req.Data by reference for as long as the object lives, and
// a recycled backing array would corrupt staged data.
//
// Only frames up to class1 are pooled: control/metadata frames and 64 KiB
// transfer pieces. Anything larger is a bulk payload (a put, a replica or
// shard push, a get response) that alias-decodes into the buffer and never
// comes back. Such frames get an allocation of exactly the frame's size
// (counted as a miss): rounding up to a size class would zero, and then pin
// for the life of the stored object, up to twice the bytes the payload
// needs.

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
// recycled buffers, misses are fresh allocations (first use, frames above
// class1, and buffers lost to alias-decoded messages). The counters are
// process-global because the pools are.
func BufferPoolStats() (hits, misses int64) {
	return bufPoolHits.Load(), bufPoolMisses.Load()
}
