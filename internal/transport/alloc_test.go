package transport

import (
	"context"
	"io"
	"testing"

	"corec/internal/types"
)

// TestWriteFrameIDAllocsBounded guards the hot send path against allocation
// regressions: with the buffer pool warm, scatter-gather framing of a 1 MiB
// put must stay within a handful of small allocations per frame — the
// payload itself is never copied, and the scratch buffer, sized exactly by
// WireSize, comes from the pool. The allocate-and-copy reference
// (EncodeFrame) fills a full frame-sized buffer per message; this bound is
// what keeps the send path from drifting back to that. A frame without a
// payload is a single plain write and allocates less still.
func TestWriteFrameIDAllocsBounded(t *testing.T) {
	m := &Message{Kind: MsgPut, Var: "alloc", Key: "k", Version: 3, Data: make([]byte, 1<<20)}
	for i := 0; i < 4; i++ {
		if err := writeFrameID(io.Discard, m, 1); err != nil {
			t.Fatal(err)
		}
	}
	allocs := testing.AllocsPerRun(100, func() {
		if err := writeFrameID(io.Discard, m, 1); err != nil {
			t.Fatal(err)
		}
	})
	// Expected steady state: the net.Buffers header and its slice — all
	// O(bytes of metadata), none O(payload).
	const maxAllocs = 4
	if allocs > maxAllocs {
		t.Fatalf("writeFrameID: %.0f allocs/op for a 1 MiB frame, want <= %d", allocs, maxAllocs)
	}
	small := &Message{Kind: MsgMetaQuery, Var: "alloc", Key: "k"}
	if allocs := testing.AllocsPerRun(100, func() {
		if err := writeFrameID(io.Discard, small, 1); err != nil {
			t.Fatal(err)
		}
	}); allocs > 1 {
		t.Fatalf("writeFrameID: %.0f allocs/op for a frame without payload, want <= 1", allocs)
	}
}

// BenchmarkSend reports allocs/op and ns/op of a 1 MiB put over real TCP
// loopback. Run with -benchmem: bytes/op should stay at a few KB — the
// receiver lands the payload in a pooled buffer the handler gives back, and
// the send side makes no frame-sized copies.
func BenchmarkSend(b *testing.B) {
	n := NewTCPNetwork("127.0.0.1")
	n.ConfigureMux(1, DefaultMaxInFlight)
	n.Register(0, func(context.Context, *Message) *Message { return Ok() })
	defer n.Close()
	req := &Message{Kind: MsgPut, Var: "bench", Data: make([]byte, 1<<20)}
	ctx := context.Background()
	b.SetBytes(int64(len(req.Data)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := n.Send(ctx, types.ServerID(-1), 0, req); err != nil {
			b.Fatal(err)
		}
	}
}
