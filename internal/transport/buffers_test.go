package transport

import (
	"bytes"
	"context"
	"errors"
	"net"
	"sync/atomic"
	"testing"
	"time"

	"corec/internal/scrub"
)

// TestPayloadClasses pins the payload size classes: the smallest that fits,
// never more than an eighth wasted, powers of two and a third of 2 MiB — an
// RS(3+1) shard of one — where the workloads put them.
func TestPayloadClasses(t *testing.T) {
	for _, tc := range []struct{ n, index, size int }{
		{minPayload, 0, 64 << 10},
		{minPayload + 1, 1, 72 << 10},
		{120 << 10, 7, 120 << 10},
		{120<<10 + 1, 8, 128 << 10},
		{128 << 10, 8, 128 << 10},
		{(2<<20 + 2) / 3, 27, 704 << 10},
		{2 << 20, 40, 2 << 20},
		{maxFrame, payloadClasses - 1, maxFrame},
	} {
		if index, size := payloadClass(tc.n); index != tc.index || size != tc.size {
			t.Errorf("payloadClass(%d) = %d, %d; want %d, %d", tc.n, index, size, tc.index, tc.size)
		}
	}
	last := -1
	for n := minPayload; n <= 8<<20; n += 4093 {
		index, size := payloadClass(n)
		if size < n || size > n+n/8 || index < last {
			t.Fatalf("payloadClass(%d) = %d, %d: too small, wastes more than an eighth, or out of order", n, index, size)
		}
		if smaller, _ := payloadClass(size); smaller != index {
			t.Fatalf("class %d's own size %d falls in class %d", index, size, smaller)
		}
		last = index
	}
}

// TestRequestPayloadHeldUntilItsHandlerReturns: a server's bulk payload lands
// in a pooled Buffer that the request holds while its handler runs, and that
// goes back to the pool as the handler returns — unless the handler took a
// hold of its own to keep Data, as a stored copy does.
func TestRequestPayloadHeldUntilItsHandlerReturns(t *testing.T) {
	var seen atomic.Pointer[Buffer]
	var during atomic.Int32
	n := NewTCPNetwork("127.0.0.1")
	n.Register(0, func(_ context.Context, req *Message) *Message {
		seen.Store(req.Buf)
		if req.Buf != nil {
			during.Store(req.Buf.refs.Load())
		}
		if req.Flag {
			req.Buf.Hold()
		}
		return Ok()
	})
	defer n.Close()
	ctx := context.Background()
	for _, keep := range []bool{false, true} {
		data := filled(0x5A, 3*minPayload)
		if _, err := n.Send(ctx, -1, 0, &Message{Kind: MsgPut, Data: data, Flag: keep}); err != nil {
			t.Fatal(err)
		}
		b := seen.Load()
		if b == nil || len(b.mem) < len(data) {
			t.Fatalf("keep %v: a %d-byte payload did not land in a pooled buffer", keep, len(data))
		}
		if got := during.Load(); got != 1 {
			t.Fatalf("keep %v: the request held its buffer %d times in the handler, want 1", keep, got)
		}
		// serveConn lets go before it writes the response, so the count is
		// settled by the time the response arrives.
		want := int32(0)
		if keep {
			want = 1
		}
		if got := b.refs.Load(); got != want {
			t.Fatalf("keep %v: %d holds left once the handler returned, want %d", keep, got, want)
		}
		if keep {
			if !bytes.Equal(b.mem[:len(data)], data) {
				t.Fatal("a kept payload changed")
			}
			b.Release()
		}
	}
	// Below the smallest class a payload gets memory of its own.
	if _, err := n.Send(ctx, -1, 0, &Message{Kind: MsgPut, Data: filled(1, minPayload-1)}); err != nil {
		t.Fatal(err)
	}
	if seen.Load() != nil {
		t.Fatal("a payload below the smallest class landed in a pooled buffer")
	}
}

// TestResponseHoldEndsWhenItsFrameIsWritten: a response that carries a hold
// of the buffer its Data lives in keeps it until serveConn has written the
// frame, then lets go.
func TestResponseHoldEndsWhenItsFrameIsWritten(t *testing.T) {
	b := getPayload(minPayload)
	want := filled(0x33, minPayload)
	copy(b.mem, want)
	n := NewTCPNetwork("127.0.0.1")
	n.Register(0, func(context.Context, *Message) *Message {
		return &Message{Kind: MsgGetBytes, Flag: true, Data: b.mem[:minPayload], Buf: b.Hold()}
	})
	defer n.Close()
	resp, err := n.Send(context.Background(), -1, 0, &Message{Kind: MsgGet})
	if err != nil || !bytes.Equal(resp.Data, want) {
		t.Fatalf("get: %v", err)
	}
	if resp.Buf != nil {
		t.Fatal("a client's response landed in a pooled buffer")
	}
	deadline := time.Now().Add(5 * time.Second)
	for b.refs.Load() != 1 {
		if time.Now().After(deadline) {
			t.Fatalf("the response's hold was not let go: %d holds", b.refs.Load())
		}
		time.Sleep(time.Millisecond)
	}
	b.Release()
}

// TestMuxWriterHoldsThePayloadUntilWritten: a send that returns while its
// frame is still being written — here its context is cancelled with the
// writer blocked on a pipe nobody reads — leaves the writer holding the
// payload's buffer until the write ends, so the memory cannot be recycled
// under it.
func TestMuxWriterHoldsThePayloadUntilWritten(t *testing.T) {
	client, server := net.Pipe()
	defer server.Close()
	mc := newMuxConn(NewTCPNetwork("127.0.0.1"), client, DefaultMaxInFlight)
	defer mc.fail(errors.New("test over"))
	b := getPayload(minPayload)
	ctx, cancel := context.WithCancel(context.Background())
	sent := make(chan error, 1)
	go func() {
		_, err := mc.roundTrip(ctx, &Message{Kind: MsgPut, Data: b.mem[:minPayload], Buf: b})
		sent <- err
	}()
	deadline := time.Now().Add(5 * time.Second)
	for b.refs.Load() != 2 {
		if time.Now().After(deadline) {
			t.Fatalf("the writer took no hold of the queued frame's payload: %d holds", b.refs.Load())
		}
		time.Sleep(time.Millisecond)
	}
	cancel()
	if err := <-sent; !errors.Is(err, context.Canceled) {
		t.Fatalf("send: %v, want cancellation", err)
	}
	if got := b.refs.Load(); got != 2 {
		t.Fatalf("%d holds once the send returned with its frame mid-write, want 2", got)
	}
	reqID, m, err := newFrameReader(server).next(nil)
	if err != nil || reqID == 0 || len(m.Data) != minPayload {
		t.Fatalf("frame off the pipe: %v", err)
	}
	m.Buf.Release()
	for b.refs.Load() != 1 {
		if time.Now().After(deadline) {
			t.Fatalf("the writer kept its hold after the write ended: %d holds", b.refs.Load())
		}
		time.Sleep(time.Millisecond)
	}
	b.Release()
}

// TestReleasedBufferIsPoisoned: in race builds a buffer's memory is
// overwritten as it returns to the pool, so bytes read through a hold let go
// too early are never the ones that were there.
func TestReleasedBufferIsPoisoned(t *testing.T) {
	if !raceEnabled {
		t.Skip("released buffers are poisoned in race builds only")
	}
	b := getPayload(minPayload)
	copy(b.mem, filled(0x11, minPayload))
	b.Release()
	if !bytes.Equal(b.mem, filled(poisonByte, len(b.mem))) {
		t.Fatal("a released buffer kept its bytes")
	}
}

// TestEarlyReleaseFailsTheReadAndIsRetried releases a buffer while a live
// response still reads it: the bytes that go out are not the ones the
// attached digest vouches for, the reader rejects the frame as corrupt, and
// the retry, answered by a handler that holds its buffer properly, reads the
// object. Race builds poison the released buffer; other builds stand in for
// the pool's next user by overwriting it here.
func TestEarlyReleaseFailsTheReadAndIsRetried(t *testing.T) {
	want := filled(0x6C, 2*minPayload)
	sum := scrub.Checksum(want)
	var calls atomic.Int32
	n := NewTCPNetwork("127.0.0.1")
	n.Register(0, func(context.Context, *Message) *Message {
		b := getPayload(len(want))
		copy(b.mem, want)
		resp := &Message{Kind: MsgGetBytes, Flag: true, Data: b.mem[:len(want)]}
		resp.AttachDigest(sum)
		if calls.Add(1) == 1 {
			b.Release() // the bug: the response still reads Data
			if !raceEnabled {
				poison(b.mem)
			}
		} else {
			resp.Buf = b
		}
		return resp
	})
	defer n.Close()
	retry := RetryPolicy{MaxAttempts: 3, BaseBackoff: time.Millisecond, MaxBackoff: time.Millisecond}
	resp, attempts, err := retry.Send(context.Background(), n, -1, 0, &Message{Kind: MsgGet})
	if err != nil || !bytes.Equal(resp.Data, want) {
		t.Fatalf("get: %v", err)
	}
	if attempts != 2 || calls.Load() != 2 {
		t.Fatalf("%d attempts, %d handler calls; want the early release rejected once and the read retried", attempts, calls.Load())
	}
}
