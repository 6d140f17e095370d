package transport

import (
	"bytes"
	"context"
	"errors"
	"net"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"corec/internal/failure"
	"corec/internal/scrub"
	"corec/internal/simnet"
	"corec/internal/types"
)

// rawServer is a hand-driven peer: it accepts connections and hands every
// request frame to serve, which writes whatever bytes it likes back — a
// response frame in pieces, late, or not at all.
func rawServer(t *testing.T, serve func(conn net.Conn, reqID uint64, req *Message)) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	t.Cleanup(func() {
		_ = ln.Close()
		wg.Wait()
	})
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			wg.Add(1)
			go func() {
				defer wg.Done()
				defer conn.Close()
				fr := newFrameReader(conn)
				for {
					reqID, req, err := fr.next(nil)
					if err != nil {
						return
					}
					serve(conn, reqID, req)
				}
			}()
		}
	}()
	return ln.Addr().String()
}

// fillingNow reports whether some connection's reader holds a claimed buffer.
func fillingNow(n *TCPNetwork) bool {
	n.muxMu.Lock()
	defer n.muxMu.Unlock()
	for _, set := range n.muxes {
		for _, mc := range set.conns {
			if mc == nil {
				continue
			}
			mc.mu.Lock()
			filling := mc.filling != 0
			mc.mu.Unlock()
			if filling {
				return true
			}
		}
	}
	return false
}

func filled(b byte, n int) []byte { return bytes.Repeat([]byte{b}, n) }

// TestRecvIntoCancelMidPayload pins the invariant of RecvInto: once Send has
// returned, nothing writes the buffer again. A 4 MiB response is trickled:
// the peer sends the frame's first half, the reader claims dst and starts
// landing bytes in it, and the caller's context is cancelled. Send must
// come back promptly although the peer is stalled; the test then scribbles
// over dst (under -race, a transport write after that point is a reported
// race) and the peer sends the rest. dst must keep the scribble, and the
// next request must be served — here by a replacement connection, since a
// request abandoned in mid-payload costs the connection.
func TestRecvIntoCancelMidPayload(t *testing.T) {
	const size = 4 << 20
	payload := filled(0xAB, size)
	firstHalf := make(chan struct{})
	finish := make(chan struct{})
	var served atomic.Int64
	addr := rawServer(t, func(conn net.Conn, reqID uint64, req *Message) {
		frame := encodeFrameID(&Message{Kind: MsgGetBytes, Flag: true, Data: payload}, reqID)
		if served.Add(1) > 1 {
			_, _ = conn.Write(frame)
			return
		}
		if _, err := conn.Write(frame[:len(frame)/2]); err != nil {
			t.Errorf("first half: %v", err)
		}
		close(firstHalf)
		<-finish
		_, _ = conn.Write(frame[len(frame)/2:]) // into a connection the client has dropped
	})
	n := NewTCPNetwork("127.0.0.1")
	n.ConfigureMux(1, 4)
	defer n.Close()
	n.AddRemote(0, addr)

	dst := make([]byte, size)
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() {
		_, err := n.Send(ctx, -1, 0, &Message{Kind: MsgGet, Key: "k", RecvInto: dst})
		done <- err
	}()
	<-firstHalf
	for deadline := time.Now().Add(5 * time.Second); !fillingNow(n); {
		if time.Now().After(deadline) {
			t.Fatal("reader never claimed the buffer")
		}
		time.Sleep(time.Millisecond)
	}
	cancel()
	select {
	case err := <-done:
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("cancelled Send returned %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Send did not return after cancellation: it waited on the stalled peer")
	}
	copy(dst, filled(0xEE, size)) // ours again
	close(finish)
	time.Sleep(50 * time.Millisecond)
	if !bytes.Equal(dst, filled(0xEE, size)) {
		t.Fatal("the transport wrote the buffer after Send had returned")
	}
	resp, err := n.Send(context.Background(), -1, 0, &Message{Kind: MsgGet, Key: "k", RecvInto: dst})
	if err != nil {
		t.Fatalf("request after the abandoned one: %v", err)
	}
	if &resp.Data[0] != &dst[0] || !bytes.Equal(dst, payload) {
		t.Fatal("request after the abandoned one did not land in dst")
	}
}

// TestRecvIntoCancelBeforePayload is the common cancellation: the caller
// gives up while the response has not started to arrive. The pending entry
// is gone, so the late frame names no buffer: it is skipped — dst, which the
// caller has reused, stays untouched — and the same connection, still
// aligned, serves the next request.
func TestRecvIntoCancelBeforePayload(t *testing.T) {
	const size = 1 << 20
	gate := make(chan struct{})
	n := NewTCPNetwork("127.0.0.1")
	n.ConfigureMux(1, 4)
	n.Register(0, func(ctx context.Context, req *Message) *Message {
		if req.Num == 1 {
			<-gate
			return &Message{Kind: MsgGetBytes, Flag: true, Data: filled(0xAA, size)}
		}
		return &Message{Kind: MsgGetBytes, Flag: true, Data: filled(0xBB, size)}
	})
	defer n.Close()

	dst := make([]byte, size)
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Millisecond)
	defer cancel()
	if _, err := n.Send(ctx, -1, 0, &Message{Kind: MsgGet, Num: 1, RecvInto: dst}); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("got %v, want deadline exceeded", err)
	}
	copy(dst, filled(0xEE, size))
	close(gate) // the late response goes out now
	resp, err := n.Send(context.Background(), -1, 0, &Message{Kind: MsgGet, Num: 2})
	if err != nil || !bytes.Equal(resp.Data, filled(0xBB, size)) {
		t.Fatalf("request behind the late frame: %v", err)
	}
	// Frames are served in order on the one connection: the late one has
	// been read past by now.
	if !bytes.Equal(dst, filled(0xEE, size)) {
		t.Fatal("a late response was written into a buffer its Send had given back")
	}
	if n.MuxRedials() != 0 || n.ActiveMuxConns() != 1 {
		t.Fatalf("late frame cost the connection: redials %d, live conns %d", n.MuxRedials(), n.ActiveMuxConns())
	}
}

// TestRecvIntoRetryReusesBuffer drives the retry layer's per-attempt timeout
// with one request message, and so one RecvInto, across attempts: the first
// attempt stalls past its timeout, the second lands its payload, and the
// first attempt's response — which arrives afterwards, with other bytes —
// must not reach the buffer.
func TestRecvIntoRetryReusesBuffer(t *testing.T) {
	const size = 1 << 20
	gate := make(chan struct{})
	var attempts atomic.Int64
	n := NewTCPNetwork("127.0.0.1")
	n.ConfigureMux(1, 4)
	n.Register(0, func(ctx context.Context, req *Message) *Message {
		if req.Kind == MsgPing {
			return Ok()
		}
		if attempts.Add(1) == 1 {
			<-gate
			return &Message{Kind: MsgGetBytes, Flag: true, Data: filled(0xAA, size)}
		}
		return &Message{Kind: MsgGetBytes, Flag: true, Data: filled(0xBB, size)}
	})
	defer n.Close()

	dst := make([]byte, size)
	policy := RetryPolicy{MaxAttempts: 3, PerAttemptTimeout: 40 * time.Millisecond}
	resp, made, err := policy.Send(context.Background(), n, -1, 0, &Message{Kind: MsgGet, RecvInto: dst})
	if err != nil || made != 2 {
		t.Fatalf("retried send: %d attempts, err %v", made, err)
	}
	if &resp.Data[0] != &dst[0] || !bytes.Equal(dst, filled(0xBB, size)) {
		t.Fatal("second attempt did not land in the reused buffer")
	}
	close(gate)
	// A ping behind the late frame on the same connection: once it is
	// answered the late frame has been read past.
	if _, err := n.Send(context.Background(), -1, 0, &Message{Kind: MsgPing}); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(dst, filled(0xBB, size)) {
		t.Fatal("the timed-out attempt's late response overwrote the buffer")
	}
}

// TestRecvIntoUnderInjectedFaults runs RecvInto through FaultyNetwork over
// both fabrics. A duplicated request is delivered twice but lands once; a
// dropped or corrupted request never touches the buffer; a response the
// injector reports as corrupt fails the Send, after which a clean resend of
// the same message fills the buffer.
func TestRecvIntoUnderInjectedFaults(t *testing.T) {
	const size = 64 << 10
	stored := filled(0x5C, size)
	for _, fabric := range []string{"inproc", "tcp"} {
		t.Run(fabric, func(t *testing.T) {
			var delivered atomic.Int64
			h := func(ctx context.Context, req *Message) *Message {
				delivered.Add(1)
				return &Message{Kind: MsgGetBytes, Flag: true, Data: stored}
			}
			var inner Network
			if fabric == "tcp" {
				tn := NewTCPNetwork("127.0.0.1")
				defer tn.Close()
				inner = tn
			} else {
				inner = NewInProc(simnet.LinkModel{})
			}
			inner.Register(0, h)
			send := func(fault failure.LinkFault, dst []byte) (*Message, error) {
				f := NewFaultyNetwork(inner, &failure.FaultPlan{Seed: 5, Links: []failure.LinkFault{fault}})
				return f.Send(context.Background(), -1, 0, &Message{Kind: MsgGet, RecvInto: dst})
			}

			dst := make([]byte, size)
			resp, err := send(failure.LinkFault{DupProb: 1}, dst)
			if err != nil || delivered.Load() != 2 {
				t.Fatalf("duplicate: err %v, %d deliveries, want 2", err, delivered.Load())
			}
			if &resp.Data[0] != &dst[0] || !bytes.Equal(dst, stored) {
				t.Fatal("duplicate: payload did not land in the buffer")
			}

			for name, fault := range map[string]failure.LinkFault{"drop": {DropProb: 1}, "corrupt": {CorruptProb: 1}} {
				copy(dst, filled(0xEE, size))
				if _, err := send(fault, dst); !IsRetryable(err) {
					t.Fatalf("%s: err = %v, want a retryable fault", name, err)
				}
				if !bytes.Equal(dst, filled(0xEE, size)) {
					t.Fatalf("%s: a request that was never delivered changed the buffer", name)
				}
			}

			if _, err := send(failure.LinkFault{RespCorruptProb: 1}, dst); !errors.Is(err, ErrCorruptFrame) {
				t.Fatalf("response corruption: err = %v, want ErrCorruptFrame", err)
			}
			if _, err := send(failure.LinkFault{}, dst); err != nil || !bytes.Equal(dst, stored) {
				t.Fatalf("clean resend: err %v", err)
			}
			if !bytes.Equal(stored, filled(0x5C, size)) {
				t.Fatal("the handler's copy changed")
			}
		})
	}
}

// TestInProcRecvIntoNeverAliasesHandlerMemory: the in-process fabric hands
// messages over by reference, so without RecvInto a response's Data IS the
// handler's stored slice. With it, the caller gets its own buffer back,
// short buffers spill into an Overflow that is a copy too, and scribbling
// over either leaves the stored object as it was.
func TestInProcRecvIntoNeverAliasesHandlerMemory(t *testing.T) {
	stored := filled(0x42, 1000)
	n := NewInProc(simnet.LinkModel{})
	n.Register(0, func(ctx context.Context, req *Message) *Message {
		return &Message{Kind: MsgGetBytes, Flag: true, Data: stored}
	})
	for _, room := range []int{1000, 1200, 993} {
		dst := make([]byte, room)
		resp, err := n.Send(context.Background(), -1, 0, &Message{Kind: MsgGet, RecvInto: dst})
		if err != nil {
			t.Fatal(err)
		}
		keep := min(room, len(stored))
		if len(resp.Data) != keep || &resp.Data[0] != &dst[0] || len(resp.Overflow) != len(stored)-keep {
			t.Fatalf("room %d: Data %d bytes, Overflow %d", room, len(resp.Data), len(resp.Overflow))
		}
		for i := range resp.Data {
			resp.Data[i] = 0
		}
		for i := range resp.Overflow {
			resp.Overflow[i] = 0
		}
		again, err := n.Send(context.Background(), -1, 0, &Message{Kind: MsgGet})
		if err != nil || !bytes.Equal(again.Data, filled(0x42, 1000)) {
			t.Fatalf("room %d: mutating the result changed the handler's object", room)
		}
	}
}

// TestPayloadCheckOncePerHop counts CRC-32C passes over payloads on a TCP
// round trip: a sender without the digest makes one, a sender that attached
// it makes none, every receiver makes exactly one, and a server's takes the
// IEEE half of the digest along — and a digest that no longer matches the
// bytes (a stored copy that rotted after it was digested) fails at the
// receiver like wire damage, retryably.
func TestPayloadCheckOncePerHop(t *testing.T) {
	stored := filled(0x37, 256<<10)
	sum := scrub.Checksum(stored)
	var got atomic.Pointer[Message]
	n := NewTCPNetwork("127.0.0.1")
	n.Register(0, func(ctx context.Context, req *Message) *Message {
		req.Buf.Hold() // kept past the handler: the test reads it below
		got.Store(req)
		if req.Kind != MsgGet {
			return Ok()
		}
		resp := &Message{Kind: MsgGetBytes, Flag: true, Data: stored}
		resp.AttachDigest(sum)
		return resp
	})
	defer n.Close()
	delta := func(from PayloadChecks) PayloadChecks {
		now := PayloadCheckStats()
		return PayloadChecks{now.Computed - from.Computed, now.Attached - from.Attached, now.Verified - from.Verified, now.Digested - from.Digested}
	}
	ctx := context.Background()

	before := PayloadCheckStats()
	if _, err := n.Send(ctx, -1, 0, &Message{Kind: MsgPut, Data: stored}); err != nil {
		t.Fatal(err)
	}
	if d := delta(before); d != (PayloadChecks{Computed: 1, Verified: 1, Digested: 1}) {
		t.Fatalf("put without a digest: %+v, want one sender pass and one receiver pass, digest taken", d)
	}
	if digest, ok := got.Load().VerifiedDigest(); !ok || digest != sum || scrub.Checksum(got.Load().Data) != sum {
		t.Fatal("the server's frame reader did not deliver the digest of the bytes it landed")
	}

	before = PayloadCheckStats()
	push := &Message{Kind: MsgReplicaPut, Data: stored}
	push.AttachDigest(sum)
	if _, err := n.Send(ctx, -1, 0, push); err != nil {
		t.Fatal(err)
	}
	if d := delta(before); d != (PayloadChecks{Attached: 1, Verified: 1, Digested: 1}) {
		t.Fatalf("push with the digest attached: %+v, want no sender pass and one receiver pass", d)
	}
	if _, ok := push.VerifiedDigest(); ok {
		t.Fatal("an attached digest reads as verified on the sender's own message")
	}

	before = PayloadCheckStats()
	dst := make([]byte, len(stored))
	resp, err := n.Send(ctx, -1, 0, &Message{Kind: MsgGet, RecvInto: dst})
	if err != nil || !bytes.Equal(dst, stored) {
		t.Fatalf("get: %v", err)
	}
	if d := delta(before); d != (PayloadChecks{Attached: 1, Verified: 1}) {
		t.Fatalf("get answered from a held digest: %+v, want no sender pass and one receiver pass, no digest", d)
	}
	if _, ok := resp.VerifiedDigest(); ok {
		t.Fatal("a client's frame reader reports a digest it does not take")
	}

	rotted := &Message{Kind: MsgReplicaPut, Data: append([]byte(nil), stored...)}
	rotted.AttachDigest(sum)
	rotted.Data[100] ^= 4
	r, err := n.Send(ctx, -1, 0, rotted)
	if err == nil {
		err = r.AsError()
	}
	if !errors.Is(err, ErrRemoteRetryable) {
		t.Fatalf("rotted payload under its old digest: err = %v, want the receiver's retryable corrupt-frame error", err)
	}
	if resp, err := n.Send(ctx, types.ServerID(-1), 0, &Message{Kind: MsgPing}); err != nil || resp.Kind != MsgOK {
		t.Fatalf("connection after a corrupt payload: %v", err)
	}
}
