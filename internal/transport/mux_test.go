package transport

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"corec/internal/failure"
	"corec/internal/scrub"
	"corec/internal/types"
)

// muxNetwork returns a TCP fabric sized conns x window with an echo server
// registered under id 0.
func muxNetwork(t *testing.T, conns, window int) *TCPNetwork {
	t.Helper()
	n := NewTCPNetwork("127.0.0.1")
	n.ConfigureMux(conns, window)
	n.Register(0, echoHandler)
	t.Cleanup(n.Close)
	return n
}

// TestWriteFrameIDMatchesEncodeFrame differentially checks the zero-copy
// scatter-gather writer against the allocate-and-copy framer: byte-for-byte
// identical frames for the same message, across payload sizes on both sides
// of the reader's buffer and of the pooled size classes, with the payload
// check computed and with it attached from a held digest.
func TestWriteFrameIDMatchesEncodeFrame(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for _, size := range []int{0, 1, 100, frameReaderBuf - 1, frameReaderBuf, class1, 1 << 20} {
		for _, attach := range []bool{false, true} {
			m := &Message{Kind: MsgPut, From: -3, Var: "v", Key: "k", Version: 9, Flag: true, Num: 42}
			if size > 0 {
				m.Data = make([]byte, size)
				rng.Read(m.Data)
			}
			if attach {
				m.AttachDigest(scrub.Checksum(m.Data))
			}
			want := encodeFrameID(m, 77)
			var got bytes.Buffer
			if err := writeFrameID(&got, m, 77); err != nil {
				t.Fatalf("size %d: writeFrameID: %v", size, err)
			}
			if !bytes.Equal(got.Bytes(), want) {
				t.Fatalf("size %d: scatter-gather frame differs from EncodeFrame (%d vs %d bytes)",
					size, got.Len(), len(want))
			}
			if n, err := frameSize(m); err != nil || n+len(m.Data) != len(want) {
				t.Fatalf("size %d: frameSize = %d, %v; the frame has %d bytes before its payload", size, n, err, len(want)-len(m.Data))
			}
			reqID, back, err := newFrameReader(bytes.NewReader(got.Bytes())).next(nil)
			if err != nil {
				t.Fatalf("size %d attach %v: read back: %v", size, attach, err)
			}
			if reqID != 77 {
				t.Fatalf("size %d: reqID = %d, want 77", size, reqID)
			}
			if back.Var != m.Var || back.Num != m.Num || !bytes.Equal(back.Data, m.Data) {
				t.Fatalf("size %d: round trip mismatch", size)
			}
			ref, err := DecodeFrame(want)
			if err != nil || !bytes.Equal(ref.Data, m.Data) || ref.Key != m.Key {
				t.Fatalf("size %d: DecodeFrame of the reference frame: %v", size, err)
			}
		}
	}
}

// fixedSink is a payloadSink over one request's buffer.
type fixedSink struct {
	id      uint64
	into    []byte
	claimed int
}

func (s *fixedSink) claim(reqID uint64) ([]byte, bool) {
	if reqID != s.id {
		return nil, false
	}
	if len(s.into) > 0 {
		s.claimed++
	}
	return s.into, true
}

func (s *fixedSink) unclaim() { s.claimed-- }

// TestRecvIntoOwnership checks the read path's ownership rule. A payload
// lands in the buffer the pending request named, in full or up to its
// length with the rest in Overflow, and the claim is released by the time
// the frame is returned; without a buffer it gets an allocation of exactly
// its size, which belongs to the message — later reads must not overwrite
// it; a frame nobody waits for is skipped, the stream staying aligned; and
// the pooled meta buffer is recycled whatever the payload's size.
func TestRecvIntoOwnership(t *testing.T) {
	payload := bytes.Repeat([]byte{5}, 64<<10)
	frame := encodeFrameID(&Message{Kind: MsgGetBytes, Num: 7, Data: payload}, 1)

	for _, room := range []int{len(payload), len(payload) + 100, len(payload) - 3} {
		sink := &fixedSink{id: 1, into: make([]byte, room)}
		_, m, err := newFrameReader(bytes.NewReader(frame)).next(sink)
		if err != nil {
			t.Fatal(err)
		}
		n := min(room, len(payload))
		if len(m.Data) != n || &m.Data[0] != &sink.into[0] {
			t.Fatalf("room %d: Data (%d bytes) is not the head of the named buffer", room, len(m.Data))
		}
		if !bytes.Equal(append(append([]byte(nil), m.Data...), m.Overflow...), payload) {
			t.Fatalf("room %d: Data+Overflow differ from the payload", room)
		}
		if len(m.Overflow) != len(payload)-n {
			t.Fatalf("room %d: %d overflow bytes, want %d", room, len(m.Overflow), len(payload)-n)
		}
		if sink.claimed != 0 {
			t.Fatalf("room %d: claim still held after the frame was returned", room)
		}
		if m.Num != 7 {
			t.Fatalf("room %d: meta decoded wrong", room)
		}
	}

	// No buffer named: an exact allocation the message owns.
	_, m, err := newFrameReader(bytes.NewReader(frame)).next(&fixedSink{id: 1})
	if err != nil {
		t.Fatal(err)
	}
	if len(m.Data) != len(payload) || cap(m.Data) != len(payload) {
		t.Fatalf("own buffer: len %d cap %d, want exactly %d", len(m.Data), cap(m.Data), len(payload))
	}
	other := encodeFrameID(&Message{Kind: MsgGetBytes, Data: bytes.Repeat([]byte{9}, 64<<10)}, 3)
	for i := 0; i < 8; i++ {
		if _, _, err := newFrameReader(bytes.NewReader(other)).next(nil); err != nil {
			t.Fatal(err)
		}
	}
	if !bytes.Equal(m.Data, payload) {
		t.Fatal("a message's payload was overwritten by a later read")
	}

	// Nobody waits for request 2: its payload is skipped, the next frame reads.
	stream := append(encodeFrameID(&Message{Kind: MsgGetBytes, Data: payload}, 2), frame...)
	fr := newFrameReader(bytes.NewReader(stream))
	sink := &fixedSink{id: 1, into: make([]byte, len(payload))}
	if reqID, m, err := fr.next(sink); err != nil || reqID != 2 || m.Data != nil {
		t.Fatalf("unwanted frame: reqID %d err %v data %d bytes, want 2, nil and none", reqID, err, len(m.Data))
	}
	if reqID, m, err := fr.next(sink); err != nil || reqID != 1 || !bytes.Equal(m.Data, payload) {
		t.Fatalf("frame after a skipped one: reqID %d err %v", reqID, err)
	}

	// Under the race detector sync.Pool randomly discards Puts, so allow a
	// few round trips before requiring a hit.
	hits0, _ := BufferPoolStats()
	reused := false
	for i := 0; i < 8 && !reused; i++ {
		if _, _, err := newFrameReader(bytes.NewReader(frame)).next(nil); err != nil {
			t.Fatal(err)
		}
		hits1, _ := BufferPoolStats()
		reused = i > 0 && hits1 > hits0
	}
	if !reused {
		t.Fatal("meta buffer of a bulk frame never reused by subsequent reads")
	}
}

// TestPipelinedStreamFuzzCorruptionRealigns fuzzes a pipelined frame
// stream: several frames back to back with one corrupted mid-stream, in
// its meta or its payload segment. Only the corrupted frame's request may
// fail — with ErrCorruptFrame and its own authenticated request ID — and
// every later frame must decode intact, because the checked lengths keep
// the stream aligned.
func TestPipelinedStreamFuzzCorruptionRealigns(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	for round := 0; round < 200; round++ {
		frames := 2 + rng.Intn(6)
		victim := rng.Intn(frames)
		var stream bytes.Buffer
		sizes := make([]int, frames)
		for i := 0; i < frames; i++ {
			sizes[i] = rng.Intn(8 << 10)
			m := &Message{Kind: MsgGetBytes, Num: int64(i), Data: make([]byte, sizes[i])}
			rng.Read(m.Data)
			frame := encodeFrameID(m, uint64(100+i))
			if i == victim {
				// Corrupt one segment bit (past the header, so the frame
				// boundary holds and realignment is possible).
				off := frameHeaderSize + rng.Intn(len(frame)-frameHeaderSize)
				frame[off] ^= 1 << uint(rng.Intn(8))
			}
			stream.Write(frame)
		}
		fr := newFrameReader(bytes.NewReader(stream.Bytes()))
		for i := 0; i < frames; i++ {
			reqID, m, err := fr.next(nil)
			if reqID != uint64(100+i) {
				t.Fatalf("round %d frame %d: reqID %d, want %d", round, i, reqID, 100+i)
			}
			if i == victim {
				if !segmentCorrupt(err) {
					t.Fatalf("round %d: corrupt frame %d returned %v, want ErrCorruptFrame", round, i, err)
				}
				continue
			}
			if err != nil {
				t.Fatalf("round %d: healthy frame %d after corruption: %v", round, i, err)
			}
			if m.Num != int64(i) || len(m.Data) != sizes[i] {
				t.Fatalf("round %d: frame %d decoded wrong (Num=%d len=%d)", round, i, m.Num, len(m.Data))
			}
		}
	}
}

// TestMuxConcurrentNoCrosstalk pushes many concurrent requests over a small
// shared connection set and checks every response reaches its own request.
func TestMuxConcurrentNoCrosstalk(t *testing.T) {
	n := muxNetwork(t, 2, 8)
	var wg sync.WaitGroup
	errs := make(chan error, 64)
	for i := 0; i < 64; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			payload := bytes.Repeat([]byte{byte(i)}, 1+i*137)
			resp, err := n.Send(context.Background(), -1, 0, &Message{Kind: MsgPing, Num: int64(i), Data: payload})
			if err != nil {
				errs <- err
				return
			}
			if resp.Num != int64(i) || !bytes.Equal(resp.Data, payload) {
				errs <- fmt.Errorf("request %d: response crosstalk", i)
			}
		}(i)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	if live := n.ActiveMuxConns(); live == 0 || live > 2 {
		t.Fatalf("ActiveMuxConns = %d, want 1..2", live)
	}
}

// TestMuxInFlightWindowBounds checks the pipelining window backpressures:
// with every handler blocked, at most conns*window requests enter flight.
func TestMuxInFlightWindowBounds(t *testing.T) {
	gate := make(chan struct{})
	var entered atomic.Int64
	n := NewTCPNetwork("127.0.0.1")
	n.ConfigureMux(1, 4)
	n.Register(0, func(ctx context.Context, req *Message) *Message {
		entered.Add(1)
		<-gate
		return Ok()
	})
	defer n.Close()
	var wg sync.WaitGroup
	for i := 0; i < 16; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			_, _ = n.Send(context.Background(), -1, 0, &Message{Kind: MsgPing})
		}()
	}
	deadline := time.Now().Add(2 * time.Second)
	for entered.Load() < 4 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	time.Sleep(20 * time.Millisecond) // give excess requests a chance to leak
	if got := n.InFlight(); got > 4 {
		t.Fatalf("in-flight %d requests with window 4", got)
	}
	close(gate)
	wg.Wait()
	if got := n.InFlight(); got != 0 {
		t.Fatalf("in-flight gauge %d after drain, want 0", got)
	}
}

// TestMuxBrokenConnSalvagedByRedial strands a request mid-flight by
// severing its connection; the retry-free mux path itself must salvage the
// failure on a fresh connection.
func TestMuxBrokenConnSalvagedByRedial(t *testing.T) {
	entered := make(chan struct{})
	gate := make(chan struct{})
	var first atomic.Bool
	n := NewTCPNetwork("127.0.0.1")
	n.ConfigureMux(1, 8)
	n.Register(0, func(ctx context.Context, req *Message) *Message {
		if req.Num == 99 && first.CompareAndSwap(false, true) {
			entered <- struct{}{}
			// Park the first attempt until test end: its connection dies
			// underneath it, so its (unwritable) response is irrelevant.
			<-gate
		}
		return echoHandler(ctx, req)
	})
	defer n.Close()
	defer close(gate) // release the parked handler so Close can drain

	done := make(chan error, 1)
	go func() {
		resp, err := n.Send(context.Background(), -1, 0, &Message{Kind: MsgPing, Num: 99})
		if err == nil && resp.Num != 99 {
			err = fmt.Errorf("wrong response %d", resp.Num)
		}
		done <- err
	}()
	<-entered
	// Sever the connection carrying the in-flight request: the pending
	// request fails with ErrConnBroken and must be transparently resent on
	// a freshly dialed connection.
	if broken := n.BreakConns(0); broken == 0 {
		t.Fatal("BreakConns severed nothing")
	}
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("request across connection break: %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("request stranded after connection break")
	}
	if n.MuxRedials() == 0 {
		t.Fatal("break salvage did not count a mux redial")
	}
}

// TestMuxContextCancelAbandonsRequest checks a cancelled request releases
// its window slot and later responses for it are silently dropped.
func TestMuxContextCancelAbandonsRequest(t *testing.T) {
	gate := make(chan struct{})
	n := NewTCPNetwork("127.0.0.1")
	n.ConfigureMux(1, 2)
	n.Register(0, func(ctx context.Context, req *Message) *Message {
		if req.Num == 1 {
			<-gate
		}
		return echoHandler(ctx, req)
	})
	defer n.Close()

	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	if _, err := n.Send(ctx, -1, 0, &Message{Kind: MsgPing, Num: 1}); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("got %v, want deadline exceeded", err)
	}
	close(gate) // the late response must be discarded, not crosstalked
	resp, err := n.Send(context.Background(), -1, 0, &Message{Kind: MsgPing, Num: 2})
	if err != nil || resp.Num != 2 {
		t.Fatalf("send after cancel: %v (resp %+v)", err, resp)
	}
	if got := n.InFlight(); got != 0 {
		t.Fatalf("in-flight gauge %d after cancel+drain, want 0", got)
	}
}

// TestMuxBreakConnsSeversAndRecovers exercises the fault injector's
// connection-break hook directly: live mux connections die, idle ones are
// culled, and the next request transparently dials fresh.
func TestMuxBreakConnsSeversAndRecovers(t *testing.T) {
	n := muxNetwork(t, 2, 8)
	for i := 0; i < 4; i++ {
		if _, err := n.Send(context.Background(), -1, 0, &Message{Kind: MsgPing}); err != nil {
			t.Fatal(err)
		}
	}
	if broken := n.BreakConns(0); broken == 0 {
		t.Fatal("BreakConns severed nothing")
	}
	if live := n.ActiveMuxConns(); live != 0 {
		t.Fatalf("%d live mux conns after BreakConns", live)
	}
	resp, err := n.Send(context.Background(), -1, 0, &Message{Kind: MsgPing, Num: 5})
	if err != nil || resp.Num != 5 {
		t.Fatalf("send after BreakConns: %v", err)
	}
}

// TestChaosMuxConcurrentClientsUnderFaults is the transport-level chaos
// test: concurrent clients share multiplexed connections while the seeded
// injector drops, corrupts (both directions), severs connections, and a
// transient partition opens and heals. Every request must either succeed
// with its own response (no crosstalk) or fail with a typed retryable
// error, and the salvage/injection counters must move.
func TestChaosMuxConcurrentClientsUnderFaults(t *testing.T) {
	inner := NewTCPNetwork("127.0.0.1")
	inner.ConfigureMux(2, 8)
	inner.Register(0, func(ctx context.Context, req *Message) *Message {
		time.Sleep(200 * time.Microsecond) // keep requests in flight so breaks hit pipelined neighbours
		return echoHandler(ctx, req)
	})
	defer inner.Close()
	plan := &failure.FaultPlan{
		Seed: 23,
		Links: []failure.LinkFault{{
			DropProb:        0.03,
			CorruptProb:     0.03,
			RespCorruptProb: 0.03,
			ConnBreakProb:   0.02,
		}},
	}
	fn := NewFaultyNetwork(inner, plan)
	policy := RetryPolicy{MaxAttempts: 8, BaseBackoff: 200 * time.Microsecond, MaxBackoff: 5 * time.Millisecond, JitterFrac: 0.5}

	const workers, perWorker = 8, 60
	var wg sync.WaitGroup
	var ok, retried atomic.Int64
	errs := make(chan error, workers*perWorker)
	var healOnce sync.Once
	heal := func() {}
	var healMu sync.Mutex
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				if w == 0 && i == perWorker/3 {
					// Open a transient partition mid-run; heal it shortly
					// after so retries can ride it out.
					healOnce.Do(func() {
						h := fn.Partition([]types.ServerID{0}, []types.ServerID{1})
						healMu.Lock()
						heal = h
						healMu.Unlock()
						time.AfterFunc(10*time.Millisecond, func() {
							healMu.Lock()
							defer healMu.Unlock()
							heal()
						})
					})
				}
				num := int64(w*perWorker + i)
				resp, attempts, err := policy.Send(context.Background(), fn, types.ServerID(1), 0, &Message{Kind: MsgPing, Num: num})
				if attempts > 1 {
					retried.Add(1)
				}
				if err != nil {
					if !IsRetryable(err) {
						errs <- fmt.Errorf("worker %d op %d: terminal error %v", w, i, err)
					}
					continue
				}
				if resp.Num != num {
					errs <- fmt.Errorf("worker %d op %d: crosstalk (got %d)", w, i, resp.Num)
					continue
				}
				ok.Add(1)
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	total := int64(workers * perWorker)
	if ok.Load() < total*9/10 {
		t.Fatalf("only %d/%d requests succeeded under faults", ok.Load(), total)
	}
	st := fn.Stats()
	if st.Drops == 0 || st.Corrupts == 0 || st.RespCorrupts == 0 || st.ConnBreaks == 0 {
		t.Fatalf("injector idle: %+v", st)
	}
	if retried.Load() == 0 {
		t.Fatal("no request ever retried despite injected faults")
	}
	// Requests stranded on severed connections must have been salvaged by
	// the mux redial path at least once across this much connection churn.
	if inner.MuxRedials() == 0 {
		t.Fatal("no mux redial despite injected connection breaks")
	}
	// The fabric must end the run quiescent and usable.
	if _, _, err := policy.Send(context.Background(), fn, -1, 0, &Message{Kind: MsgPing, Num: -7}); err != nil {
		t.Fatalf("fabric unusable after chaos: %v", err)
	}
	if got := inner.InFlight(); got != 0 {
		t.Fatalf("in-flight gauge %d after chaos drain, want 0", got)
	}
}
