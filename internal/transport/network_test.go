package transport

import (
	"context"
	"errors"
	"sync"
	"testing"
	"time"

	"corec/internal/simnet"
	"corec/internal/types"
)

func echoHandler(ctx context.Context, req *Message) *Message {
	resp := *req
	resp.Kind = MsgOK
	return &resp
}

func TestInProcSendReceive(t *testing.T) {
	n := NewInProc(simnet.LinkModel{})
	n.Register(0, echoHandler)
	resp, err := n.Send(context.Background(), -1, 0, &Message{Kind: MsgPing, Var: "x"})
	if err != nil {
		t.Fatal(err)
	}
	if resp.Var != "x" || resp.From != -1 {
		t.Fatalf("resp = %+v", resp)
	}
}

func TestInProcUnreachable(t *testing.T) {
	n := NewInProc(simnet.LinkModel{})
	if _, err := n.Send(context.Background(), -1, 3, &Message{Kind: MsgPing}); !errors.Is(err, ErrUnreachable) {
		t.Fatalf("got %v, want ErrUnreachable", err)
	}
	n.Register(3, echoHandler)
	if !n.Registered(3) {
		t.Fatal("Registered(3) false after Register")
	}
	n.Unregister(3)
	if n.Registered(3) {
		t.Fatal("Registered(3) true after Unregister")
	}
	if _, err := n.Send(context.Background(), -1, 3, &Message{Kind: MsgPing}); !errors.Is(err, ErrUnreachable) {
		t.Fatalf("got %v after Unregister, want ErrUnreachable", err)
	}
}

func TestInProcLinkDelayApplied(t *testing.T) {
	// 1ms per message, both directions => >= 2ms round trip.
	n := NewInProc(simnet.LinkModel{Latency: time.Millisecond})
	n.Register(0, echoHandler)
	start := time.Now()
	if _, err := n.Send(context.Background(), -1, 0, &Message{Kind: MsgPing}); err != nil {
		t.Fatal(err)
	}
	if elapsed := time.Since(start); elapsed < 2*time.Millisecond {
		t.Fatalf("round trip took %v, want >= 2ms", elapsed)
	}
}

func TestInProcContextCancellation(t *testing.T) {
	n := NewInProc(simnet.LinkModel{Latency: time.Hour})
	n.Register(0, echoHandler)
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Millisecond)
	defer cancel()
	if _, err := n.Send(ctx, -1, 0, &Message{Kind: MsgPing}); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("got %v, want deadline exceeded", err)
	}
}

func TestInProcStats(t *testing.T) {
	n := NewInProc(simnet.LinkModel{})
	n.Register(0, echoHandler)
	data := make([]byte, 1000)
	if _, err := n.Send(context.Background(), -1, 0, &Message{Kind: MsgPut, Data: data}); err != nil {
		t.Fatal(err)
	}
	msgs, bytes := n.Stats()
	if msgs != 2 {
		t.Fatalf("msgs = %d, want 2", msgs)
	}
	if bytes < 2000 {
		t.Fatalf("bytes = %d, want >= 2000", bytes)
	}
}

func TestInProcConcurrentSends(t *testing.T) {
	n := NewInProc(simnet.LinkModel{})
	var served sync.Map
	n.Register(0, func(ctx context.Context, req *Message) *Message {
		served.Store(req.Num, true)
		return Ok()
	})
	var wg sync.WaitGroup
	for i := 0; i < 64; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			if _, err := n.Send(context.Background(), -1, 0, &Message{Kind: MsgPing, Num: int64(i)}); err != nil {
				t.Error(err)
			}
		}(i)
	}
	wg.Wait()
	count := 0
	served.Range(func(_, _ any) bool { count++; return true })
	if count != 64 {
		t.Fatalf("served %d distinct requests, want 64", count)
	}
}

func TestInProcReRegisterReplacesHandler(t *testing.T) {
	n := NewInProc(simnet.LinkModel{})
	n.Register(0, func(ctx context.Context, req *Message) *Message { return Errf("old") })
	n.Register(0, func(ctx context.Context, req *Message) *Message { return Ok() })
	resp, err := n.Send(context.Background(), -1, 0, &Message{Kind: MsgPing})
	if err != nil || resp.Kind != MsgOK {
		t.Fatalf("resp=%+v err=%v", resp, err)
	}
}

func TestTCPRoundTrip(t *testing.T) {
	n := NewTCPNetwork("127.0.0.1")
	defer n.Close()
	n.Register(0, echoHandler)
	resp, err := n.Send(context.Background(), -1, 0, &Message{Kind: MsgPut, Var: "v", Data: []byte{9, 8, 7}})
	if err != nil {
		t.Fatal(err)
	}
	if resp.Var != "v" || len(resp.Data) != 3 || resp.Data[0] != 9 {
		t.Fatalf("resp = %+v", resp)
	}
}

func TestTCPUnreachable(t *testing.T) {
	n := NewTCPNetwork("127.0.0.1")
	defer n.Close()
	if _, err := n.Send(context.Background(), -1, 5, &Message{Kind: MsgPing}); !errors.Is(err, ErrUnreachable) {
		t.Fatalf("got %v, want ErrUnreachable", err)
	}
}

func TestTCPUnregisterKillsServer(t *testing.T) {
	n := NewTCPNetwork("127.0.0.1")
	defer n.Close()
	n.Register(1, echoHandler)
	if _, err := n.Send(context.Background(), -1, 1, &Message{Kind: MsgPing}); err != nil {
		t.Fatal(err)
	}
	n.Unregister(1)
	if _, err := n.Send(context.Background(), -1, 1, &Message{Kind: MsgPing}); !errors.Is(err, ErrUnreachable) {
		t.Fatalf("got %v after Unregister, want ErrUnreachable", err)
	}
}

func TestTCPConcurrentClients(t *testing.T) {
	n := NewTCPNetwork("127.0.0.1")
	defer n.Close()
	n.Register(0, echoHandler)
	var wg sync.WaitGroup
	errs := make(chan error, 32)
	for i := 0; i < 32; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			resp, err := n.Send(context.Background(), -1, 0, &Message{Kind: MsgPing, Num: int64(i)})
			if err != nil {
				errs <- err
				return
			}
			if resp.Num != int64(i) {
				errs <- errors.New("response crosstalk")
			}
		}(i)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}

func TestTCPRemoteAddress(t *testing.T) {
	// Host a server on one fabric, reach it from another via AddRemote —
	// the multi-process deployment path.
	host := NewTCPNetwork("127.0.0.1")
	defer host.Close()
	host.Register(2, echoHandler)

	client := NewTCPNetwork("127.0.0.1")
	defer client.Close()
	client.AddRemote(2, hostAddr(t, host, 2))
	resp, err := client.Send(context.Background(), -1, 2, &Message{Kind: MsgPing, Var: "remote"})
	if err != nil {
		t.Fatal(err)
	}
	if resp.Var != "remote" {
		t.Fatalf("resp = %+v", resp)
	}
}

func hostAddr(t *testing.T, n *TCPNetwork, id types.ServerID) string {
	t.Helper()
	n.mu.Lock()
	defer n.mu.Unlock()
	addr, ok := n.addrs[id]
	if !ok {
		t.Fatalf("no address for server %d", id)
	}
	return addr
}

// TestTCPPoolReusesConnections checks a fabric given nothing but a host is
// a working one with the default sizing, and that sequential sends share
// the peer's connection set instead of dialing per request.
func TestTCPPoolReusesConnections(t *testing.T) {
	n := NewTCPNetwork("127.0.0.1")
	defer n.Close()
	n.Register(0, echoHandler)
	for i := 0; i < 10; i++ {
		if _, err := n.Send(context.Background(), -1, 0, &Message{Kind: MsgPing}); err != nil {
			t.Fatal(err)
		}
	}
	if conns, window := n.MuxConfig(); conns != DefaultMuxConns || window != DefaultMaxInFlight {
		t.Fatalf("default sizing = (%d, %d), want (%d, %d)", conns, window, DefaultMuxConns, DefaultMaxInFlight)
	}
	if live := n.ActiveMuxConns(); live != DefaultMuxConns {
		t.Fatalf("%d live conns after 10 sequential sends, want %d", live, DefaultMuxConns)
	}
	// Non-positive sizing resolves to the same defaults, never to another
	// discipline.
	m := NewTCPNetwork("127.0.0.1")
	defer m.Close()
	m.ConfigureMux(3, 7)
	m.ConfigureMux(0, -1)
	if conns, window := m.MuxConfig(); conns != DefaultMuxConns || window != DefaultMaxInFlight {
		t.Fatalf("ConfigureMux(0, -1) sizing = (%d, %d), want the defaults", conns, window)
	}
}
