package transport

import (
	"context"
	"testing"
)

// TestTCPStalePoolRedial restarts a server under the same address and
// checks the client fabric salvages the next requests: every connection of
// the peer's set died with the old process, and each is replaced against
// the new listener — before the send when the reader already saw the close,
// by the one-shot redial when it had not — so the caller never sees the
// staleness. (TestMuxBrokenConnSalvagedByRedial pins the redial counter,
// with the break under the test's control.)
func TestTCPStalePoolRedial(t *testing.T) {
	echo := func(ctx context.Context, req *Message) *Message {
		return &Message{Kind: MsgOK, Var: req.Var}
	}
	srv, err := NewTCPServer("127.0.0.1:0", echo)
	if err != nil {
		t.Fatal(err)
	}
	addr := srv.Addr()

	n := NewTCPNetwork("127.0.0.1")
	defer n.Close()
	n.AddRemote(3, addr)
	ctx := context.Background()

	resp, err := n.Send(ctx, -1, 3, &Message{Kind: MsgPing, Var: "warm"})
	if err != nil || resp.Var != "warm" {
		t.Fatalf("warmup exchange: %v (%+v)", err, resp)
	}
	if n.MuxRedials() != 0 {
		t.Fatalf("redials after warmup = %d, want 0", n.MuxRedials())
	}

	// Restart the server on the same address: the warm connection is now
	// stale, but the fabric's directory entry is still correct.
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
	srv2, err := NewTCPServer(addr, echo)
	if err != nil {
		t.Fatalf("rebinding %s: %v", addr, err)
	}
	defer srv2.Close()

	// One send per connection of the set and one more, so the stale
	// connection is certainly picked.
	for i := 0; i <= DefaultMuxConns; i++ {
		resp, err = n.Send(ctx, -1, 3, &Message{Kind: MsgPing, Var: "again"})
		if err != nil {
			t.Fatalf("send %d across restart not salvaged: %v", i, err)
		}
		if resp.Var != "again" {
			t.Fatalf("resp = %+v", resp)
		}
	}
	if got := n.MuxRedials(); got > 1 {
		t.Fatalf("redials = %d, want at most 1 for the one stale connection", got)
	}
}
