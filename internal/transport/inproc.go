package transport

import (
	"context"
	"sync"
	"sync/atomic"
	"time"

	"corec/internal/simnet"
	"corec/internal/types"
)

// InProc is the in-process fabric: every server is a registered handler and
// Send invokes the destination handler directly on the caller's goroutine,
// after charging the link-model delay for the request and response sizes.
// Messages cross by reference, so a handler keeps the request's Data and a
// response's Data is the handler's own memory — except under RecvInto,
// which is honoured by copying (see landInto).
// Because callers are real goroutines, contention at a hot server shows up
// as genuine queueing, which the encoding workflow's load balancing reacts
// to — the same dynamic the paper exploits on Titan.
type InProc struct {
	mu       sync.RWMutex
	handlers map[types.ServerID]Handler
	link     simnet.LinkModel
	health   PeerHealth

	msgs  atomic.Int64
	bytes atomic.Int64
}

var _ Network = (*InProc)(nil)

// NewInProc builds an in-process fabric with the given link model.
func NewInProc(link simnet.LinkModel) *InProc {
	return &InProc{handlers: make(map[types.ServerID]Handler), link: link}
}

// Register implements Network. A fresh handler is first-hand news that the
// ID is up, so it also clears any down mark in the peer-health table.
func (n *InProc) Register(id types.ServerID, h Handler) {
	n.mu.Lock()
	n.handlers[id] = h
	n.mu.Unlock()
	n.health.Admit(id)
}

// PeerHealth returns the fabric's peer-health table (see RetryPolicy.Send).
func (n *InProc) PeerHealth() *PeerHealth { return &n.health }

// Unregister implements Network.
func (n *InProc) Unregister(id types.ServerID) {
	n.mu.Lock()
	defer n.mu.Unlock()
	delete(n.handlers, id)
}

// Registered reports whether a handler is installed for id (i.e. the server
// is alive from the fabric's point of view).
func (n *InProc) Registered(id types.ServerID) bool {
	n.mu.RLock()
	defer n.mu.RUnlock()
	_, ok := n.handlers[id]
	return ok
}

// Send implements Network.
func (n *InProc) Send(ctx context.Context, from, to types.ServerID, req *Message) (*Message, error) {
	n.mu.RLock()
	h, ok := n.handlers[to]
	n.mu.RUnlock()
	if !ok {
		return nil, ErrUnreachable
	}
	req.From = from
	reqSize := req.WireSize()
	if err := n.delay(ctx, reqSize); err != nil {
		return nil, err
	}
	resp := h(ctx, req)
	if resp == nil {
		resp = Ok()
	}
	if len(req.RecvInto) > 0 && len(resp.Data) > 0 {
		resp = landInto(req.RecvInto, resp)
	}
	// WireSize walks every field (metas, stripes, box dims); compute it once
	// for both the bandwidth charge and the byte counter.
	respSize := resp.WireSize()
	if err := n.delay(ctx, respSize); err != nil {
		return nil, err
	}
	n.msgs.Add(2)
	n.bytes.Add(int64(reqSize + respSize))
	return resp, nil
}

// landInto gives a by-reference fabric the TCP fabric's RecvInto outcome: a
// copy of the response whose payload lives in the caller's buffer (and
// Overflow), never in memory the handler still holds.
func landInto(into []byte, resp *Message) *Message {
	cp := *resp
	n := copy(into, resp.Data)
	cp.Data = into[:n]
	cp.Overflow = append([]byte(nil), resp.Data[n:]...)
	return &cp
}

func (n *InProc) delay(ctx context.Context, size int) error {
	if n.link.IsFree() {
		return nil
	}
	d := n.link.Delay(size)
	if d <= 0 {
		return nil
	}
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// Stats returns cumulative message and byte counters (both directions).
func (n *InProc) Stats() (msgs, bytes int64) {
	return n.msgs.Load(), n.bytes.Load()
}
