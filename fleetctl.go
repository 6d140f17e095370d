package corec

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"sync"

	"corec/internal/scrub"
	"corec/internal/transport"
	"corec/internal/types"
)

// Fleet control plane: the one implementation of each fleet verb, a message
// to every member — MsgStepEnd, MsgRecoverAll, MsgScrub, and MsgStats
// (status.go). Cluster's verbs call these through the cluster's own control
// client, so every kind of fleet takes one path and fabric faults reach the
// verbs too; the cluster harness and corec-cli call them directly.

// control sends one request to member id. A member the fabric cannot reach
// (dead, or marked down) answers nil with no error; any other failure is
// returned naming the member.
func (cl *Client) control(ctx context.Context, id types.ServerID, msg *transport.Message) (*transport.Message, error) {
	resp, err := cl.send(ctx, id, msg)
	if err == nil {
		err = resp.AsError()
	}
	if err == nil || errors.Is(err, transport.ErrUnreachable) {
		return resp, nil
	}
	return nil, fmt.Errorf("corec: %v on server %d: %w", msg.Kind, id, err)
}

// firstAnswer sends msg to each of ids in turn and returns the first member
// that answers it without an error, with its reply: the one lookup for what
// any member can tell (the fleet's shape, its gossip view) or do (relay a
// join). When none answers, the error is the last member's.
func firstAnswer(ctx context.Context, send func(context.Context, types.ServerID, *transport.Message) (*transport.Message, error), ids []types.ServerID, msg *transport.Message) (types.ServerID, *transport.Message, error) {
	err := errors.New("corec: no server reachable")
	for _, id := range ids {
		var resp *transport.Message
		if resp, err = send(ctx, id, msg); err == nil {
			err = resp.AsError()
		}
		if err == nil {
			return id, resp, nil
		}
	}
	return -1, nil, err
}

// EndTimeStepAll runs end-of-step processing for the time step on every
// member and blocks until each server's background encode queue drains. It
// returns the fleet-wide demotion and promotion totals. Unreachable members
// are skipped (a fleet mid-churn still reaches a step boundary); a live
// member that missed the step is an error naming it.
func (cl *Client) EndTimeStepAll(ctx context.Context, ts Version) (demoted, promoted int, err error) {
	members := cl.cluster.place.Members()
	errs := make([]error, len(members))
	var wg sync.WaitGroup
	var mu sync.Mutex
	for i, id := range members {
		wg.Add(1)
		go func() {
			defer wg.Done()
			resp, err := cl.control(ctx, id, &transport.Message{Kind: transport.MsgStepEnd, Version: ts})
			if err != nil || resp == nil {
				errs[i] = err
				return
			}
			mu.Lock()
			defer mu.Unlock()
			demoted += int(resp.Num >> 32)
			promoted += int(resp.Num & 0xffffffff)
		}()
	}
	wg.Wait()
	return demoted, promoted, errors.Join(errs...)
}

// RecoverServer has one server, after a Cluster.Replace or a process
// restart, run the full replacement-server recovery (directory rebuild, then
// repair of every piece it should hold) and blocks, within ctx, until it
// ends. Returns the objects repaired. The call is the operator's word that
// the server is up, so it re-admits the peer in the fabric's health table.
func (cl *Client) RecoverServer(ctx context.Context, id ServerID, mode RecoveryMode) (int, error) {
	cl.cluster.health.Admit(id)
	resp, err := cl.send(ctx, id, &transport.Message{Kind: transport.MsgRecoverAll, Num: int64(mode)})
	if err == nil {
		err = resp.AsError()
	}
	if err != nil {
		return 0, err
	}
	return int(resp.Num), nil
}

// Scrub runs one synchronous anti-entropy sweep over the given members (none
// given: every member), one at a time, and returns the summed report. A local
// pass runs on every member before any full pass (at the configured depth),
// so each at-rest rot is counted by its holder before a peer's cross-check
// repairs it: seeded detection totals are deterministic. Unreachable members
// are skipped.
func (cl *Client) Scrub(ctx context.Context, ids ...ServerID) (ScrubReport, error) {
	if len(ids) == 0 {
		ids = cl.cluster.place.Members()
	}
	full := scrub.DefaultConfig().Depth
	if sc := cl.cluster.cfg.Scrub; sc != nil {
		full = sc.Depth
	}
	var total ScrubReport
	var errs []error
	for _, depth := range []scrub.Depth{scrub.DepthLocal, full} {
		for _, id := range ids {
			resp, err := cl.control(ctx, id, &transport.Message{Kind: transport.MsgScrub, Num: int64(depth)})
			if err == nil && resp != nil {
				var rep ScrubReport
				if err = json.Unmarshal(resp.Data, &rep); err == nil {
					total.Add(rep)
				}
			}
			errs = append(errs, err)
		}
	}
	return total, errors.Join(errs...)
}
