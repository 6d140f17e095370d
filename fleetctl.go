package corec

import (
	"context"
	"fmt"
	"sync"

	"corec/internal/transport"
	"corec/internal/types"
)

// Fleet control plane: client-side drivers for operations that Cluster
// methods can only perform on in-process servers. A multi-process fleet —
// each corec-server process hosting a LocalServers subset — is driven over
// the wire instead: step boundaries via MsgStepEnd, replacement-server
// recovery via MsgRecoverAll. The cluster harness (internal/cluster) and
// corec-cli build on these.

// EndTimeStepAll runs end-of-step processing for the time step on every
// reachable member and blocks until each server's background encode queue
// drains — the remote equivalent of Cluster.EndTimeStep. It returns the
// fleet-wide demotion and promotion totals. Unreachable members are
// skipped (a fleet mid-churn still reaches a step boundary); the first
// application-level error is returned after all servers were attempted.
func (cl *Client) EndTimeStepAll(ctx context.Context, ts Version) (demoted, promoted int, err error) {
	members := cl.cluster.place.Members()
	var wg sync.WaitGroup
	var mu sync.Mutex
	for _, id := range members {
		wg.Add(1)
		go func(id types.ServerID) {
			defer wg.Done()
			resp, serr := cl.send(ctx, id, &transport.Message{Kind: transport.MsgStepEnd, Version: ts})
			if serr != nil {
				return // unreachable: dead or draining member, skip
			}
			mu.Lock()
			defer mu.Unlock()
			if rerr := resp.AsError(); rerr != nil {
				if err == nil {
					err = fmt.Errorf("corec: step-end on server %d: %w", id, rerr)
				}
				return
			}
			demoted += int(resp.Num >> 32)
			promoted += int(resp.Num & 0xffffffff)
		}(id)
	}
	wg.Wait()
	return demoted, promoted, err
}

// RecoverServer instructs one server to run the full replacement-server
// recovery protocol (directory rebuild plus repair of every piece it
// should hold) and blocks until the repair queue drains. The harness calls
// this after restarting a crashed process, so the restarted member is
// whole before the run resumes. Returns the number of objects repaired.
//
// Recovery of a populated server can take a while; the context bounds it.
//
// The call is the operator's word that the server is up again — the remote
// handle's counterpart of Cluster.Replace — so it re-admits the peer in the
// fabric's health table instead of waiting out the half-open interval.
func (cl *Client) RecoverServer(ctx context.Context, id ServerID, mode RecoveryMode) (int, error) {
	cl.cluster.health.Admit(types.ServerID(id))
	resp, err := cl.send(ctx, types.ServerID(id), &transport.Message{Kind: transport.MsgRecoverAll, Num: int64(mode)})
	if err != nil {
		return 0, err
	}
	if err := resp.AsError(); err != nil {
		return 0, err
	}
	return int(resp.Num), nil
}
