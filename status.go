package corec

import (
	"context"
	"encoding/json"
	"fmt"
	"sort"
	"time"

	"corec/internal/membership"
	"corec/internal/metrics"
	"corec/internal/server"
	"corec/internal/storage"
	"corec/internal/transport"
	"corec/internal/types"
)

// ServerStatus is one staging server's self-reported status (see
// server.Stats); Alive is false for unreachable servers, with zeroed
// counters.
type ServerStatus struct {
	ID    ServerID
	Alive bool
	Stats server.Stats
}

// Status polls every member for its status report (MsgStats): the record
// FabricStatus carries and sums, and StorageReport sums.
// It resends a lost request as any send does but only observes: it counts
// no retries and leaves the fabric's health table as it found it.
func (cl *Client) Status(ctx context.Context) []ServerStatus {
	c := cl.cluster
	members := c.place.Members()
	out := make([]ServerStatus, len(members))
	for i, id := range members {
		out[i].ID = id
		resp, _, err := c.retry.Send(ctx, unwatched{c.net}, cl.id, id, &transport.Message{Kind: transport.MsgStats})
		if err != nil || resp.Kind != transport.MsgOK {
			continue
		}
		if json.Unmarshal(resp.Data, &out[i].Stats) == nil {
			out[i].Alive = true
		}
	}
	return out
}

// unwatched hides the fabric's health table from the retry layer: a send
// through it neither fails fast against a peer marked down nor marks one.
type unwatched struct{ transport.Network }

// FabricStatus aggregates the cluster's fault-tolerance view: the RPC
// layer's retry and failover counters, the directory's and the read path's,
// the per-subsystem views below, and — when a FaultPlan wraps the fabric —
// the injector's fault tallies.
type FabricStatus struct {
	// Retries is the number of resent RPC attempts (client and server side).
	Retries int64
	// Failovers is the number of writes rerouted to a successor primary.
	// The placed primary's recovery restores its copy like any other.
	Failovers int64
	// CorruptFrames is the number of CRC32 integrity failures that
	// persisted through a sender's whole retry policy.
	CorruptFrames int64
	// Faults is the number of fabric faults that exhausted a sender's
	// retry policy; faults absorbed by a retry count toward Retries.
	Faults int64
	// MirrorRepairs is the number of degraded directory-group writes
	// re-mirrored by hinted handoff at step boundaries.
	MirrorRepairs int64
	// DirFallbacks is the number of region lookups repeated against the
	// whole fleet because the directory groups of the region's cells did
	// not account for all of it.
	DirFallbacks int64
	// DirSecondAsks is the number of region lookups the first directory mirror
	// asked did not settle: mirrors diverge, or readers run ahead of writers.
	DirSecondAsks int64
	// PrimaryReads is the number of gets an object's primary answered, record
	// and bytes in one request, with no directory lookup; PrimaryMisses the
	// number asked of a primary that did not answer them and went on to the
	// directory.
	PrimaryReads  int64
	PrimaryMisses int64
	// Injected reports the fault injector's counters; zero without a plan.
	Injected transport.FaultStats
	// Scrub sums the members' cumulative scrub reports (server.Stats
	// Scrub): a killed server's tallies leave with it, as its storage
	// tallies do.
	Scrub ScrubReport
	// Encoding reports the erasure engine's configuration and decode-matrix
	// cache effectiveness.
	Encoding EncodingStatus
	// Transport reports the TCP fabric's multiplexing and buffer-pool view
	// (zero for the in-process fabric) and, on every fabric, the
	// peer-health table's PeersDown and FastFails.
	Transport TransportStatus
	// Membership reports the elastic-membership plane's view; zero (with
	// Enabled false) for static fleets.
	Membership MembershipStatus
	// Storage reports the tiered storage engines' aggregated view; zero
	// (with Enabled false) when the cluster stages purely in memory.
	Storage StorageStatus
	// Servers is each member's own report, from the one poll the sums above
	// were taken from: corec-cli status prints both views off one call.
	Servers []ServerStatus
}

// StorageStatus sums the live servers' tiered storage engines (tier
// occupancy gauges, spill/upload/eviction counters, crash-restart scan
// tallies) and adds prefetch effectiveness and the cluster-shared remote
// store's own view.
type StorageStatus struct {
	// Enabled reports whether the cluster runs the tiered storage engine.
	Enabled bool
	storage.Stats
	// PrefetchHitRate is prefetch hits over cold+prefetch-hit reads.
	PrefetchHitRate float64
	// Remote is the shared L3 store's own view (object count, transfer
	// tallies, injected faults); zero without a remote tier.
	Remote storage.RemoteStats
}

// MembershipStatus aggregates the gossip failure detector and live
// rebalancing counters across the fleet's agents.
type MembershipStatus struct {
	// Enabled reports whether the cluster runs elastic membership.
	Enabled bool
	// RingEpoch is the placement ring's version; it moves on every join,
	// leave or gossip-confirmed death.
	RingEpoch uint64
	// Members is the ring's current member count; Agents the number of
	// locally running gossip agents.
	Members int
	Agents  int
	// Probes/IndirectProbes count probe RPCs issued fleet-wide.
	Probes         int64
	IndirectProbes int64
	// Suspicions counts alive→suspect transitions observed; Refutations the
	// incarnation bumps suspects performed to cancel suspicions of
	// themselves; FalsePositives the suspicions that ended refuted rather
	// than confirmed (each one a server nearly evicted wrongly).
	Suspicions     int64
	Refutations    int64
	FalsePositives int64
	// ArcsMoved is the cumulative count of ring arcs that changed owner —
	// the incremental-recomputation measure (a join or leave moves only the
	// arcs adjacent to the touched server's virtual nodes).
	ArcsMoved int64
	// Rebalances counts finished Rebalance passes, cut-short ones included;
	// Rebalanced sums their reports.
	Rebalances int64
	Rebalanced RebalanceReport
}

// TransportStatus aggregates the TCP fabric's transport-performance view:
// the sizing in effect, live connection and in-flight gauges, the redial
// salvage counter, and frame buffer-pool effectiveness.
type TransportStatus struct {
	// MuxConnsPerPeer is the resolved connection count per peer.
	MuxConnsPerPeer int
	// ActiveMuxConns is the current number of live multiplexed connections.
	ActiveMuxConns int
	// InFlight is the current number of requests in flight.
	InFlight int64
	// MuxRedials counts requests salvaged by replacing a broken multiplexed
	// connection.
	MuxRedials int64
	// PoolHits/PoolMisses count frame-buffer pool outcomes process-wide;
	// PoolHitRate is hits/(hits+misses).
	PoolHits    int64
	PoolMisses  int64
	PoolHitRate float64
	// PeersDown is the number of peers this process's retry layer currently
	// fails fast against (gauge); FastFails counts the sends it refused
	// without touching the fabric. Both are read straight off the fabric's
	// transport.PeerHealth table and are filled for every fabric.
	PeersDown int
	FastFails int64
}

// EncodingStatus aggregates the parallel erasure engine's view: the worker
// bound in effect and decode-matrix cache outcomes summed over the local
// servers plus the client-side codec used for degraded reads.
type EncodingStatus struct {
	// Workers is the engine's range-parallelism bound (0 without coding).
	Workers int
	// DecodeCacheHits/DecodeCacheMisses count cached vs freshly inverted
	// decode matrices across degraded reads and recovery.
	DecodeCacheHits   int64
	DecodeCacheMisses int64
	// TokenlessEncodes sums the members' encodes run without their group's
	// encoding token (server.Stats TokenlessEncodes).
	TokenlessEncodes int64
}

// FabricStatus reports the cluster's fault-tolerance counters: this
// process's own, read before the fleet is polled so the call does not count
// its own traffic, and the fleet's, summed from Client.Status.
func (c *Cluster) FabricStatus() FabricStatus {
	st := FabricStatus{
		Retries:       c.col.Counter(metrics.RetryCount),
		Failovers:     c.col.Counter(metrics.FailoverCount),
		CorruptFrames: c.col.Counter(metrics.CorruptFrameCount),
		Faults:        c.col.Counter(metrics.FaultCount),
		MirrorRepairs: c.col.Counter(metrics.MirrorRepairCount),
		DirFallbacks:  c.col.Counter(metrics.DirFallbackCount),
		DirSecondAsks: c.col.Counter(metrics.DirSecondAskCount),
		PrimaryReads:  c.col.Counter(metrics.PrimaryReadCount),
		PrimaryMisses: c.col.Counter(metrics.PrimaryMissCount),
	}
	if c.faults != nil {
		st.Injected = c.faults.Stats()
	}
	st.Transport.PeersDown = c.health.PeersDown()
	st.Transport.FastFails = c.health.FastFails()
	if tn := c.tcpNet(); tn != nil {
		ts := &st.Transport
		ts.MuxConnsPerPeer, _ = tn.MuxConfig()
		ts.ActiveMuxConns = tn.ActiveMuxConns()
		ts.InFlight = tn.InFlight()
		ts.MuxRedials = tn.MuxRedials()
		ts.PoolHits, ts.PoolMisses = transport.BufferPoolStats()
		if total := ts.PoolHits + ts.PoolMisses; total > 0 {
			ts.PoolHitRate = float64(ts.PoolHits) / float64(total)
		}
	}
	if c.codec != nil {
		st.Encoding.Workers = c.codec.Workers()
		if cs, ok := c.codec.DecodeCacheStats(); ok {
			st.Encoding.DecodeCacheHits += cs.Hits
			st.Encoding.DecodeCacheMisses += cs.Misses
		}
	}
	ss := &st.Storage
	ss.Enabled = c.cfg.Storage != nil
	st.Servers = c.ctl.Status(contextBackground)
	for _, s := range st.Servers {
		rec := s.Stats // zero for a member that did not answer
		st.Scrub.Add(rec.Scrub)
		st.Encoding.DecodeCacheHits += rec.DecodeCacheHits
		st.Encoding.DecodeCacheMisses += rec.DecodeCacheMisses
		st.Encoding.TokenlessEncodes += rec.TokenlessEncodes
		if ss.Enabled {
			ss.Add(rec.Storage)
		}
	}
	// Hit rate over the reads prefetching could have served: the cold
	// reads that missed plus the staged reads that hit.
	if total := ss.ColdReads + ss.PrefetchHits; total > 0 {
		ss.PrefetchHitRate = float64(ss.PrefetchHits) / float64(total)
	}
	if c.remote != nil {
		ss.Remote = c.remote.Stats()
	}
	if e := c.elastic; e != nil {
		ms := &st.Membership
		ms.Enabled = true
		ms.RingEpoch = e.ring.Epoch()
		ms.Members = e.ring.Size()
		e.mu.Lock()
		agents := make([]*membership.Agent, 0, len(e.agents))
		for _, a := range e.agents {
			agents = append(agents, a)
		}
		ms.Rebalances = e.passes
		ms.Rebalanced = e.rebalanced
		e.mu.Unlock()
		sort.Slice(agents, func(i, j int) bool { return agents[i].ID() < agents[j].ID() })
		ms.Agents = len(agents)
		// Outside the elastic lock: each Stats call takes its agent's lock.
		for _, a := range agents {
			as := a.Stats()
			ms.Probes += as.Probes
			ms.IndirectProbes += as.IndirectProbes
			ms.Suspicions += as.Suspicions
			ms.Refutations += as.Refutations
			ms.FalsePositives += as.FalsePositives
		}
		ms.ArcsMoved = e.arcsMoved.Load()
	}
	return st
}

// WaitForVersion blocks until at least one object of the variable
// intersecting box reaches the given version (or ctx expires) — the
// coupling primitive an analysis rank uses to consume a simulation's
// time steps as they are staged. Returns the matching metadata.
func (cl *Client) WaitForVersion(ctx context.Context, name string, box Box, version Version) ([]types.ObjectMeta, error) {
	backoff := 200 * time.Microsecond
	const maxBackoff = 20 * time.Millisecond
	for {
		metas, err := cl.queryDirectory(ctx, name, box, 0)
		if err == nil {
			var ready []types.ObjectMeta
			for _, m := range metas {
				if m.Version >= version {
					ready = append(ready, m)
				}
			}
			if len(ready) > 0 {
				return ready, nil
			}
		}
		select {
		case <-ctx.Done():
			return nil, fmt.Errorf("corec: waiting for %s v%d: %w", name, version, ctx.Err())
		case <-time.After(backoff):
		}
		if backoff < maxBackoff {
			backoff *= 2
		}
	}
}
