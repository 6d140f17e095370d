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

// Status polls every staging server for its status report. Works over any
// transport, including remote clusters — the admin view corec-cli exposes.
func (cl *Client) Status(ctx context.Context) []ServerStatus {
	members := cl.cluster.place.Members()
	out := make([]ServerStatus, len(members))
	for i, id := range members {
		out[i].ID = ServerID(id)
		resp, err := cl.send(ctx, id, &transport.Message{Kind: transport.MsgStats})
		if err != nil || resp.Kind != transport.MsgOK {
			continue
		}
		if json.Unmarshal(resp.Data, &out[i].Stats) == nil {
			out[i].Alive = true
		}
	}
	return out
}

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
	// Scrub reports the anti-entropy scrubber's cumulative counters.
	Scrub ScrubStatus
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
}

// StorageStatus aggregates the per-server tiered storage engines plus the
// cluster-shared remote store: tier occupancy gauges, spill/upload/eviction
// counters, prefetch effectiveness, and crash-restart scan tallies.
type StorageStatus struct {
	// Enabled reports whether the cluster runs the tiered storage engine.
	Enabled bool
	// MemObjects/DiskObjects/RemoteObjects count entries by resident tier,
	// summed over live servers; the *Bytes gauges are the matching volumes
	// (DiskBytes counts live record bytes, not segment file sizes).
	MemObjects    int
	DiskObjects   int
	RemoteObjects int
	MemBytes      int64
	DiskBytes     int64
	RemoteBytes   int64
	// Spills counts L1→L2 demotions that wrote a record; Evictions all L1
	// demotions including clean no-I/O flips; Uploads L2→L3 promotions.
	Spills    int64
	Evictions int64
	Uploads   int64
	// ColdReads counts foreground gets served below L1, split into
	// DiskReads and RemoteReads by the tier that produced the bytes.
	ColdReads   int64
	DiskReads   int64
	RemoteReads int64
	// PrefetchIssued/PrefetchHits measure the next-step pipeline;
	// PrefetchHitRate is hits over cold+prefetch-hit reads.
	PrefetchIssued  int64
	PrefetchHits    int64
	PrefetchHitRate float64
	// BackpressureStalls counts writer stalls on full spill queues.
	BackpressureStalls int64
	// Compactions counts segment rewrites reclaiming dead bytes.
	Compactions int64
	// DiskErrors and RemoteFaults count I/O failures per lower tier.
	DiskErrors   int64
	RemoteFaults int64
	// RestoredRecords/QuarantinedRecords/TruncatedTails sum the open-time
	// disk-scan results (plus read-time quarantines) across restarts.
	RestoredRecords    int64
	QuarantinedRecords int64
	TruncatedTails     int64
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
	// the remaining fields sum their reports: a stripe member swapped counts
	// in ObjectsRepaired, and BytesMoved is the pieces the edits restored.
	Rebalances      int64
	DirRehomed      int64
	ObjectsMoved    int64
	ObjectsRepaired int64
	Handoffs        int64
	BytesMoved      int64
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
}

// ScrubStatus aggregates the anti-entropy scrubber's counters across the
// cluster: payloads verified, at-rest corruption found and repaired,
// stripes re-encoded, and legacy records backfilled with checksums.
type ScrubStatus struct {
	// Scans is the number of payloads checksum-verified.
	Scans int64
	// Bytes is the total volume verified (what the token bucket paces).
	Bytes int64
	// Corruptions is the number of at-rest checksum mismatches detected.
	Corruptions int64
	// Repairs is the number of corrupt or divergent copies restored from a
	// healthy replica or by stripe reconstruction.
	Repairs int64
	// Reencodes is the number of under-protected stripes brought back to
	// full k+m width.
	Reencodes int64
	// Backfills is the number of pre-scrub objects that had checksums
	// computed and recorded on first encounter.
	Backfills int64
	// Skips is the number of payloads passed over because a peer needed
	// for verification was unreachable.
	Skips int64
}

// FabricStatus reports the cluster's fault-tolerance counters.
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
		Scrub: ScrubStatus{
			Scans:       c.col.Counter(metrics.ScrubScanCount),
			Bytes:       c.col.Counter(metrics.ScrubByteCount),
			Corruptions: c.col.Counter(metrics.ScrubCorruptionCount),
			Repairs:     c.col.Counter(metrics.ScrubRepairCount),
			Reencodes:   c.col.Counter(metrics.ScrubReencodeCount),
			Backfills:   c.col.Counter(metrics.ScrubBackfillCount),
			Skips:       c.col.Counter(metrics.ScrubSkipCount),
		},
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
	servers := c.serversByID()
	for _, s := range servers {
		if cs, ok := s.DecodeCacheStats(); ok {
			st.Encoding.DecodeCacheHits += cs.Hits
			st.Encoding.DecodeCacheMisses += cs.Misses
		}
	}
	if c.cfg.Storage != nil {
		ss := &st.Storage
		ss.Enabled = true
		for _, s := range servers {
			es := s.StorageStats()
			ss.MemObjects += es.MemObjects
			ss.DiskObjects += es.DiskObjects
			ss.RemoteObjects += es.RemoteObjects
			ss.MemBytes += es.MemBytes
			ss.DiskBytes += es.DiskLiveBytes
			ss.RemoteBytes += es.RemoteBytes
			ss.Spills += es.Spills
			ss.Evictions += es.Evictions
			ss.Uploads += es.Uploads
			ss.ColdReads += es.ColdReads
			ss.DiskReads += es.DiskReads
			ss.RemoteReads += es.RemoteReads
			ss.PrefetchIssued += es.PrefetchIssued
			ss.PrefetchHits += es.PrefetchHits
			ss.BackpressureStalls += es.BackpressureStalls
			ss.Compactions += es.Compactions
			ss.DiskErrors += es.DiskErrors
			ss.RemoteFaults += es.RemoteFaults
			ss.RestoredRecords += es.RestoredRecords
			ss.QuarantinedRecords += es.QuarantinedRecords
			ss.TruncatedTails += es.TruncatedTails
		}
		// Hit rate over the reads prefetching could have served: the cold
		// reads that missed plus the staged reads that hit.
		if total := ss.ColdReads + ss.PrefetchHits; total > 0 {
			ss.PrefetchHitRate = float64(ss.PrefetchHits) / float64(total)
		}
		if c.remote != nil {
			ss.Remote = c.remote.Stats()
		}
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
		r := e.rebalanced
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
		ms.DirRehomed = int64(r.DirRehomed)
		ms.ObjectsMoved = int64(r.Moved)
		ms.ObjectsRepaired = int64(r.Repaired)
		ms.Handoffs = int64(r.Handoffs)
		ms.BytesMoved = r.BytesMoved
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
