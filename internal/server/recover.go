package server

import (
	"context"
	"fmt"
	"slices"
	"time"

	"corec/internal/matrix"
	"corec/internal/metrics"
	"corec/internal/recovery"
	"corec/internal/transport"
	"corec/internal/types"
)

// DecodeCacheStats reports the decode-matrix cache counters of this server's
// codec. ok is false when the server is not erasure-coding or the cache is
// disabled (DecodeCacheEntries < 0).
func (s *Server) DecodeCacheStats() (stats matrix.CacheStats, ok bool) {
	if s.codec == nil {
		return matrix.CacheStats{}, false
	}
	return s.codec.DecodeCacheStats()
}

// fetchStripeData gathers enough shards of a stripe to reassemble the
// original object of the given size. The systematic fast path reads the k
// data shards; when some are unreachable it falls back to any k surviving
// members and reconstructs (degraded read), charging the decode bucket.
func (s *Server) fetchStripeData(ctx context.Context, id types.StripeID, size int) ([]byte, *types.StripeInfo, error) {
	info, ok := s.stripeInfoFor(ctx, id)
	if !ok {
		return nil, nil, fmt.Errorf("stripe %v not found", id)
	}
	shards := make([][]byte, info.K+info.M)
	have := 0
	// Fast path: data shards only.
	tStart := time.Now()
	for _, member := range info.Members {
		if member.Index >= info.K {
			continue
		}
		if b, ok := s.fetchShard(ctx, member, id); ok {
			shards[member.Index] = b
			have++
		}
	}
	s.col.Add(metrics.Transport, time.Since(tStart))
	if have < info.K {
		// Degraded: pull parity shards until k survive.
		tStart = time.Now()
		for _, member := range info.Members {
			if have >= info.K {
				break
			}
			if member.Index < info.K || shards[member.Index] != nil {
				continue
			}
			if b, ok := s.fetchShard(ctx, member, id); ok {
				shards[member.Index] = b
				have++
			}
		}
		s.col.Add(metrics.Transport, time.Since(tStart))
		if have < info.K {
			return nil, info, fmt.Errorf("stripe %v: only %d of %d shards reachable", id, have, info.K)
		}
		dStart := time.Now()
		if err := s.codec.ReconstructData(shards); err != nil {
			return nil, info, err
		}
		s.col.Add(metrics.Decode, time.Since(dStart))
	}
	data, err := s.codec.Join(shards, size)
	if err != nil {
		return nil, info, err
	}
	return data, info, nil
}

// stripeInfoFor resolves stripe geometry from the local shard cache first
// and the directory second.
func (s *Server) stripeInfoFor(ctx context.Context, id types.StripeID) (*types.StripeInfo, bool) {
	s.mu.Lock()
	for idx := 0; idx < 64; idx++ { // small bounded probe of local cache
		if info, ok := s.shardStripe[shardKey(id, idx)]; ok {
			s.mu.Unlock()
			cp := info
			return &cp, true
		}
	}
	s.mu.Unlock()
	return s.dirLookupStripe(ctx, id)
}

// fetchShard reads one stripe shard, locally when possible.
func (s *Server) fetchShard(ctx context.Context, member types.StripeMember, id types.StripeID) ([]byte, bool) {
	if member.Server == s.id {
		return s.store.Get(shardKey(id, member.Index))
	}
	resp, err := s.sendRetry(ctx, member.Server, &transport.Message{
		Kind: transport.MsgShardGet, Stripe: id, ShardIndex: member.Index,
	})
	if err != nil || resp.Kind != transport.MsgGetBytes || !resp.Flag {
		return nil, false
	}
	return resp.Data, true
}

// handleRecover repairs the named object's local piece (full copy, replica,
// or stripe shard) on this server. It is invoked by on-access lazy repair
// and by the background drain.
func (s *Server) handleRecover(ctx context.Context, req *transport.Message) *transport.Message {
	id := types.ObjectID{Var: req.Var, Box: req.Box}
	repaired, err := s.recoverObject(ctx, id)
	if err != nil {
		return transport.Errf("server %d: recover %s: %v", s.id, id, err)
	}
	s.mu.Lock()
	if s.repairQueue != nil {
		s.repairQueue.MarkRepaired(id.Key())
	}
	s.mu.Unlock()
	return &transport.Message{Kind: transport.MsgOK, Flag: repaired}
}

// recoverObject restores whatever piece of the object this server is
// supposed to hold, according to the directory. Returns whether a repair
// happened.
func (s *Server) recoverObject(ctx context.Context, id types.ObjectID) (bool, error) {
	meta, ok := s.dirLookupMeta(ctx, id)
	if !ok {
		return false, fmt.Errorf("no metadata")
	}
	switch meta.State {
	case types.StateNone:
		// Nothing redundant exists; the data is lost if we were primary.
		return false, nil
	case types.StateReplicated:
		return s.recoverReplicated(ctx, meta)
	case types.StateEncoded:
		return s.recoverEncoded(ctx, meta)
	}
	return false, nil
}

func (s *Server) recoverReplicated(ctx context.Context, meta *types.ObjectMeta) (bool, error) {
	key := meta.ID.Key()
	iAmPrimary := meta.Primary == s.id
	iAmReplica := false
	for _, r := range meta.Replicas {
		if r == s.id {
			iAmReplica = true
		}
	}
	if !iAmPrimary && !iAmReplica {
		return false, nil
	}
	s.mu.Lock()
	_, havePrimary := s.objects[key]
	_, haveReplica := s.replicas[key]
	s.mu.Unlock()
	if (iAmPrimary && havePrimary) || (!iAmPrimary && haveReplica) {
		return false, nil // already intact
	}
	// Fetch a surviving full copy from any other holder.
	var sources []types.ServerID
	if !iAmPrimary {
		sources = append(sources, meta.Primary)
	}
	for _, r := range meta.Replicas {
		if r != s.id {
			sources = append(sources, r)
		}
	}
	tStart := time.Now()
	defer func() { s.col.Add(metrics.Transport, time.Since(tStart)) }()
	for _, src := range sources {
		resp, err := s.sendRetry(ctx, src, &transport.Message{Kind: transport.MsgObjFetch, Key: key})
		if err != nil || resp.Kind != transport.MsgGetBytes || !resp.Flag {
			continue
		}
		sum := s.digestMsg(resp)
		// A source whose bytes fail the directory's recorded checksum has
		// rotted at rest: skip it and try the next holder rather than
		// propagating the corruption into the repaired copy.
		if meta.Checksum != 0 && resp.Version == meta.Version && sum != meta.Checksum {
			continue
		}
		obj := &types.Object{ID: meta.ID, Version: resp.Version, Data: resp.Data}
		// Never clobber a newer copy installed by a concurrent write.
		s.mu.Lock()
		if iAmPrimary {
			if cur, ok := s.objects[key]; ok && cur.Version >= obj.Version {
				s.mu.Unlock()
				return false, nil
			}
			s.objects[key] = obj
		} else {
			if cur, ok := s.replicas[key]; ok && cur.Version >= obj.Version {
				s.mu.Unlock()
				return false, nil
			}
			s.replicas[key] = obj
			s.replicaSums[key] = sum
		}
		s.mu.Unlock()
		if iAmPrimary {
			s.mu.Lock()
			st, known := s.local[key]
			stale := known && st.version > obj.Version
			s.mu.Unlock()
			if !stale {
				s.setLocalState(meta.ID, resp.Version, len(resp.Data), types.StateReplicated, types.StripeID{}, sum, obj)
				if cls := s.decider.Classifier(); cls != nil {
					cls.Track(meta.ID, false)
				}
			}
		}
		return true, nil
	}
	return false, fmt.Errorf("no surviving copy of %s", key)
}

func (s *Server) recoverEncoded(ctx context.Context, meta *types.ObjectMeta) (bool, error) {
	info, ok := s.stripeInfoFor(ctx, meta.Stripe)
	if !ok {
		return false, fmt.Errorf("stripe %v unknown", meta.Stripe)
	}
	var myIndex = -1
	for _, m := range info.Members {
		if m.Server == s.id {
			myIndex = m.Index
			break
		}
	}
	if myIndex < 0 {
		// Not a stripe member. If we are the primary, local bookkeeping is
		// refreshed so transitions keep working.
		if meta.Primary == s.id {
			s.setLocalState(meta.ID, meta.Version, meta.Size, types.StateEncoded, meta.Stripe, meta.Checksum, nil)
		}
		return false, nil
	}
	sk := shardKey(meta.Stripe, myIndex)
	if s.store.Has(sk) {
		if meta.Primary == s.id {
			s.refreshEncodedBookkeeping(meta, info)
		}
		return false, nil
	}
	// Gather any k other shards and rebuild ours.
	shards := make([][]byte, info.K+info.M)
	have := 0
	tStart := time.Now()
	for _, member := range info.Members {
		if member.Index == myIndex || have >= info.K {
			continue
		}
		if b, ok := s.fetchShard(ctx, member, meta.Stripe); ok {
			shards[member.Index] = b
			have++
		}
	}
	s.col.Add(metrics.Transport, time.Since(tStart))
	if have < info.K {
		return false, fmt.Errorf("stripe %v: only %d of %d shards reachable", meta.Stripe, have, info.K)
	}
	dStart := time.Now()
	if err := s.codec.Reconstruct(shards); err != nil {
		return false, err
	}
	s.col.Add(metrics.Decode, time.Since(dStart))
	shardSum := s.digest(shards[myIndex]) // outside s.mu: see encodeObject
	s.mu.Lock()
	s.shardSums[sk] = shardSum
	s.shardStripe[sk] = *info
	s.store.PutTagged(sk, shards[myIndex], shardEpoch(meta.Version))
	s.mu.Unlock()
	s.mutations.Add(1)
	if meta.Primary == s.id {
		s.refreshEncodedBookkeeping(meta, info)
	}
	return true, nil
}

func (s *Server) refreshEncodedBookkeeping(meta *types.ObjectMeta, info *types.StripeInfo) {
	s.mu.Lock()
	st, known := s.local[meta.ID.Key()]
	stale := known && st.version >= meta.Version
	s.mu.Unlock()
	if !known && !stale {
		s.setLocalState(meta.ID, meta.Version, meta.Size, types.StateEncoded, info.ID, meta.Checksum, nil)
		if cls := s.decider.Classifier(); cls != nil {
			cls.Track(meta.ID, true)
		}
	}
}

// dirLookupMeta fetches an object's metadata record from the servers its
// box registers it on (self served locally).
func (s *Server) dirLookupMeta(ctx context.Context, id types.ObjectID) (*types.ObjectMeta, bool) {
	start := time.Now()
	defer func() { s.col.Add(metrics.Metadata, time.Since(start)) }()
	// Consult every mirror and keep the newest record: a mirror that lagged
	// behind a same-version state flip would otherwise feed recovery a
	// record pointing at resources the flip already released.
	var best *types.ObjectMeta
	key := id.Key()
	for _, t := range s.dirPlace.Servers(id.Var, id.Box) {
		var resp *transport.Message
		var err error
		msg := &transport.Message{Kind: transport.MsgMetaLookup, Key: key}
		if t == s.id {
			resp = s.handleMetaLookup(msg)
		} else {
			resp, err = s.sendRetry(ctx, t, msg)
		}
		if err == nil && resp.Kind == transport.MsgOK && resp.Flag {
			if best == nil || resp.Meta.Newer(best) {
				best = resp.Meta
			}
		}
	}
	return best, best != nil
}

// handleRecoverAll runs the full replacement-server recovery protocol on
// behalf of a remote driver (MsgRecoverAll). Num selects the recovery mode;
// the reply returns the repair count, so a fleet harness restarting a
// crashed process can block until the restarted member is whole again.
func (s *Server) handleRecoverAll(ctx context.Context, req *transport.Message) *transport.Message {
	repaired, err := s.RunRecovery(ctx, recovery.Mode(req.Num))
	if err != nil {
		return transport.Errf("server %d: recover-all: %v", s.id, err)
	}
	return &transport.Message{Kind: transport.MsgOK, Num: int64(repaired)}
}

// RunRecovery executes the replacement-server recovery protocol after this
// (fresh) server has taken over a failed server's identity:
//
//  1. Rebuild the local directory shard from the surviving mirror copies.
//  2. Build the repair work list: every object whose primary copy, replica
//     or stripe shard lived here.
//  3. Repair: aggressively (all at once) or lazily (paced so the queue
//     drains within MTBF/4; objects touched by clients repair on access).
//
// The call blocks until the queue drains; run it on its own goroutine for
// background recovery. It returns the number of objects repaired.
func (s *Server) RunRecovery(ctx context.Context, mode recovery.Mode) (int, error) {
	keys, ids, err := s.rebuildDirectoryAndWorklist(ctx)
	if err != nil {
		return 0, err
	}
	queue := recovery.NewQueue(keys)
	s.mu.Lock()
	s.repairQueue = queue
	s.mu.Unlock()

	var pacer *recovery.Pacer
	if mode == recovery.Lazy {
		pacer = recovery.NewPacer(queue.Len(), recovery.Deadline(s.cfg.MTBF))
	} else {
		pacer = recovery.NewPacer(0, 0)
	}
	repaired := 0
	for {
		s.mu.Lock()
		key := queue.Next()
		s.mu.Unlock()
		if key == "" {
			break
		}
		if did, err := s.recoverObject(ctx, ids[key]); err == nil && did {
			repaired++
		}
		s.mu.Lock()
		queue.MarkRepaired(key)
		s.mu.Unlock()
		if iv := pacer.Interval(); iv > 0 {
			select {
			case <-ctx.Done():
				return repaired, ctx.Err()
			case <-time.After(iv):
			}
		}
	}
	s.mu.Lock()
	s.repairQueue = nil
	s.mu.Unlock()
	return repaired, nil
}

// rebuildDirectoryAndWorklist restores this server's directory shard from
// its mirrors and scans the cluster's directory for every object this
// server should hold a piece of: their keys in discovery order, and the
// identity behind each key.
func (s *Server) rebuildDirectoryAndWorklist(ctx context.Context) ([]string, map[string]types.ObjectID, error) {
	var peers []types.ServerID
	if s.ring != nil {
		// Elastic fleets are not contiguous 0..n-1; walk the live ring.
		peers = s.ring.Members()
	} else {
		for i := 0; i < s.place.NumServers(); i++ {
			peers = append(peers, types.ServerID(i))
		}
	}
	var keys []string
	ids := make(map[string]types.ObjectID)
	for _, peer := range peers {
		if peer == s.id {
			continue
		}
		resp, err := s.sendRetry(ctx, peer, &transport.Message{Kind: transport.MsgDirDump})
		if err != nil || resp.Kind != transport.MsgOK {
			continue
		}
		for i := range resp.Metas {
			meta := resp.Metas[i]
			key := meta.ID.Key()
			// Restore directory entries belonging to this server's shard
			// (as owner or mirror of a cell the record's box touches).
			// Flag marks restore mode: never clobber a live same-version
			// record that a concurrent transition may have refreshed.
			if slices.Contains(s.dirPlace.Servers(meta.ID.Var, meta.ID.Box), s.id) {
				s.handleMetaUpdate(&transport.Message{Kind: transport.MsgMetaUpdate, Meta: &meta, Flag: true})
			}
			if _, seen := ids[key]; seen {
				continue
			}
			if s.holdsPieceOf(ctx, &meta) {
				ids[key] = meta.ID
				keys = append(keys, key)
			}
		}
		for i := range resp.Stripes {
			info := resp.Stripes[i]
			if slices.Contains(s.dirPlace.StripeServers(info.ID), s.id) {
				s.handleStripeUpdate(&transport.Message{Kind: transport.MsgStripeUpdate, StripeInfo: &info})
			}
		}
	}
	return keys, ids, nil
}

// holdsPieceOf reports whether this server should hold a piece of the
// object described by meta (primary copy, replica, or stripe shard).
func (s *Server) holdsPieceOf(ctx context.Context, meta *types.ObjectMeta) bool {
	if meta.Primary == s.id {
		return true
	}
	for _, r := range meta.Replicas {
		if r == s.id {
			return true
		}
	}
	if meta.State == types.StateEncoded {
		if info, ok := s.stripeInfoFor(ctx, meta.Stripe); ok {
			for _, m := range info.Members {
				if m.Server == s.id {
					return true
				}
			}
		}
	}
	return false
}

// RepairQueueLen returns the number of pending background repairs (0 when
// no recovery is in progress).
func (s *Server) RepairQueueLen() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.repairQueue == nil {
		return 0
	}
	return s.repairQueue.Len()
}
