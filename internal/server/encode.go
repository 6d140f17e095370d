package server

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"sync"
	"time"

	"corec/internal/metrics"
	"corec/internal/reader"
	"corec/internal/transport"
	"corec/internal/types"
)

// errRingMoved reports an encode abandoned because the placement's epoch
// moved under it: membership changed.
var errRingMoved = errors.New("ring membership changed while encoding")

// encodeObject transitions an object to the erasure-coded state following
// the paper's encoding workflow (Figure 6):
//
//  1. Acquire the replication group's encoding token (conflict avoidance).
//  2. Compare own load with the helper (replica holder); the less busy
//     server performs the expensive split+encode and the remote shard
//     distribution (load balancing).
//  3. Place the k+m shards across the coding group, primary keeping data
//     shard 0; publish the object's record, which carries the stripe's
//     layout; drop surplus replicas and the full local copy.
//
// reuse carries the existing stripe ID when re-encoding an updated object
// (zero value mints a fresh stripe). dropReplicas is set when the object
// was previously replicated.
func (s *Server) encodeObject(ctx context.Context, obj *fullCopy, reuse types.StripeID, dropReplicas bool) error {
	if s.codec == nil {
		return fmt.Errorf("no codec configured")
	}
	key := obj.ID.Key()
	epoch := s.place.Epoch()
	members := s.place.CodingGroup(s.id)
	k, m := s.codec.DataShards(), s.codec.ParityShards()
	if len(members) != k+m {
		return fmt.Errorf("coding group has %d members, stripe needs %d", len(members), k+m)
	}

	stripeID := reuse
	if stripeID == (types.StripeID{}) {
		// The group half is the minting server's id. The sequence half is
		// the server's hybrid logical clock with that id folded into the low
		// byte: the clock makes ids unique across the lifetimes of one
		// server id — including a crashed process restarted in a fresh OS
		// process, where any in-memory counter would restart and re-mint a
		// dead predecessor's ids, silently rebinding the shard keys that
		// surviving objects' records still point at.
		stripeID = types.StripeID{
			Group: int(s.id),
			Seq:   s.nextMetaSeq()<<8 | uint64(s.id)&0xff,
		}
	}

	release := s.acquireToken(ctx)
	defer release()

	// Split locally, always on the primary so it keeps shard 0 without any
	// transfer. The data shards are windows of obj.Data (see Codec.Split)
	// and leave for their members straight from it; shard 0 is copied out
	// at commit.
	shards, shardSize := s.codec.Split(obj.Data)
	info := &types.StripeInfo{ID: stripeID, K: k, M: m, ShardSize: shardSize}
	for i, member := range members {
		info.Members = append(info.Members, types.StripeMember{Server: member, Index: i})
	}

	// Load-balancing decision: delegate the encode+distribute to the helper
	// (the replica holder) when it is measurably less busy.
	gen := s.reader.Health.Generation()
	delegated := false
	if s.cfg.HelperLoadDelta >= 0 && s.decider.DemotesInBackground() && dropReplicas {
		if helper, ok := s.pickHelper(ctx); ok {
			delegated = s.delegateEncode(ctx, helper, obj, info)
		}
	}

	if !delegated {
		// Local encode: GF math charged to the encode bucket.
		start := time.Now()
		if err := s.codec.Encode(shards); err != nil {
			return err
		}
		s.col.Add(metrics.Encode, time.Since(start))

		s.pushShards(ctx, info, shards, obj, s.id)
	}

	// Commit, stage 1: install the primary's data shard 0, but keep the
	// full copy until the directory flip lands so a concurrent reader
	// holding replicated-state metadata always finds the object. Abort if
	// a concurrent write superseded the version we encoded.
	sk := shardKey(stripeID, 0)
	// Digests are computed outside s.mu: every handler on this server takes
	// that lock, and a shard-sized CRC pass under it stalls them all. So is
	// the copy that gives the kept shard memory of its own.
	shardSum := s.digest(shards[0])
	kept := bytes.Clone(shards[0])
	s.mu.Lock()
	cur, stillThere := s.objects[key]
	// Identity, not version: a rewrite within the same time step reuses
	// the version number, and committing the old bytes over it would lose
	// the newer write.
	if !stillThere || cur != obj {
		s.mu.Unlock()
		s.dropStripe(ctx, info)
		return nil
	}
	// Nor may the placement have moved since the members were chosen: one
	// that left meanwhile took its shard with it (a server that rejoins under
	// the same id comes back empty), and committing would trade the full
	// copies for a stripe already short of shards. The object stays as it
	// was; the next attempt places over the fleet as it then is. A static
	// fleet's epoch never moves.
	if s.place.Epoch() != epoch {
		s.mu.Unlock()
		s.dropStripe(ctx, info)
		return errRingMoved
	}
	s.holdShardLocked(stripeID, 0, shardSum, info)
	// The engine install happens under s.mu so it is atomic with the
	// identity check above (the engine never takes s.mu back).
	s.store.PutTagged(sk, kept, shardEpoch(obj.Version))
	s.mu.Unlock()

	// Commit, stage 2: flip the directory. The one update carries the new
	// state and the stripe's layout, so no reader can hold an encoded record
	// whose stripe does not resolve. Its checksum is the one the full copy
	// carries: the whole object is not read again.
	meta := s.buildMeta(obj, types.StateEncoded, info)
	s.setLocalState(meta)
	if err := s.dirUpdate(ctx, meta); err != nil {
		return err
	}
	// A member replaced while the shards were in flight came back empty, and
	// its recovery, which scanned the directory before this flip, cannot know
	// of the stripe: push the shards again before the replicas go. Once the
	// flip is in, a replacement that arrives later recovers from the record.
	if s.reader.Health.Generation() != gen {
		if delegated {
			if err := s.codec.Encode(shards); err != nil {
				return err
			}
		}
		s.pushShards(ctx, info, shards, obj, s.id)
	}

	// Commit, stage 3: release the full copy (identity-checked: a racing
	// newer write keeps its data) and shed the surplus replicas.
	s.mu.Lock()
	if cur, ok := s.objects[key]; ok && cur == obj {
		dropCopyLocked(s.objects, key)
	}
	s.mu.Unlock()
	if dropReplicas {
		tStart := time.Now()
		for _, t := range s.place.ReplicaHolders(s.id) {
			msg := &transport.Message{Kind: transport.MsgReplicaDrop, Key: key, Version: obj.Version}
			_, _ = s.sendRetry(ctx, t, msg) // dead holder needs no drop
		}
		s.col.Add(metrics.Transport, time.Since(tStart))
	}

	s.decider.SetEncoded(obj.ID, true)
	return nil
}

// pickHelper returns the first replica holder whose load is lower than the
// local load by more than HelperLoadDelta. An idle server skips the load
// probes entirely — delegation only pays when the primary is busy.
func (s *Server) pickHelper(ctx context.Context) (types.ServerID, bool) {
	own := s.Load()
	if own <= s.cfg.HelperLoadDelta {
		return types.InvalidServer, false
	}
	for _, t := range s.place.ReplicaHolders(s.id) {
		resp, err := s.sendRetry(ctx, t, &transport.Message{Kind: transport.MsgLoadQuery})
		if err != nil || resp.Kind != transport.MsgOK {
			continue
		}
		if own > resp.Num+s.cfg.HelperLoadDelta {
			return t, true
		}
	}
	return types.InvalidServer, false
}

// delegateEncode asks the helper (which holds a replica of the object) to
// perform the encode and remote shard distribution. Returns false when the
// delegation failed and the caller must encode locally.
func (s *Server) delegateEncode(ctx context.Context, helper types.ServerID, obj *fullCopy, info *types.StripeInfo) bool {
	msg := &transport.Message{
		Kind:       transport.MsgEncodeDelegate,
		Key:        obj.ID.Key(),
		Version:    obj.Version,
		Stripe:     info.ID,
		StripeInfo: info,
		Num:        int64(s.id), // primary: skip its shard during distribution
	}
	start := time.Now()
	resp, err := s.sendRetry(ctx, helper, msg)
	s.col.Add(metrics.Transport, time.Since(start))
	if err != nil || resp.AsError() != nil || resp.Kind != transport.MsgOK || !resp.Flag {
		return false
	}
	return true
}

// handleEncodeDelegate performs an encode on behalf of the primary, using
// the local replica as the data source. Shards destined for the primary are
// skipped: the primary cuts its own shard 0 locally.
func (s *Server) handleEncodeDelegate(ctx context.Context, req *transport.Message) *transport.Message {
	if s.codec == nil || req.StripeInfo == nil {
		return transport.Errf("server %d: malformed delegate request", s.id)
	}
	s.mu.Lock()
	obj, ok := s.replicas[req.Key]
	hold := obj.hold() // the encode reads Data outside s.mu
	s.mu.Unlock()
	defer hold.Release()
	if !ok || obj.Version != req.Version {
		// No replica, or a stale/newer one relative to the version the
		// primary is transitioning; refuse so the primary encodes the
		// authoritative bytes itself.
		return &transport.Message{Kind: transport.MsgOK, Flag: false}
	}

	shards, shardSize := s.codec.Split(obj.Data)
	if shardSize != req.StripeInfo.ShardSize {
		return &transport.Message{Kind: transport.MsgOK, Flag: false}
	}
	start := time.Now()
	if err := s.codec.Encode(shards); err != nil {
		return transport.Errf("server %d: delegate encode: %v", s.id, err)
	}
	s.col.Add(metrics.Encode, time.Since(start))

	// The helper is a coding-group member and its own shard reaches it by
	// reference: a shard that is a window of the replica gets memory of its
	// own before this server keeps it.
	for _, member := range req.StripeInfo.Members {
		if member.Server == s.id && (member.Index+1)*shardSize <= len(obj.Data) {
			shards[member.Index] = bytes.Clone(shards[member.Index])
		}
	}
	s.pushShards(ctx, req.StripeInfo, shards, obj, types.ServerID(req.Num))
	return &transport.Message{Kind: transport.MsgOK, Flag: true}
}

// eachMember runs send for every member of a stripe concurrently, so a push
// or a drop of k+m shards costs one round trip rather than one per shard (the
// reader's gather does the same for reads), and charges the wall time of the
// whole fan-out to the transport bucket.
func (s *Server) eachMember(info *types.StripeInfo, send func(types.StripeMember)) {
	start := time.Now()
	var wg sync.WaitGroup
	for _, member := range info.Members {
		wg.Add(1)
		go func() {
			defer wg.Done()
			send(member)
		}()
	}
	wg.Wait()
	s.col.Add(metrics.Transport, time.Since(start))
}

// pushShards distributes the shards 1..k+m-1 of a stripe encoded from obj,
// which the caller holds, to their members; obj's version rides along as the
// holders' time-step tag. Shard 0, and any shard placed on primary, is
// skipped: the primary cuts its own from its full copy. A dead member leaves
// the stripe degraded until recovery, which is tolerated within m losses;
// a failed push has nothing to undo.
func (s *Server) pushShards(ctx context.Context, info *types.StripeInfo, shards [][]byte, obj *fullCopy, primary types.ServerID) {
	s.eachMember(info, func(member types.StripeMember) {
		if member.Index == 0 || member.Server == primary {
			return
		}
		data := shards[member.Index]
		_, _ = s.sendRetry(ctx, member.Server, &transport.Message{
			Kind:       transport.MsgShardPut,
			Stripe:     info.ID,
			ShardIndex: member.Index,
			Data:       data,
			Buf:        obj.bufOf(member.Index, info.ShardSize, data),
			StripeInfo: info,
			Version:    obj.Version,
		})
	})
}

// bufOf returns the buffer shard i of c's split lives in: c's own while the
// shard is the window of c.Data that Split made it, nil once it has memory
// of its own (a parity shard, a padded last data shard, a clone).
func (c *fullCopy) bufOf(i, shardSize int, shard []byte) *transport.Buffer {
	if (i+1)*shardSize <= len(c.Data) && len(shard) > 0 && &shard[0] == &c.Data[i*shardSize] {
		return c.buf
	}
	return nil
}

// dropStripe drops every shard of a stripe (nil: none to drop) from its
// members: an encoded object was promoted back to replication, rewritten,
// handed off or deleted, or an encode lost the race to a newer write. The
// caller brings the layout — from its own record, or the stripe it just built
// — and no directory is involved: nothing points at a dropped stripe except
// a superseded record, and a reader still holding that takes the data-loss
// path, refetches the object's record and retries.
func (s *Server) dropStripe(ctx context.Context, info *types.StripeInfo) {
	if info == nil {
		return
	}
	s.eachMember(info, func(member types.StripeMember) {
		msg := &transport.Message{Kind: transport.MsgShardDrop, Stripe: info.ID, ShardIndex: member.Index}
		_, _ = s.sendRetry(ctx, member.Server, msg) // dead member holds nothing
	})
}

// EndTimeStep applies the decider's end-of-step transitions: demote cooled
// objects to erasure coding, and promote reheated encoded objects back to
// replication while the storage constraint has slack. Where the write path
// encodes itself there are none. It returns the number of demotions and
// promotions performed.
func (s *Server) EndTimeStep(ctx context.Context, ts types.Version) (demoted, promoted int) {
	// Step boundaries double as the anti-entropy point for the metadata
	// directory: re-deliver group writes that missed a mirror, under every
	// policy mode.
	s.flushMirrorHints(ctx)
	if !s.decider.DemotesInBackground() {
		return 0, 0
	}
	start := time.Now()
	s.mu.Lock()
	repl, enc, nEnc := s.dataRepl, s.dataEnc, s.nEnc
	s.mu.Unlock()
	toEncode, toReplicate := s.decider.Transitions(ts, s.decider.PromotionBudget(repl, enc, nEnc))
	s.col.Add(metrics.Classify, time.Since(start))

	for _, id := range toEncode {
		key := id.Key()
		s.mu.Lock()
		st := s.local[key]
		_, haveObj := s.objects[key]
		s.mu.Unlock()
		if st == nil || !haveObj || st.State != types.StateReplicated {
			continue
		}
		s.enqueueEncode(key, nil)
		demoted++
	}
	for _, id := range toReplicate {
		if s.promoteObject(ctx, id) {
			promoted++
		}
	}
	return demoted, promoted
}

// handleStepEnd runs end-of-step processing for time step Version
// (MsgStepEnd), the one way a step boundary reaches a server, in-process
// or across processes. The reply is sent after the background encode
// queue drains, so a closed step is a consistent point: write response
// times exclude encoding, workflow time includes it. Num carries
// demotions<<32|promotions.
func (s *Server) handleStepEnd(ctx context.Context, req *transport.Message) *transport.Message {
	demoted, promoted := s.EndTimeStep(ctx, req.Version)
	s.WaitEncodeIdle()
	return &transport.Message{Kind: transport.MsgOK, Num: int64(demoted)<<32 | int64(promoted)}
}

// promoteObject transitions an encoded object back to full replication:
// reassemble the data from its shards — in place, as a client's get does —
// store the full copy, push replicas, drop the stripe.
func (s *Server) promoteObject(ctx context.Context, id types.ObjectID) bool {
	key := id.Key()
	lk := s.writeLock(key)
	lk.Lock()
	defer lk.Unlock()
	s.mu.Lock()
	st := s.local[key]
	repl, enc := s.dataRepl, s.dataEnc
	s.mu.Unlock()
	if st == nil || st.State != types.StateEncoded {
		return false
	}
	// Recheck the constraint with live numbers before paying for the
	// transition.
	if !s.decider.Admits(repl+int64(st.Size), enc-int64(st.Size)) {
		return false
	}
	info := st.Layout
	data := reader.Buffer(st.Size, info.K)
	tStart := time.Now()
	_, _, err := s.reader.Stripe(ctx, info, data, false)
	s.col.Add(metrics.Transport, time.Since(tStart))
	if err != nil {
		return false
	}
	obj := &fullCopy{Object: types.Object{ID: id, Version: st.Version, Data: data, Sum: s.digest(data)}}
	s.mu.Lock()
	installCopyLocked(s.objects, key, obj)
	s.mu.Unlock()
	// Replicate (and update the directory) before dropping the stripe so a
	// concurrent reader always finds the object through one state or the
	// other.
	if err := s.replicateObject(ctx, obj); err != nil {
		return false
	}
	s.dropStripe(ctx, info)
	s.decider.SetEncoded(id, false)
	return true
}
