package server

import (
	"context"
	"errors"
	"slices"
	"time"

	"corec/internal/metrics"
	"corec/internal/policy"
	"corec/internal/transport"
	"corec/internal/types"
)

// handlePut is the write path: store the object, update the directory, and
// apply the policy's resilience action (replicate, encode, or nothing).
func (s *Server) handlePut(ctx context.Context, req *transport.Message) *transport.Message {
	if len(req.Data) == 0 || req.Var == "" || !req.Box.Valid() {
		return transport.Errf("server %d: malformed put", s.id)
	}
	if s.draining.Load() {
		// Drain fence: retryable, so the client's failover path reroutes the
		// write to the ring successor instead of failing the workflow.
		return &transport.Message{Kind: transport.MsgErr, Flag: true,
			Err: "server draining: writes fenced"}
	}
	id := types.ObjectID{Var: req.Var, Box: req.Box}
	key := id.Key()
	// The copy's digest is taken before it is installed, so no reader ever
	// finds the copy without it: over TCP the frame reader took it as the
	// bytes landed, elsewhere it is the put's one pass over its payload. The
	// copy keeps the buffer the payload landed in.
	obj := &fullCopy{Object: types.Object{ID: id, Version: req.Version, Data: req.Data, Sum: s.digestMsg(req)}, buf: req.Buf.Hold()}

	// Serialize against concurrent write-path transitions of this key: a
	// background encode of the previous bytes must either commit before
	// this write installs, or observe it and abort.
	lk := s.writeLock(key)
	lk.Lock()
	defer lk.Unlock()

	// Install the object and capture prior state for transition handling.
	s.mu.Lock()
	prior := s.local[key]
	installCopyLocked(s.objects, key, obj)
	// The decider weighs the *projected* efficiency if this object ends up
	// replicated — otherwise an object at the constraint's boundary
	// flip-flops between states on every write.
	projRepl := s.dataRepl + int64(len(req.Data))
	projEnc := s.dataEnc
	s.mu.Unlock()
	priorState := types.StateNone
	var drop *types.StripeInfo // the stripe a rewrite of an encoded object supersedes
	if prior != nil {
		priorState = prior.State
		switch priorState {
		case types.StateReplicated:
			projRepl -= int64(prior.Size)
		case types.StateEncoded:
			projEnc -= int64(prior.Size)
			drop = prior.Layout
		}
	}

	// Decide the resilience action. Where demotion runs in the background,
	// the decision classifies the object: it is charged to the classify
	// bucket.
	background := s.decider.DemotesInBackground()
	start := time.Now()
	action := s.decider.OnPut(id, req.Version, s.decider.Efficiency(projRepl, projEnc))
	if background {
		s.col.Add(metrics.Classify, time.Since(start))
	}

	switch action {
	case policy.ActNone:
		meta := s.buildMeta(obj, types.StateNone, nil)
		s.setLocalState(meta)
		if err := s.dirUpdate(ctx, meta); err != nil {
			return transport.Errf("server %d: metadata update: %v", s.id, err)
		}
		return transport.Ok()

	case policy.ActReplicate:
		// An object that was encoded and is now written becomes replicated
		// again (promotion on write); its old shards are dropped after the
		// directory flips so concurrent readers never miss both states.
		if err := s.replicateObject(ctx, obj); err != nil {
			return transport.Errf("server %d: replicate: %v", s.id, err)
		}
		if priorState == types.StateEncoded {
			if background {
				// Defer the old stripe's release off the write path; the
				// worker also re-evaluates whether the object must be
				// re-encoded under the constraint.
				s.enqueueEncode(key, drop)
			} else {
				s.dropStripe(ctx, drop)
			}
		}
		s.decider.SetEncoded(id, false)
		return transport.Ok()

	case policy.ActEncode:
		// CoREC (Figure 6): the write is acknowledged as soon as the
		// replica guarantees durability; the demotion to erasure coding
		// runs in the background under the encoding token.
		if background {
			if err := s.replicateObject(ctx, obj); err != nil {
				return transport.Errf("server %d: replicate: %v", s.id, err)
			}
			s.enqueueEncode(key, drop)
			return transport.Ok()
		}
		// Baselines encode synchronously on the write path: a replicated
		// object being demoted sheds its replicas inside encodeObject; an
		// encoded object being rewritten re-encodes over the same stripe.
		reuse := types.StripeID{}
		if drop != nil {
			reuse = drop.ID
		}
		if err := s.encodeObject(ctx, obj, reuse, priorState == types.StateReplicated); err != nil {
			resp := transport.Errf("server %d: encode: %v", s.id, err)
			// Retryable: the resent put encodes over the ring as it now is.
			resp.Flag = errors.Is(err, errRingMoved)
			return resp
		}
		return transport.Ok()
	}
	return transport.Errf("server %d: unknown action", s.id)
}

// replicateObject pushes full copies to the replication-group peers and
// records the replicated state. The copy's digest rides along as each push's
// payload check: the pushes make no pass of their own. The caller keeps
// obj.Data alive throughout.
func (s *Server) replicateObject(ctx context.Context, obj *fullCopy) error {
	targets := s.place.ReplicaHolders(s.id)
	start := time.Now()
	for _, t := range targets {
		msg := &transport.Message{
			Kind:    transport.MsgReplicaPut,
			Var:     obj.ID.Var,
			Box:     obj.ID.Box,
			Version: obj.Version,
			Data:    obj.Data,
			Buf:     obj.buf,
		}
		msg.AttachDigest(obj.Sum)
		resp, err := s.sendRetry(ctx, t, msg)
		if err == nil {
			err = resp.AsError()
		}
		if err != nil {
			// A dead replica target reduces protection until recovery; the
			// write itself still succeeds (the paper's degraded operation).
			continue
		}
	}
	s.col.Add(metrics.Transport, time.Since(start))

	meta := s.buildMeta(obj, types.StateReplicated, nil)
	meta.Replicas = targets
	s.setLocalState(meta)
	return s.dirUpdate(ctx, meta)
}

// setLocalState keeps meta, the record this server publishes for an object it
// is primary of (or, for a primary recovering its memory, the record the
// directory holds), less its replica list, and maintains the
// storage-efficiency tallies.
func (s *Server) setLocalState(meta *types.ObjectMeta) {
	rec := *meta
	rec.Replicas = nil
	s.mu.Lock()
	defer s.mu.Unlock()
	key := meta.ID.Key()
	if old := s.local[key]; old != nil {
		s.tallyLocked(old, -1)
	}
	s.local[key] = &rec
	s.tallyLocked(&rec, +1)
}

// tallyLocked adds (sign +1) or removes (-1) a primary object's bytes to or
// from the efficiency tally of its state, and an encoded one to or from the
// encoded count. Caller holds s.mu.
func (s *Server) tallyLocked(rec *types.ObjectMeta, sign int64) {
	switch rec.State {
	case types.StateReplicated:
		s.dataRepl += sign * int64(rec.Size)
	case types.StateEncoded:
		s.dataEnc += sign * int64(rec.Size)
		s.nEnc += int(sign)
	}
}

// buildMeta mints the record of obj in the given state; layout is its stripe
// when that state is StateEncoded (the primary holds data shard 0).
func (s *Server) buildMeta(obj *fullCopy, st types.ResilienceState, layout *types.StripeInfo) *types.ObjectMeta {
	meta := &types.ObjectMeta{
		ID:       obj.ID,
		Version:  obj.Version,
		Seq:      s.nextMetaSeq(),
		Size:     len(obj.Data),
		State:    st,
		Checksum: obj.Sum,
		Primary:  s.id,
		Layout:   layout,
	}
	if layout != nil {
		meta.Stripe = layout.ID
	}
	return meta
}

// handleDelete evicts an object this server is primary for: the full
// copy, its replicas, its stripe shards, its classifier state and its
// directory records all go. Eviction is how a workflow reclaims staging
// memory once a time step has been consumed.
func (s *Server) handleDelete(ctx context.Context, req *transport.Message) *transport.Message {
	key := req.Key
	lk := s.writeLock(key)
	lk.Lock()
	defer lk.Unlock()
	s.mu.Lock()
	st := s.local[key]
	if st != nil {
		s.tallyLocked(st, -1)
		delete(s.local, key)
	}
	dropCopyLocked(s.objects, key)
	dropCopyLocked(s.replicas, key)
	s.mu.Unlock()
	// A queued demotion dies with the object, and the superseded stripe it
	// was to release goes now.
	s.dropStripe(ctx, s.takeDemotion(key))
	if st == nil {
		return &transport.Message{Kind: transport.MsgOK, Flag: false}
	}
	if st.State == types.StateEncoded {
		s.dropStripe(ctx, st.Layout)
	} else {
		tStart := time.Now()
		for _, t := range s.place.ReplicaHolders(s.id) {
			// Dead holder needs no drop; the scrubber reaps orphans.
			_, _ = s.sendRetry(ctx, t, &transport.Message{Kind: transport.MsgReplicaDrop, Key: key})
		}
		s.col.Add(metrics.Transport, time.Since(tStart))
	}
	// Remove the directory records.
	mStart := time.Now()
	// Unreached directory members resync via anti-entropy.
	_ = s.sendToGroup(ctx, s.dirPlace.Servers(st.ID.Var, st.ID.Box), &transport.Message{Kind: transport.MsgMetaDelete, Key: key})
	s.col.Add(metrics.Metadata, time.Since(mStart))
	s.decider.Forget(st.ID)
	return &transport.Message{Kind: transport.MsgOK, Flag: true}
}

// handleHandoff relinquishes primary ownership of an object a membership
// edit moved to its new ring owner, whose record rides in Meta: the local
// copy and bookkeeping go, and so does every shard of the object's stripe
// that record no longer names — the edit keeps the stripe, so at most a slot
// that changed hands; all of one it does not name (the object was encoded
// anew). A record this primary published after the one the edit acted on
// (Num, its Seq) wins — a foreground write of a newer version, or a
// background encode that committed in between: the handoff is refused (Flag
// false) and the migrator re-examines the object on its next pass.
func (s *Server) handleHandoff(ctx context.Context, req *transport.Message) *transport.Message {
	key := req.Key
	lk := s.writeLock(key)
	lk.Lock()
	defer lk.Unlock()
	s.mu.Lock()
	st := s.local[key]
	if st == nil || req.Meta == nil || (req.Version != 0 && st.Version > req.Version) || (req.Num != 0 && st.Seq > uint64(req.Num)) {
		s.mu.Unlock()
		return &transport.Message{Kind: transport.MsgOK, Flag: false}
	}
	s.tallyLocked(st, -1)
	delete(s.local, key)
	dropCopyLocked(s.objects, key)
	s.mu.Unlock()
	s.dropStripe(ctx, s.takeDemotion(key))
	if kept := req.Meta.Layout; st.Layout != nil {
		s.eachMember(st.Layout, func(m types.StripeMember) {
			if kept == nil || kept.ID != st.Layout.ID || !slices.Contains(kept.Members, m) {
				_, _ = s.sendRetry(ctx, m.Server, &transport.Message{Kind: transport.MsgShardDrop, Stripe: st.Layout.ID, ShardIndex: m.Index})
			}
		})
	}
	// Replica copies at the old holders are left for the scrubber's orphan
	// reaping: a versioned drop here could destroy a same-version replica
	// the new owner just pushed to an overlapping holder set.
	s.decider.Forget(st.ID)
	return &transport.Message{Kind: transport.MsgOK, Flag: true}
}

// handleGet serves a full object copy: primary copy first, replica second. A
// get that names a floor (Version) is a primary read instead: see primaryRead.
func (s *Server) handleGet(req *transport.Message) *transport.Message {
	if req.Version > 0 {
		return s.primaryRead(req)
	}
	s.mu.Lock()
	obj := s.objects[req.Key]
	if obj == nil {
		obj = s.replicas[req.Key]
	}
	hold := obj.hold()
	s.mu.Unlock()
	if obj == nil {
		return &transport.Message{Kind: transport.MsgOK, Flag: false}
	}
	return s.serveCopy(obj, hold)
}

// serveCopy answers a get with a full copy, hold being the hold of its buffer
// the caller took under s.mu: the response carries it until its frame is
// written. With the scrubber enabled, a copy whose bytes fail their digest is
// withheld (reported as not found) so the caller falls back to another holder
// or a degraded stripe read instead of consuming rotted bytes; the background
// scrub pass repairs the copy.
func (s *Server) serveCopy(obj *fullCopy, hold *transport.Buffer) *transport.Message {
	if s.scrubEnabled() && s.digest(obj.Data) != obj.Sum {
		hold.Release()
		return &transport.Message{Kind: transport.MsgOK, Flag: false}
	}
	resp := &transport.Message{
		Kind: transport.MsgGetBytes, Flag: true,
		Var: obj.ID.Var, Box: obj.ID.Box, Version: obj.Version, Data: obj.Data, Buf: hold,
	}
	// The recorded digest is the payload's wire check: no pass here, and a
	// copy that rotted since it was recorded fails at the reader like wire
	// damage — retried, then served from another holder.
	resp.AttachDigest(obj.Sum)
	return resp
}

// primaryRead answers a get that names a floor from this server's own record
// of the object, taken in one s.mu snapshot: the record rides in Meta, with
// the full copy of a replicated object or data shard 0 of an encoded one,
// digest attached. The primary mints every record it publishes before any
// mirror sees it, so its record is never older than a mirror's. Flag is false
// — the reader then asks the directory — when this server holds no record of
// the key, the record is older than the floor, or the piece is not here.
func (s *Server) primaryRead(req *transport.Message) *transport.Message {
	s.mu.Lock()
	st := s.local[req.Key]
	if st == nil || st.Version < req.Version || (st.State == types.StateEncoded && st.Layout == nil) {
		s.mu.Unlock()
		return &transport.Message{Kind: transport.MsgOK, Flag: false}
	}
	meta := *st
	var obj *fullCopy
	var sum uint64
	if meta.State == types.StateEncoded {
		sum = s.held[meta.Stripe].sums[0]
	} else {
		obj = s.objects[req.Key]
	}
	hold := obj.hold()
	s.mu.Unlock()

	var resp *transport.Message
	if meta.State == types.StateEncoded {
		// As in handleShardGet, the shard is read outside s.mu with the
		// digest recorded for it.
		if data, ok := s.store.Get(shardKey(meta.Stripe, 0)); ok {
			resp = &transport.Message{Kind: transport.MsgGetBytes, Flag: true, Version: meta.Version, Data: data}
			resp.AttachDigest(sum)
		}
	} else if obj != nil {
		resp = s.serveCopy(obj, hold)
	}
	if resp == nil {
		return &transport.Message{Kind: transport.MsgOK, Flag: false}
	}
	if resp.Flag {
		resp.Meta = &meta
	}
	return resp
}

func (s *Server) handleReplicaPut(req *transport.Message) *transport.Message {
	id := types.ObjectID{Var: req.Var, Box: req.Box}
	obj := &fullCopy{Object: types.Object{ID: id, Version: req.Version, Data: req.Data, Sum: s.digestMsg(req)}, buf: req.Buf.Hold()}
	s.mu.Lock()
	installCopyLocked(s.replicas, id.Key(), obj)
	s.mu.Unlock()
	return transport.Ok()
}

func (s *Server) handleReplicaDrop(req *transport.Message) *transport.Message {
	s.mu.Lock()
	// A versioned drop only removes replicas at or below that version, so
	// a slow encode task can never discard a newer write's replica.
	if rep, ok := s.replicas[req.Key]; ok && (req.Version == 0 || rep.Version <= req.Version) {
		dropCopyLocked(s.replicas, req.Key)
	}
	s.mu.Unlock()
	return transport.Ok()
}

func (s *Server) handleShardPut(req *transport.Message) *transport.Message {
	sk := shardKey(req.Stripe, req.ShardIndex)
	sum := s.digestMsg(req)
	s.mu.Lock()
	s.holdShardLocked(req.Stripe, req.ShardIndex, sum, req.StripeInfo)
	s.mu.Unlock()
	// The version doubles as the shard's time-step tag, feeding the
	// engine's sequential-step prefetch detection; 0 means untagged. The
	// engine keeps Data and never lets go: the hold taken here leaves the
	// buffer to the GC along with the shard.
	req.Buf.Hold()
	s.store.PutTagged(sk, req.Data, shardEpoch(req.Version))
	return transport.Ok()
}

// shardEpoch maps an object version to the storage engine's time-step tag.
func shardEpoch(v types.Version) int64 {
	if v == 0 {
		return -1
	}
	return int64(v)
}

func (s *Server) handleShardGet(req *transport.Message) *transport.Message {
	sk := shardKey(req.Stripe, req.ShardIndex)
	data, ok := s.store.Get(sk)
	if !ok {
		return &transport.Message{Kind: transport.MsgOK, Flag: false}
	}
	resp := &transport.Message{Kind: transport.MsgGetBytes, Flag: true, Data: data}
	// As in handleGet: the shard's recorded digest is its wire check. A
	// rewrite of the shard racing this read can pair one version's bytes
	// with the other's digest; the reader's check then fails the frame and
	// the retry reads a settled pair.
	s.mu.Lock()
	sum := s.held[req.Stripe].sums[req.ShardIndex]
	s.mu.Unlock()
	resp.AttachDigest(sum)
	return resp
}

func (s *Server) handleShardDrop(req *transport.Message) *transport.Message {
	sk := shardKey(req.Stripe, req.ShardIndex)
	s.mu.Lock()
	delete(s.held[req.Stripe].sums, req.ShardIndex)
	if len(s.held[req.Stripe].sums) == 0 {
		delete(s.held, req.Stripe) // with its last shard, the stripe
	}
	s.mu.Unlock()
	s.store.Delete(sk)
	return transport.Ok()
}

// handleStripeLookup answers from what this server holds of the stripe: the
// layout its shard arrived with, Flag false when it holds none.
func (s *Server) handleStripeLookup(req *transport.Message) *transport.Message {
	s.mu.Lock()
	info := s.held[req.Stripe].info
	s.mu.Unlock()
	return &transport.Message{Kind: transport.MsgOK, Flag: info != nil, StripeInfo: info}
}

// --- encoding token (granted by the leader the placement names) ---

// handleTokenAcquire grants the group's encoding token when it is free, or its
// holder is gone without a release: replaced, or known down to the fabric.
func (s *Server) handleTokenAcquire(req *transport.Message) *transport.Message {
	s.mu.Lock()
	defer s.mu.Unlock()
	replaced := s.tokenHolder == req.From && s.tokenInc != req.Num // the holder asks, as a new instance
	if s.tokenBusy && !replaced && !s.reader.Health.Down(s.tokenHolder) {
		return &transport.Message{Kind: transport.MsgOK, Flag: false}
	}
	s.tokenBusy, s.tokenHolder, s.tokenInc = true, req.From, req.Num
	return &transport.Message{Kind: transport.MsgOK, Flag: true}
}

func (s *Server) handleTokenRelease(req *transport.Message) *transport.Message {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.tokenBusy = s.tokenBusy && s.tokenHolder != req.From // only its holder's release frees it
	return transport.Ok()
}

// acquireToken obtains the replication group's encoding token, retrying
// briefly. If the leader is unreachable (failed) or the token stays busy
// past a short bound, encoding proceeds without it, counted in
// Stats.TokenlessEncodes: the token is a load-balancing/conflict-avoidance
// optimization, not a correctness requirement (per-object exclusivity comes
// from primary ownership).
func (s *Server) acquireToken(ctx context.Context) (release func()) {
	leader := s.place.TokenLeader(s.id)
	msg := &transport.Message{Kind: transport.MsgTokenAcquire, From: s.id, Num: int64(s.incarnation)} // a call to oneself stamps no From
	for attempt := 0; attempt < 8; attempt++ {
		resp, err := s.sendRetry(ctx, leader, msg)
		if err != nil {
			s.tokenless.Add(1)
			return func() {} // leader down: proceed tokenless
		}
		if resp.Kind == transport.MsgOK && resp.Flag {
			return func() {
				// Lost release: the grant lapses once this server is known down.
				_, _ = s.sendRetry(context.Background(), leader, &transport.Message{Kind: transport.MsgTokenRelease, From: s.id})
			}
		}
		select {
		case <-ctx.Done():
			return func() {}
		case <-time.After(50 * time.Microsecond):
		}
	}
	s.tokenless.Add(1)
	return func() {} // starvation guard: proceed tokenless
}
