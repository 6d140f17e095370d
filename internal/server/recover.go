package server

import (
	"context"
	"fmt"
	"slices"
	"sort"
	"time"

	"corec/internal/metrics"
	"corec/internal/reader"
	"corec/internal/recovery"
	"corec/internal/scrub"
	"corec/internal/transport"
	"corec/internal/types"
)

// others returns ids without this server: the holders to ask for a piece
// this server is missing.
func (s *Server) others(ids []types.ServerID) []types.ServerID {
	return slices.DeleteFunc(slices.Clone(ids), func(id types.ServerID) bool { return id == s.id })
}

// shardIndexIn returns the index of the shard this server holds in the
// stripe, -1 when it is not a member.
func (s *Server) shardIndexIn(info *types.StripeInfo) int {
	for _, m := range info.Members {
		if m.Server == s.id {
			return m.Index
		}
	}
	return -1
}

// handleRecover repairs the named object's local piece (full copy, replica,
// or stripe shard) on this server. On-access lazy repair sends it bare, and
// the object's record is looked up; with no recovery running here a bare one
// is answered at once, repairing nothing. The scrubber attaches the record it
// holds and, for a shard it found inconsistent with its stripe, that shard's
// digest in Sum; a membership edit, the edited record. One that also
// carries, in Metas, the record the edit was made from asks the primary the
// edited record names to carry the edit out (see applyEdit).
func (s *Server) handleRecover(ctx context.Context, req *transport.Message) *transport.Message {
	if req.Meta != nil && len(req.Metas) == 1 {
		return s.applyEdit(ctx, req.Meta, &req.Metas[0])
	}
	id := types.ObjectID{Var: req.Var, Box: req.Box}
	var repaired bool
	var err error
	switch {
	case req.Meta != nil:
		repaired, err = s.restore(ctx, req.Meta, req.Sum)
	case s.RepairQueueLen() == 0:
		return &transport.Message{Kind: transport.MsgOK}
	default:
		repaired, err = s.recoverObject(ctx, id)
	}
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

// applyEdit carries out a membership edit as the primary rec names: rec is
// the object's record edited to the fleet as it now is, from the one the edit
// was made from. This server and the holders rec names restore their pieces
// with rec as the record (a full copy's ask also lists from's holders, the
// sources; a stripe's members are asked only when its layout changed). Then,
// under the key's write lock, rec is published once, under a fresh Seq; the
// reply carries it in Meta and the bytes restored in Num. A record this
// server published after from wins: the edit is refused, Flag false, with
// that record in Meta.
func (s *Server) applyEdit(ctx context.Context, rec, from *types.ObjectMeta) *transport.Message {
	key := rec.ID.Key()
	superseded := func() *transport.Message {
		s.mu.Lock()
		defer s.mu.Unlock()
		if st := s.local[key]; st != nil && (st.Version > from.Version || st.Seq > from.Seq) {
			mine := *st
			return &transport.Message{Kind: transport.MsgOK, Meta: &mine}
		}
		return nil
	}
	if refused := superseded(); refused != nil {
		return refused
	}
	ask, holders, piece := rec.Clone(), []types.ServerID{s.id}, int64(rec.Size)
	if rec.Layout != nil {
		piece = int64(rec.Layout.ShardSize)
		if from.Layout == nil || !slices.Equal(rec.Layout.Members, from.Layout.Members) {
			for _, m := range rec.Layout.Members {
				holders = append(holders, m.Server)
			}
		}
	} else {
		holders = append(holders, rec.Replicas...)
		ask.Replicas = append(ask.Replicas, from.Locations()...)
	}
	slices.Sort(holders)
	var moved int64
	for _, h := range slices.Compact(holders) {
		var repaired bool
		var err error
		switch {
		case h != s.id:
			var resp *transport.Message
			if resp, err = s.sendRetry(ctx, h, &transport.Message{Kind: transport.MsgRecover, Var: rec.ID.Var, Box: rec.ID.Box, Meta: ask}); err == nil {
				repaired, err = resp.Flag, resp.AsError()
			}
		case rec.Layout != nil:
			// Against ask alone: a miss must not settle through the
			// directory's record, which does not name this server yet.
			repaired, err = s.recoverEncoded(ctx, ask, 0)
		default:
			repaired, err = s.recoverReplicated(ctx, ask, nil, reader.NoTally)
		}
		if err != nil {
			return transport.Errf("server %d: edit of %s: %v", s.id, rec.ID, err)
		}
		if repaired {
			moved += piece
		}
	}
	lk := s.writeLock(key)
	lk.Lock()
	defer lk.Unlock()
	if refused := superseded(); refused != nil {
		return refused
	}
	if rec.Layout == nil {
		s.mu.Lock()
		kept := s.objects[key] // the full copy restored here, or the one kept
		s.mu.Unlock()
		if kept == nil || kept.Version != rec.Version {
			return transport.Errf("server %d: edit of %s: no copy of version %d here", s.id, rec.ID, rec.Version)
		}
	}
	rec = rec.Clone()
	rec.Seq = s.nextMetaSeq()
	s.setLocalState(rec)
	if err := s.dirUpdate(ctx, rec); err != nil {
		return transport.Errf("server %d: edit of %s: %v", s.id, rec.ID, err)
	}
	return &transport.Message{Kind: transport.MsgOK, Flag: true, Meta: rec, Num: moved}
}

// recoverObject restores whatever piece of the object this server is
// supposed to hold, according to the directory. Returns whether a repair
// happened.
func (s *Server) recoverObject(ctx context.Context, id types.ObjectID) (repaired bool, err error) {
	meta, ok := s.reader.LookupMeta(ctx, id)
	if !ok {
		return false, fmt.Errorf("no metadata")
	}
	return s.restore(ctx, meta, 0)
}

// restore restores whatever piece of the object meta describes this server
// is supposed to hold; rotted, when set, is the digest of a shard here found
// rotted. Returns whether a repair happened. A repair that misses because the
// object changed state under it — its primary demoted or promoted it
// meanwhile — is retried through the fresh record, as a client's read is.
func (s *Server) restore(ctx context.Context, meta *types.ObjectMeta, rotted uint64) (repaired bool, err error) {
	err = s.reader.Settle(ctx, meta, func(meta *types.ObjectMeta) (err error) {
		switch meta.State {
		case types.StateReplicated:
			repaired, err = s.recoverReplicated(ctx, meta, nil, reader.NoTally)
		case types.StateEncoded:
			repaired, err = s.recoverEncoded(ctx, meta, rotted)
		}
		// StateNone: nothing redundant exists; the data is lost if we were
		// primary.
		return err
	})
	return repaired, err
}

// recoverReplicated restores this server's full copy of a replicated object,
// the primary's or a mirror's, from another holder, with the digest of the
// bytes it installs. It installs over an absent copy, an older one, or rotted
// (the copy the caller found rotted; nil when none is), never over a newer
// one. A mirror's copy of the record's version whose digest is not the
// record's counts as rotted too: its bytes are not the object's. t accounts
// for the fetch.
func (s *Server) recoverReplicated(ctx context.Context, meta *types.ObjectMeta, rotted *fullCopy, t reader.Tally) (bool, error) {
	key := meta.ID.Key()
	iAmPrimary := meta.Primary == s.id
	if !iAmPrimary && !slices.Contains(meta.Replicas, s.id) {
		return false, nil
	}
	copies := s.replicas
	if iAmPrimary {
		copies = s.objects
	}
	s.mu.Lock()
	cur := copies[key]
	if !iAmPrimary && cur != nil && cur.Version == meta.Version && meta.Checksum != 0 && cur.Sum != meta.Checksum {
		rotted = cur
	}
	s.mu.Unlock()
	if cur != nil && cur != rotted && cur.Version >= meta.Version {
		return false, nil // already intact
	}
	// Fetch a surviving full copy from any other holder. A source whose
	// bytes fail the directory's recorded checksum has rotted at rest: it is
	// passed over for the next holder rather than propagating the corruption
	// into the repaired copy.
	tStart := time.Now()
	var sum uint64
	resp := s.reader.Copy(ctx, key, s.others(meta.Locations()), nil, func(resp *transport.Message) bool {
		sum = s.digestMsg(resp)
		return replaces(cur, rotted, resp.Version) &&
			(meta.Checksum == 0 || resp.Version != meta.Version || sum == meta.Checksum)
	}, t)
	s.col.Add(metrics.Transport, time.Since(tStart))
	if resp == nil {
		return false, fmt.Errorf("%w: no surviving copy of %s", reader.ErrDataLoss, key)
	}
	// The copy takes over the hold the response carries of its buffer, if any.
	obj := &fullCopy{Object: types.Object{ID: meta.ID, Version: resp.Version, Data: resp.Data, Sum: sum}, buf: resp.Buf}
	if iAmPrimary {
		// A put, an encode or a promotion of the key runs to its end before
		// the install, or starts after it.
		lk := s.writeLock(key)
		lk.Lock()
		defer lk.Unlock()
	}
	s.mu.Lock()
	// Never clobber a newer copy, or a primary's newer state, installed
	// meanwhile.
	st := s.local[key]
	newerState := iAmPrimary && st != nil &&
		(st.Version > obj.Version || st.Version == obj.Version && st.State != types.StateReplicated)
	ok := replaces(copies[key], rotted, obj.Version) && !newerState
	if ok {
		installCopyLocked(copies, key, obj)
	}
	s.mu.Unlock()
	if !ok {
		return false, nil
	}
	if iAmPrimary {
		// The surviving copy may be of another version than the record names.
		mine := *meta
		mine.Version, mine.Size, mine.Checksum = obj.Version, len(obj.Data), obj.Sum
		s.setLocalState(&mine)
		s.decider.Track(meta.ID, false)
	}
	return true, nil
}

// replaces reports whether a restored copy of version v may be installed
// over cur: cur is absent, older, or the rotted copy.
func replaces(cur, rotted *fullCopy, v types.Version) bool {
	return cur == nil || cur.Version < v || cur == rotted && cur.Version == v
}

func (s *Server) recoverEncoded(ctx context.Context, meta *types.ObjectMeta, rotted uint64) (bool, error) {
	info := meta.Layout
	if info == nil {
		return false, fmt.Errorf("%w: encoded record of %s carries no stripe layout", reader.ErrDataLoss, meta.ID)
	}
	myIndex := s.shardIndexIn(info)
	if myIndex < 0 {
		// Not a stripe member. If we are the primary, local bookkeeping is
		// refreshed so transitions keep working.
		if meta.Primary == s.id {
			s.setLocalState(meta)
		}
		return false, nil
	}
	repaired, err := s.restoreShard(ctx, info, myIndex, meta.Version, rotted, reader.NoTally)
	if err != nil {
		return false, err
	}
	// The shard takes the record's layout over none (a shard found on a
	// restarted disk tier; its digest stays for the scrubber to backfill) or
	// one naming a server that left the fleet: a member that kept its slot in
	// a membership edit learns who took the other, and an older record cannot
	// undo that. A primary that lost its bookkeeping gets that back.
	fleet := s.place.Members()
	left := func(m types.StripeMember) bool { return !slices.Contains(fleet, m.Server) }
	s.mu.Lock()
	if h := s.held[info.ID]; h.info == nil || slices.ContainsFunc(h.info.Members, left) {
		s.holdShardLocked(info.ID, myIndex, h.sums[myIndex], info)
	}
	_, known := s.local[meta.ID.Key()]
	s.mu.Unlock()
	if meta.Primary == s.id && !known {
		s.setLocalState(meta)
		s.decider.Track(meta.ID, true)
	}
	return repaired, nil
}

// restoreShard rebuilds shard index of the stripe from k others and installs
// it here, with its digest, over an absent shard or the one whose recorded
// digest is rotted (0: none is); v tags it with its time step (0: untagged).
// t accounts for the gather, which is charged to the transport bucket, the
// reconstruction to the decode bucket. It reports whether it installed the
// shard.
func (s *Server) restoreShard(ctx context.Context, info *types.StripeInfo, index int, v types.Version, rotted uint64, t reader.Tally) (bool, error) {
	s.mu.Lock()
	lost := s.shardLostLocked(info.ID, index, rotted)
	s.mu.Unlock()
	if !lost {
		return false, nil
	}
	if s.codec == nil {
		return false, fmt.Errorf("no codec configured")
	}
	tStart := time.Now()
	shards, _, have, _ := s.reader.Shards(ctx, info, info.K, []int{index}, nil, t)
	s.col.Add(metrics.Transport, time.Since(tStart))
	if have < info.K {
		return false, fmt.Errorf("%w: stripe %v: only %d of %d shards reachable", reader.ErrDataLoss, info.ID, have, info.K)
	}
	dStart := time.Now()
	err := s.codec.Reconstruct(shards)
	s.col.Add(metrics.Decode, time.Since(dStart))
	if err != nil {
		return false, err
	}
	sum := s.digest(shards[index]) // outside s.mu: see encodeObject
	s.mu.Lock()
	defer s.mu.Unlock()
	if !s.shardLostLocked(info.ID, index, rotted) {
		return false, nil // a push installed the shard meanwhile
	}
	s.holdShardLocked(info.ID, index, sum, info)
	s.store.PutTagged(shardKey(info.ID, index), shards[index], shardEpoch(v))
	return true, nil
}

// shardLostLocked reports whether shard index of the stripe is absent here,
// or is the one whose recorded digest is rotted (0: none is). Caller holds
// s.mu.
func (s *Server) shardLostLocked(id types.StripeID, index int, rotted uint64) bool {
	return !s.store.Has(shardKey(id, index)) || rotted != 0 && s.held[id].sums[index] == rotted
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
	return s.drainRepairs(ctx, mode, s.rebuildDirectoryAndWorklist(ctx))
}

// drainRepairs runs step 3 over work, the list step 2 built.
func (s *Server) drainRepairs(ctx context.Context, mode recovery.Mode, work map[string]types.ObjectID) (int, error) {
	keys := make([]string, 0, len(work))
	for key := range work {
		keys = append(keys, key)
	}
	sort.Strings(keys)
	queue := recovery.NewQueue(keys)
	s.mu.Lock()
	s.repairQueue = queue
	s.mu.Unlock()

	// Lazy: one token per repair, total/deadline tokens a second with a burst
	// of one. A repair runs while the next token accrues, so the drain ends
	// by the deadline (MTBF/4), not after it.
	var pacer *scrub.TokenBucket
	if deadline := recovery.Deadline(s.cfg.MTBF); mode == recovery.Lazy && deadline > 0 {
		pacer = scrub.NewTokenBucket(float64(queue.Len())/deadline.Seconds(), 1)
	}
	repaired := 0
	for {
		s.mu.Lock()
		key := queue.Next()
		s.mu.Unlock()
		if key == "" {
			break
		}
		if err := pacer.Take(ctx, 1); err != nil {
			return repaired, err
		}
		// The record is looked up afresh: a lazy drain runs for up to MTBF/4
		// after the sweep, and the object may have moved on since.
		if did, err := s.recoverObject(ctx, work[key]); err == nil && did {
			repaired++
		}
		s.mu.Lock()
		queue.MarkRepaired(key)
		s.mu.Unlock()
	}
	s.mu.Lock()
	s.repairQueue = nil
	s.mu.Unlock()
	return repaired, nil
}

// rebuildDirectoryAndWorklist sweeps the surviving members' directory shards
// and, from the newest record of each object, restores this server's own
// shard and collects its work list: every object whose newest record names
// this server as a holder of a piece, by key. The records are all there is to
// collect: an encoded one carries its stripe's layout, which answers "is one
// of my shards in this object's stripe" without asking anyone. A sweep no
// peer answers leaves nothing to rebuild from and nothing to repair.
func (s *Server) rebuildDirectoryAndWorklist(ctx context.Context) map[string]types.ObjectID {
	metas, _ := s.reader.Sweep(ctx, s.others(s.place.Members()), nil)
	work := make(map[string]types.ObjectID)
	for i := range metas {
		meta := &metas[i]
		// Restore the records of this server's shard (as owner or mirror of
		// a cell the record's box touches). Flag marks restore mode: never
		// clobber a live same-version record that a concurrent transition
		// may have refreshed.
		if slices.Contains(s.dirPlace.Servers(meta.ID.Var, meta.ID.Box), s.id) {
			s.handleMetaUpdate(&transport.Message{Kind: transport.MsgMetaUpdate, Meta: meta, Flag: true})
		}
		if s.holdsPieceOf(meta) {
			work[meta.ID.Key()] = meta.ID
		}
	}
	return work
}

// holdsPieceOf reports whether this server should hold a piece of the
// object described by meta (primary copy, replica, or stripe shard).
func (s *Server) holdsPieceOf(meta *types.ObjectMeta) bool {
	if meta.Primary == s.id || slices.Contains(meta.Replicas, s.id) {
		return true
	}
	return meta.State == types.StateEncoded && meta.Layout != nil && s.shardIndexIn(meta.Layout) >= 0
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
