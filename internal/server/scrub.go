package server

// The anti-entropy scrubber: background verification of data at rest and
// paced proactive repair. The decision layer (checksums, budgets, reports)
// lives in internal/scrub; this file is the execution engine that walks one
// server's stored payloads and the protocol handlers it exchanges checksums
// through.
//
// A pass runs up to three cumulative phases (scrub.Depth):
//
//   local    verify every locally stored payload (primary copies, replica
//            copies, erasure shards) against its recorded checksum; records
//            with no checksum yet (written before scrubbing existed) are
//            backfilled rather than flagged. Corrupt items are repaired from
//            a healthy copy or by stripe reconstruction.
//   replica  cross-check replication groups: the primary asks each mirror
//            for the live checksum of its copy (MsgChecksum) and re-pushes
//            the authoritative bytes over divergent or missing mirrors.
//   stripe   verify coded stripes: per-member shard probes (MsgShardSum)
//            re-materialize shards lost by live members ahead of the lazy
//            recovery deadline, then a spot-decode checks the stripe's
//            parity consistency end to end and repairs the shard it
//            pinpoints as inconsistent.
//
// Every phase pays for its reads through the pass's token-bucket budget
// BEFORE taking any server lock, so pacing can never stall the foreground
// put/get path. Unreachable peers are counted as skips, never as corruption:
// a dead server is the monitor's job (recovery re-protects its data), and
// conflating the two would make the scrubber fight the failure handling.

import (
	"context"
	"fmt"
	"math/rand"
	"sort"
	"time"

	"corec/internal/metrics"
	"corec/internal/reader"
	"corec/internal/scrub"
	"corec/internal/transport"
	"corec/internal/types"
)

// StartScrubber enables the anti-entropy engine with the given config and,
// when cfg.Interval > 0, starts the background pass loop. Verified reads
// (handleGet withholding copies that fail their checksum) switch on with it.
func (s *Server) StartScrubber(cfg scrub.Config) error {
	if err := cfg.Validate(); err != nil {
		return err
	}
	s.scrubMu.Lock()
	defer s.scrubMu.Unlock()
	if s.scrubCfg != nil {
		return fmt.Errorf("server %d: scrubber already running", s.id)
	}
	c := cfg
	s.scrubCfg = &c
	s.scrubOn.Store(true)
	if cfg.Interval > 0 {
		s.scrubStop = make(chan struct{})
		s.scrubDone = make(chan struct{})
		go s.scrubLoop(cfg.Interval, s.scrubStop, s.scrubDone)
	}
	return nil
}

// StopScrubber stops the background loop (waiting for an in-flight pass to
// abort) and disables the engine. Close calls it; safe to call repeatedly.
func (s *Server) StopScrubber() {
	s.scrubMu.Lock()
	stop, done := s.scrubStop, s.scrubDone
	s.scrubCfg = nil
	s.scrubStop, s.scrubDone = nil, nil
	s.scrubOn.Store(false)
	s.scrubMu.Unlock()
	if stop != nil {
		close(stop)
		<-done
	}
}

// scrubEnabled reports whether the engine is on (lock-free; read on the
// foreground get path).
func (s *Server) scrubEnabled() bool { return s.scrubOn.Load() }

// ScrubPasses returns the number of completed scrub passes.
func (s *Server) ScrubPasses() int64 { return s.scrubPasses.Load() }

func (s *Server) scrubLoop(interval time.Duration, stop, done chan struct{}) {
	defer close(done)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	go func() { <-stop; cancel() }()
	t := time.NewTicker(interval)
	defer t.Stop()
	for {
		select {
		case <-stop:
			return
		case <-t.C:
			_, _ = s.ScrubOnce(ctx) // loop passes are best-effort
		}
	}
}

// ScrubOnce runs one full pass at the configured depth (full default config
// when the engine was never started — manual passes work either way).
func (s *Server) ScrubOnce(ctx context.Context) (scrub.Report, error) {
	cfg := s.scrubConfig()
	return s.scrubPass(ctx, cfg, cfg.Depth)
}

// ScrubDepth runs one pass at an explicit depth, overriding the configured
// one. Cluster-wide sweeps use it to run a local pass everywhere before the
// cross-server phases, so every at-rest corruption is detected by its holder
// before a peer's cross-check repairs it out from under the count.
func (s *Server) ScrubDepth(ctx context.Context, depth scrub.Depth) (scrub.Report, error) {
	return s.scrubPass(ctx, s.scrubConfig(), depth)
}

func (s *Server) scrubConfig() scrub.Config {
	s.scrubMu.Lock()
	defer s.scrubMu.Unlock()
	if s.scrubCfg != nil {
		return *s.scrubCfg
	}
	return scrub.DefaultConfig()
}

func (s *Server) scrubPass(ctx context.Context, cfg scrub.Config, depth scrub.Depth) (scrub.Report, error) {
	bud := scrub.NewBudget(cfg)
	var rep scrub.Report
	err := s.scrubLocal(ctx, bud, &rep)
	if err == nil && depth >= scrub.DepthReplica {
		err = s.scrubReplicaGroups(ctx, bud, &rep)
	}
	if err == nil && depth >= scrub.DepthStripe {
		err = s.scrubStripes(ctx, bud, &rep)
	}
	s.scrubPasses.Add(1)
	s.recordScrub(rep)
	return rep, err
}

func (s *Server) recordScrub(r scrub.Report) {
	s.col.AddCounter(metrics.ScrubScanCount, r.Scanned)
	s.col.AddCounter(metrics.ScrubByteCount, r.Bytes)
	s.col.AddCounter(metrics.ScrubCorruptionCount, r.Corruptions)
	s.col.AddCounter(metrics.ScrubRepairCount, r.Repairs)
	s.col.AddCounter(metrics.ScrubReencodeCount, r.Reencodes)
	s.col.AddCounter(metrics.ScrubBackfillCount, r.Backfills)
	s.col.AddCounter(metrics.ScrubSkipCount, r.Skipped)
}

// --- phase 1: local verification ---

func (s *Server) scrubLocal(ctx context.Context, bud *scrub.Budget, rep *scrub.Report) error {
	// Snapshot the key space up front (sorted, for deterministic order);
	// each item is then re-read under the lock so concurrent writes between
	// snapshot and verify are seen, not misdiagnosed.
	s.mu.Lock()
	objKeys := sortedKeys(s.objects)
	repKeys := sortedKeys(s.replicas)
	s.mu.Unlock()
	shardKeys := s.store.Keys()

	for _, key := range objKeys {
		s.mu.Lock()
		obj := s.objects[key]
		var want uint64
		if st := s.local[key]; st != nil {
			want = st.sum
		}
		s.mu.Unlock()
		if obj == nil {
			continue // deleted or encoded since the snapshot
		}
		if err := bud.Charge(ctx, int64(len(obj.Data))); err != nil {
			return err
		}
		got := s.digest(obj.Data)
		rep.Scanned++
		rep.Bytes += int64(len(obj.Data))
		switch {
		case want == 0:
			s.backfillPrimary(ctx, key, obj, got, rep)
		case got != want:
			if err := s.repairPrimary(ctx, key, obj, want, bud, rep); err != nil {
				return err
			}
		}
	}

	for _, key := range repKeys {
		s.mu.Lock()
		obj := s.replicas[key]
		want := s.replicaSums[key]
		s.mu.Unlock()
		if obj == nil {
			continue
		}
		if err := bud.Charge(ctx, int64(len(obj.Data))); err != nil {
			return err
		}
		got := s.digest(obj.Data)
		rep.Scanned++
		rep.Bytes += int64(len(obj.Data))
		switch {
		case want == 0:
			// Backfill: every install path records a sum now, so a zero can
			// only be a copy predating scrubbing. Record what is stored.
			s.mu.Lock()
			if cur := s.replicas[key]; cur == obj && s.replicaSums[key] == 0 {
				s.replicaSums[key] = got
				rep.Backfills++
			}
			s.mu.Unlock()
		case got != want:
			if err := s.repairReplica(ctx, key, obj, want, bud, rep); err != nil {
				return err
			}
		}
	}

	for _, sk := range shardKeys {
		id, index, ok := parseShardKey(sk)
		if !ok {
			continue // not a shard: nothing recorded to verify it against
		}
		s.mu.Lock()
		want, info := s.held[id].sums[index], s.held[id].info
		s.mu.Unlock()
		if info == nil {
			// A shard re-indexed from a restarted disk tier: whether its
			// stripe is still live, and who else holds it, is on the object's
			// record, and recovery restores that here (recoverEncoded). Until
			// then there is nothing to verify the bytes against or repair
			// them from.
			rep.Skipped++
			continue
		}
		// Peek reads without touching heat or tier placement. A shard whose
		// stored record rotted below L1 is quarantined by the engine's own
		// CRC check inside this call and reads as absent — the stripe phase
		// re-materializes it from its peers.
		data, ok := s.store.Peek(sk)
		if !ok {
			continue
		}
		if err := bud.Charge(ctx, int64(len(data))); err != nil {
			return err
		}
		got := s.digest(data)
		rep.Scanned++
		rep.Bytes += int64(len(data))
		switch {
		case want == 0:
			// The digest of a shard found on a restarted disk tier died with
			// the previous incarnation; recovery restored only the layout.
			s.mu.Lock()
			if s.store.Has(sk) && s.held[id].sums[index] == 0 {
				s.holdShardLocked(id, index, got, nil)
				rep.Backfills++
			}
			s.mu.Unlock()
		case got != want:
			rep.Corruptions++
			if err := s.repairShard(ctx, sk, info, want, bud, rep); err != nil {
				return err
			}
		}
	}
	return nil
}

// backfillPrimary records a first-time checksum for a primary copy that
// predates scrubbing, locally and in the object's directory record.
func (s *Server) backfillPrimary(ctx context.Context, key string, obj *types.Object, got uint64, rep *scrub.Report) {
	lk := s.writeLock(key)
	lk.Lock()
	s.mu.Lock()
	cur := s.objects[key]
	st := s.local[key]
	if cur != obj || st == nil || st.sum != 0 {
		// A write-path transition beat us to it; its checksum wins.
		s.mu.Unlock()
		lk.Unlock()
		return
	}
	st.sum = got
	s.mu.Unlock()
	lk.Unlock()
	rep.Backfills++
	// Share the authority: push the checksum into the directory record so
	// remote verifiers and future recoveries agree on it.
	if meta, ok := s.reader.LookupMeta(ctx, obj.ID); ok && meta.Checksum == 0 && meta.Version == obj.Version {
		meta.Checksum = got
		_ = s.dirUpdate(ctx, meta) // survivors serve until the next flush
	}
}

// repairPrimary restores a primary copy whose stored bytes failed their
// checksum, fetching the authoritative bytes back from a mirror.
func (s *Server) repairPrimary(ctx context.Context, key string, obj *types.Object, want uint64, bud *scrub.Budget, rep *scrub.Report) error {
	lk := s.writeLock(key)
	lk.Lock()
	defer lk.Unlock()
	// Double-check under the write lock: a racing write may have replaced
	// the copy we checksummed — that is churn, not corruption.
	s.mu.Lock()
	cur := s.objects[key]
	st := s.local[key]
	stale := cur != obj || st == nil || st.sum != want
	state := types.StateNone
	if st != nil {
		state = st.state
	}
	s.mu.Unlock()
	if stale {
		return nil
	}
	rep.Corruptions++
	if state != types.StateReplicated {
		// StateNone has no redundancy; transient states belong to the write
		// path and resolve on their own.
		rep.Unrepaired++
		return nil
	}
	meta, ok := s.reader.LookupMeta(ctx, obj.ID)
	if !ok {
		rep.Unrepaired++
		return nil
	}
	resp := s.reader.Copy(ctx, key, s.others(meta.Replicas), nil, func(resp *transport.Message) bool {
		// A stale mirror, or one that itself rotted, is passed over.
		return resp.Version == obj.Version && s.digestMsg(resp) == want
	}, scrubTally(bud, rep))
	if resp == nil {
		rep.Unrepaired++
		return ctx.Err() // a cancelled pass stops here; any other failure is the next pass's
	}
	s.mu.Lock()
	if s.objects[key] == obj {
		s.objects[key] = &types.Object{ID: obj.ID, Version: obj.Version, Data: resp.Data}
	}
	s.mu.Unlock()
	rep.Repairs++
	return nil
}

// repairReplica restores a rotted replica copy from another holder of the
// object (the primary first).
func (s *Server) repairReplica(ctx context.Context, key string, obj *types.Object, want uint64, bud *scrub.Budget, rep *scrub.Report) error {
	rep.Corruptions++
	meta, ok := s.reader.LookupMeta(ctx, obj.ID)
	if !ok {
		rep.Unrepaired++
		return nil
	}
	var sum uint64
	resp := s.reader.Copy(ctx, key, s.others(meta.Locations()), nil, func(resp *transport.Message) bool {
		sum = s.digestMsg(resp)
		// Accept a same-version restore of what this replica originally
		// stored, or a catch-up to the directory's recorded authority.
		restore := sum == want
		catchUp := meta.Checksum != 0 && resp.Version == meta.Version && sum == meta.Checksum &&
			resp.Version >= obj.Version
		return restore || catchUp
	}, scrubTally(bud, rep))
	if resp == nil {
		rep.Unrepaired++
		return ctx.Err()
	}
	s.mu.Lock()
	if cur := s.replicas[key]; cur == obj {
		s.replicas[key] = &types.Object{ID: obj.ID, Version: resp.Version, Data: resp.Data}
		s.replicaSums[key] = sum
	}
	s.mu.Unlock()
	rep.Repairs++
	return nil
}

// scrubTally charges a repair's reads to the pass: every payload fetched pays
// the budget before it is looked at and counts toward Bytes, and a holder
// that does not deliver is a skip.
func scrubTally(bud *scrub.Budget, rep *scrub.Report) reader.Tally {
	return reader.Tally{
		Got: func(ctx context.Context, n int) error {
			if err := bud.Charge(ctx, int64(n)); err != nil {
				return err
			}
			rep.Bytes += int64(n)
			return nil
		},
		Missed: func() { rep.Skipped++ },
	}
}

// repairShard rebuilds a rotted local shard from k healthy peers.
func (s *Server) repairShard(ctx context.Context, sk string, info *types.StripeInfo, want uint64, bud *scrub.Budget, rep *scrub.Report) error {
	myIndex := s.shardIndexIn(info)
	if myIndex < 0 {
		rep.Unrepaired++
		return nil
	}
	shards, err := s.rebuild(ctx, info, []int{myIndex}, scrubTally(bud, rep))
	if err == nil {
		// The rebuilt stripe must be self-consistent; if a peer shard is
		// itself rotted, the reconstruction is garbage and the stripe phase
		// owns pinpointing the bad member.
		start := time.Now()
		err = s.codec.Verify(shards)
		s.col.Add(metrics.Decode, time.Since(start))
	}
	if err != nil {
		rep.Unrepaired++
		return ctx.Err() // a cancelled pass stops here; any other failure is the next pass's
	}
	rebuilt := shards[myIndex]
	sum := s.digest(rebuilt)
	s.mu.Lock()
	if s.store.Has(sk) && s.held[info.ID].sums[myIndex] == want {
		s.holdShardLocked(info.ID, myIndex, sum, info)
		s.store.Put(sk, rebuilt)
	}
	s.mu.Unlock()
	s.mutations.Add(1)
	rep.Repairs++
	return nil
}

// --- phase 2: replica-group cross-check ---

func (s *Server) scrubReplicaGroups(ctx context.Context, bud *scrub.Budget, rep *scrub.Report) error {
	type item struct {
		key string
		obj *types.Object
		sum uint64
		ver types.Version
	}
	s.mu.Lock()
	items := make([]item, 0, len(s.local))
	for key, st := range s.local {
		if st.state != types.StateReplicated || st.sum == 0 {
			continue
		}
		obj := s.objects[key]
		if obj == nil {
			continue
		}
		items = append(items, item{key, obj, st.sum, st.version})
	}
	s.mu.Unlock()
	sort.Slice(items, func(i, j int) bool { return items[i].key < items[j].key })

	for _, it := range items {
		holders := s.place.ReplicaHolders(s.id)
		if meta, ok := s.reader.LookupMeta(ctx, it.obj.ID); ok && len(meta.Replicas) > 0 {
			holders = meta.Replicas
		}
		for _, h := range s.others(holders) {
			if err := bud.Charge(ctx, 0); err != nil {
				return err
			}
			resp, err := s.sendRetry(ctx, h, &transport.Message{Kind: transport.MsgChecksum, Key: it.key})
			if err != nil || resp.Kind != transport.MsgOK {
				// Unreachable mirror: the monitor declares it dead and
				// recovery re-protects its data — not corruption.
				rep.Skipped++
				continue
			}
			if resp.Flag && resp.Version == it.ver && resp.Sum == it.sum {
				continue // mirror agrees
			}
			if resp.Flag && resp.Version > it.ver {
				// The mirror holds a newer version (e.g. a failover write
				// this primary missed); reroute reconciliation owns that.
				continue
			}
			rep.Divergent++
			// Primary wins: re-push the authoritative bytes over the
			// missing, stale or rotted mirror — unless a racing write
			// already replaced our copy (its own push is in flight).
			s.mu.Lock()
			current := s.objects[it.key] == it.obj
			s.mu.Unlock()
			if !current {
				continue
			}
			if err := bud.Charge(ctx, int64(len(it.obj.Data))); err != nil {
				return err
			}
			rep.Bytes += int64(len(it.obj.Data))
			push := &transport.Message{
				Kind: transport.MsgReplicaPut,
				Var:  it.obj.ID.Var, Box: it.obj.ID.Box,
				Version: it.obj.Version, Data: it.obj.Data,
			}
			push.AttachDigest(it.sum)
			presp, perr := s.sendRetry(ctx, h, push)
			if perr == nil {
				perr = presp.AsError()
			}
			if perr != nil {
				rep.Skipped++
				continue
			}
			rep.Repairs++
		}
	}
	return nil
}

// --- phase 3: stripe verification ---

func (s *Server) scrubStripes(ctx context.Context, bud *scrub.Budget, rep *scrub.Report) error {
	s.mu.Lock()
	stripes := make(map[string]*types.StripeInfo, len(s.local))
	for key, st := range s.local {
		if st.state == types.StateEncoded {
			stripes[key] = st.layout
		}
	}
	s.mu.Unlock()
	for _, key := range sortedKeys(stripes) {
		if err := s.scrubStripe(ctx, stripes[key], bud, rep); err != nil {
			return err
		}
	}
	return nil
}

// scrubStripe probes every member for its shard, re-materializes shards
// lost by live members, then spot-decodes the stripe to verify parity
// consistency end to end.
func (s *Server) scrubStripe(ctx context.Context, info *types.StripeInfo, bud *scrub.Budget, rep *scrub.Report) error {
	if s.codec == nil {
		return nil
	}
	var missing []int
	reachable := 0
	for _, m := range info.Members {
		if err := bud.Charge(ctx, 0); err != nil {
			return err
		}
		resp, err := s.sendRetry(ctx, m.Server, &transport.Message{
			Kind: transport.MsgShardSum, Stripe: info.ID, ShardIndex: m.Index,
		})
		if err != nil || resp.Kind != transport.MsgOK {
			// Dead member: the stripe is under-protected, but recovery owns
			// rebuilding a replaced server's shards. Skip, don't flag.
			rep.Skipped++
			continue
		}
		reachable++
		if !resp.Flag {
			// Alive but missing its shard (lost without a failure event):
			// re-protect ahead of the lazy-recovery deadline.
			missing = append(missing, m.Index)
		}
	}
	if len(missing) > 0 && reachable-len(missing) >= info.K {
		if err := s.reencodeMissing(ctx, info, missing, bud, rep); err != nil {
			return err
		}
	}
	if reachable < info.K+info.M {
		// Parity consistency needs the full set; dead members are
		// recovery's job.
		return nil
	}
	return s.spotDecode(ctx, info, bud, rep)
}

// reencodeMissing rebuilds the named shard indexes from k healthy ones and
// pushes them back to their members.
func (s *Server) reencodeMissing(ctx context.Context, info *types.StripeInfo, missing []int, bud *scrub.Budget, rep *scrub.Report) error {
	shards, err := s.rebuild(ctx, info, missing, scrubTally(bud, rep))
	if err != nil {
		rep.Unrepaired++
		return ctx.Err() // a cancelled pass stops here; any other failure is the next pass's
	}
	for _, idx := range missing {
		member, ok := info.MemberFor(idx)
		if !ok {
			continue
		}
		data := shards[idx]
		if err := bud.Charge(ctx, int64(len(data))); err != nil {
			return err
		}
		rep.Bytes += int64(len(data))
		if s.pushShard(ctx, member, info, data, 0) {
			rep.Reencodes++
		} else {
			rep.Skipped++
		}
	}
	return nil
}

// spotDecode fetches the stripe's full shard set, verifies parity
// consistency, and on failure pinpoints and repairs the inconsistent shard:
// nulling the rotted one and reconstructing from the rest must yield a
// stripe that verifies.
func (s *Server) spotDecode(ctx context.Context, info *types.StripeInfo, bud *scrub.Budget, rep *scrub.Report) error {
	t := scrubTally(bud, rep)
	t.Missed = func() {} // every member just answered the probe: a miss now is churn, and the next pass re-checks
	shards, _, have := s.reader.Shards(ctx, info, info.K+info.M, nil, nil, t)
	if have < info.K+info.M {
		return ctx.Err()
	}
	start := time.Now()
	verr := s.codec.Verify(shards)
	s.col.Add(metrics.Decode, time.Since(start))
	if verr == nil {
		return nil
	}
	for _, m := range info.Members {
		trial := make([][]byte, len(shards))
		copy(trial, shards)
		trial[m.Index] = nil
		dStart := time.Now()
		err := s.codec.Reconstruct(trial)
		if err == nil {
			err = s.codec.Verify(trial)
		}
		s.col.Add(metrics.Decode, time.Since(dStart))
		if err != nil {
			continue
		}
		// Member m holds the inconsistent shard; push the corrected bytes.
		rep.Corruptions++
		if err := bud.Charge(ctx, int64(len(trial[m.Index]))); err != nil {
			return err
		}
		rep.Bytes += int64(len(trial[m.Index]))
		if s.pushShard(ctx, m, info, trial[m.Index], 0) {
			rep.Repairs++
		} else {
			rep.Unrepaired++
		}
		return nil
	}
	// More than one shard is inconsistent: beyond unambiguous single-shard
	// localization. The members' own local scans (which know their recorded
	// checksums) are the remaining line of defense.
	rep.Corruptions++
	rep.Unrepaired++
	return nil
}

// --- checksum-exchange handlers ---

// handleChecksum reports the live content checksum of this server's copy of
// an object. The replica copy is preferred (the caller is typically the
// primary cross-checking its mirrors), falling back to a primary copy so
// mirrors can audit their primary too. The checksum is recomputed from the
// stored bytes — a rotted copy reports its rotted sum, which is the point.
func (s *Server) handleChecksum(req *transport.Message) *transport.Message {
	s.mu.Lock()
	obj, ok := s.replicas[req.Key]
	if !ok {
		obj, ok = s.objects[req.Key]
	}
	s.mu.Unlock()
	if !ok {
		return &transport.Message{Kind: transport.MsgOK, Flag: false}
	}
	return &transport.Message{
		Kind: transport.MsgOK, Flag: true,
		Version: obj.Version, Sum: s.digest(obj.Data),
	}
}

// handleShardSum reports the live checksum of one locally held stripe shard.
// The engine read revalidates cold records against their stored CRCs on the
// way, so a rotted below-L1 shard reads as absent here too.
func (s *Server) handleShardSum(req *transport.Message) *transport.Message {
	data, ok := s.store.Peek(shardKey(req.Stripe, req.ShardIndex))
	if !ok {
		return &transport.Message{Kind: transport.MsgOK, Flag: false}
	}
	return &transport.Message{Kind: transport.MsgOK, Flag: true, Sum: s.digest(data)}
}

// --- at-rest bit-rot injection (chaos testing) ---

// RotTarget selects which category of locally stored payloads InjectBitRot
// corrupts.
type RotTarget int

// Bit-rot targets.
const (
	RotAny RotTarget = iota
	RotObjects
	RotReplicas
	RotShards
)

// RotEvent records one injected at-rest corruption, for test assertions.
type RotEvent struct {
	// Category is "object", "replica" or "shard".
	Category string
	// Key is the object key, or the shard key for shards.
	Key string
	// Offset is the byte offset of the flipped bit; Bit the XOR mask.
	Offset int
	Bit    byte
}

// InjectBitRot flips one bit in each of up to count locally stored payloads,
// chosen deterministically by rng over the sorted key space. It models
// silent at-rest memory corruption. The stored slice is replaced by a
// corrupted clone, never mutated in place: the in-process fabric may share a
// payload's backing array between a primary and the mirrors it pushed to,
// and real bit rot hits exactly one copy.
func (s *Server) InjectBitRot(rng *rand.Rand, target RotTarget, count int) []RotEvent {
	type cand struct {
		cat, key string
		data     []byte
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	var cands []cand
	if target == RotAny || target == RotObjects {
		for k, o := range s.objects {
			if len(o.Data) > 0 {
				cands = append(cands, cand{"object", k, o.Data})
			}
		}
	}
	if target == RotAny || target == RotReplicas {
		for k, o := range s.replicas {
			if len(o.Data) > 0 {
				cands = append(cands, cand{"replica", k, o.Data})
			}
		}
	}
	if target == RotAny || target == RotShards {
		// Shards may live in any tier; Peek fetches the stored bytes without
		// disturbing placement, and Overwrite below rots them wherever they
		// are (mem slice, disk record payload, or remote object).
		for _, k := range s.store.Keys() {
			if b, ok := s.store.Peek(k); ok && len(b) > 0 {
				cands = append(cands, cand{"shard", k, b})
			}
		}
	}
	sort.Slice(cands, func(i, j int) bool {
		if cands[i].cat != cands[j].cat {
			return cands[i].cat < cands[j].cat
		}
		return cands[i].key < cands[j].key
	})
	var events []RotEvent
	for n := 0; n < count && len(cands) > 0; n++ {
		j := rng.Intn(len(cands))
		c := cands[j]
		cands = append(cands[:j], cands[j+1:]...)
		off := rng.Intn(len(c.data))
		bit := byte(1) << uint(rng.Intn(8))
		clone := append([]byte(nil), c.data...)
		clone[off] ^= bit
		switch c.cat {
		case "object":
			if o := s.objects[c.key]; o != nil {
				s.objects[c.key] = &types.Object{ID: o.ID, Version: o.Version, Data: clone}
			}
		case "replica":
			if o := s.replicas[c.key]; o != nil {
				s.replicas[c.key] = &types.Object{ID: o.ID, Version: o.Version, Data: clone}
			}
		case "shard":
			if !s.store.Overwrite(c.key, clone) {
				continue // entry busy or moved; rot somewhere else instead
			}
		}
		events = append(events, RotEvent{Category: c.cat, Key: c.key, Offset: off, Bit: bit})
	}
	s.mutations.Add(uint64(len(events)))
	return events
}

func sortedKeys[V any](m map[string]V) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}
