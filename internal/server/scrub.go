package server

// The anti-entropy scrubber: background verification of data at rest. The
// decision layer (checksums, the pacer, reports) lives in internal/scrub; this
// file walks one server's stored payloads and the holders of the objects it
// is primary of. The scrubber only finds: every piece it finds lost or rotted
// is restored by recovery's restore code (recover.go), on this server or on
// the holder it asks with MsgRecover.
//
// A pass runs up to three cumulative phases (scrub.Depth):
//
//   local    verify every locally stored payload (primary copies, replica
//            copies, erasure shards) against its digest and restore
//            one that fails it. A shard found on a restarted disk tier has no
//            digest yet; it is backfilled rather than flagged.
//   replica  ask every mirror the record of a replicated object names to
//            recover, the record attached: a mirror whose copy is missing,
//            older than the record, or of its version but another digest
//            restores it.
//   stripe   gather every shard of an encoded object's stripe in one round.
//            A member whose shard did not arrive is asked to recover; a full
//            set is checked for parity consistency end to end, and the holder
//            of a shard it pinpoints as inconsistent is asked to restore it.
//
// Every phase pays for its reads through the pass's token bucket
// BEFORE taking any server lock, so pacing can never stall the foreground
// put/get path. Unreachable peers are counted as skips, never as corruption:
// a dead server is the monitor's job (recovery re-protects its data), and
// conflating the two would make the scrubber fight the failure handling.

import (
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"sort"
	"time"

	"corec/internal/failure"
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
// one. Fleet sweeps (MsgScrub) use it to run a local pass everywhere before
// the cross-server phases, so every at-rest corruption is detected by its
// holder before a peer's cross-check repairs it out from under the count.
func (s *Server) ScrubDepth(ctx context.Context, depth scrub.Depth) (scrub.Report, error) {
	return s.scrubPass(ctx, s.scrubConfig(), depth)
}

// handleScrub runs one pass at depth Num for a fleet sweep (MsgScrub) and
// answers with its report as JSON, or an error for a pass cut short.
func (s *Server) handleScrub(ctx context.Context, req *transport.Message) *transport.Message {
	rep, err := s.ScrubDepth(ctx, scrub.Depth(req.Num))
	if err != nil {
		return transport.Errf("server %d: scrub: %v", s.id, err)
	}
	data, err := json.Marshal(rep)
	if err != nil {
		return transport.Errf("server %d: scrub: %v", s.id, err)
	}
	return &transport.Message{Kind: transport.MsgOK, Data: data}
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
	bucket := scrub.NewByteBucket(float64(cfg.BytesPerSec))
	var rep scrub.Report
	err := s.scrubLocal(ctx, bucket, &rep)
	if err == nil && depth >= scrub.DepthReplica {
		err = s.scrubReplicaGroups(ctx, bucket, &rep)
	}
	if err == nil && depth >= scrub.DepthStripe {
		err = s.scrubStripes(ctx, bucket, &rep)
	}
	s.scrubPasses.Add(1)
	s.scrubMu.Lock()
	s.scrubTotal.Add(rep)
	s.scrubMu.Unlock()
	return rep, err
}

// scrubTally charges a restore's reads to the pass: every payload fetched pays
// the budget before it is looked at and counts toward Bytes, and a holder
// that does not deliver is a skip.
func scrubTally(bucket *scrub.TokenBucket, rep *scrub.Report) reader.Tally {
	return reader.Tally{
		Got: func(ctx context.Context, n int) error {
			if err := bucket.Take(ctx, int64(n)); err != nil {
				return err
			}
			rep.Bytes += int64(n)
			return nil
		},
		Missed: func() { rep.Skipped++ },
	}
}

// --- phase 1: local verification ---

func (s *Server) scrubLocal(ctx context.Context, bucket *scrub.TokenBucket, rep *scrub.Report) error {
	// Snapshot the key space up front (sorted, for deterministic order);
	// each item is then re-read under the lock so concurrent writes between
	// snapshot and verify are seen, not misdiagnosed.
	s.mu.Lock()
	objKeys := sortedKeys(s.objects)
	copyKeys := append(objKeys, sortedKeys(s.replicas)...)
	s.mu.Unlock()
	shardKeys := s.store.Keys()

	// Primary copies, then replicas. A copy deleted or encoded since the
	// snapshot has nothing left to verify.
	for i, key := range copyKeys {
		copies := s.objects
		if i >= len(objKeys) {
			copies = s.replicas
		}
		s.mu.Lock()
		obj := copies[key]
		hold := obj.hold()
		s.mu.Unlock()
		if obj != nil {
			err := s.scrubCopy(ctx, obj, bucket, rep)
			hold.Release()
			if err != nil {
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
		// has its member restore it.
		data, ok := s.store.Peek(sk)
		if !ok {
			continue
		}
		if err := bucket.Take(ctx, int64(len(data))); err != nil {
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
			repaired, err := s.restoreShard(ctx, info, index, 0, want, scrubTally(bucket, rep))
			if err := restored(ctx, repaired, err, rep); err != nil {
				return err
			}
		}
	}
	return nil
}

// scrubCopy verifies a full copy, a primary's or a mirror's, against the
// digest it carries, and restores it from another holder when it fails.
func (s *Server) scrubCopy(ctx context.Context, obj *fullCopy, bucket *scrub.TokenBucket, rep *scrub.Report) error {
	if err := bucket.Take(ctx, int64(len(obj.Data))); err != nil {
		return err
	}
	rep.Scanned++
	rep.Bytes += int64(len(obj.Data))
	if s.digest(obj.Data) == obj.Sum {
		return nil
	}
	rep.Corruptions++
	meta, ok := s.reader.LookupMeta(ctx, obj.ID)
	if !ok {
		rep.Unrepaired++
		return ctx.Err()
	}
	repaired, err := s.recoverReplicated(ctx, meta, obj, scrubTally(bucket, rep))
	return restored(ctx, repaired, err, rep)
}

// restored counts the outcome of a restore of a piece found rotted. Only a
// cancelled pass stops on it; any other failure is the next pass's.
func restored(ctx context.Context, repaired bool, err error, rep *scrub.Report) error {
	if repaired {
		rep.Repairs++
	} else if err != nil {
		rep.Unrepaired++
	}
	return ctx.Err()
}

// --- phases 2 and 3: the holders of this server's objects ---

// primaryRecords returns copies of this server's records, by key, of the
// objects it is primary of in the given state.
func (s *Server) primaryRecords(state types.ResilienceState) []*types.ObjectMeta {
	s.mu.Lock()
	defer s.mu.Unlock()
	var metas []*types.ObjectMeta
	for _, key := range sortedKeys(s.local) {
		if rec := *s.local[key]; rec.State == state {
			metas = append(metas, &rec)
		}
	}
	return metas
}

// askRecover asks holder to restore its piece of meta's object, the record
// attached; rotted, when set, is the digest of the shard there found
// inconsistent with its stripe. A restored piece counts in Repairs and in
// Divergent (a mirror's copy) or Reencodes (a shard), and its bytes are
// charged to the pass; a holder that cannot be asked counts in *failed.
func (s *Server) askRecover(ctx context.Context, holder types.ServerID, meta *types.ObjectMeta, rotted uint64, failed *int64, bucket *scrub.TokenBucket, rep *scrub.Report) error {
	resp, err := s.sendRetry(ctx, holder, &transport.Message{
		Kind: transport.MsgRecover, Var: meta.ID.Var, Box: meta.ID.Box, Meta: meta, Sum: rotted,
	})
	if err == nil {
		err = resp.AsError()
	}
	if err != nil {
		*failed++
		return ctx.Err()
	}
	if !resp.Flag {
		return nil // the piece was intact
	}
	rep.Repairs++
	size := meta.Size
	if meta.State == types.StateEncoded {
		size = meta.Layout.ShardSize
		rep.Reencodes++
	} else {
		rep.Divergent++
	}
	rep.Bytes += int64(size)
	return bucket.Take(ctx, int64(size))
}

func (s *Server) scrubReplicaGroups(ctx context.Context, bucket *scrub.TokenBucket, rep *scrub.Report) error {
	for _, mine := range s.primaryRecords(types.StateReplicated) {
		if err := ctx.Err(); err != nil {
			return err
		}
		// The directory's record names the mirrors; this server's own omits
		// them.
		meta, ok := s.reader.LookupMeta(ctx, mine.ID)
		if !ok {
			rep.Skipped++
			continue
		}
		for _, h := range s.others(meta.Replicas) {
			// An unreachable mirror is the monitor's to declare dead and
			// recovery's to re-protect: a skip, not corruption.
			if err := s.askRecover(ctx, h, meta, 0, &rep.Skipped, bucket, rep); err != nil {
				return err
			}
		}
	}
	return nil
}

func (s *Server) scrubStripes(ctx context.Context, bucket *scrub.TokenBucket, rep *scrub.Report) error {
	if s.codec == nil {
		return nil
	}
	for _, meta := range s.primaryRecords(types.StateEncoded) {
		if meta.Layout == nil {
			continue
		}
		if err := s.scrubStripe(ctx, meta, bucket, rep); err != nil {
			return err
		}
	}
	return nil
}

// scrubStripe gathers all k+m shards of an encoded object's stripe in one
// round. Each member whose shard did not arrive is asked to recover it (a
// dead member counts as a skip). Once every shard arrived, the stripe's
// parity consistency is verified, and on failure the inconsistent shard is
// pinpointed: nulling it and reconstructing from the rest must yield a stripe
// that verifies. Its holder is then asked to restore it.
func (s *Server) scrubStripe(ctx context.Context, meta *types.ObjectMeta, bucket *scrub.TokenBucket, rep *scrub.Report) error {
	info := meta.Layout
	t := scrubTally(bucket, rep)
	t.Missed = func() {} // its member is asked to recover below, and counted there
	shards, _, have, _ := s.reader.Shards(ctx, info, info.K+info.M, nil, nil, t)
	if err := ctx.Err(); err != nil {
		return err
	}
	if have < info.K+info.M {
		for _, m := range info.Members {
			if shards[m.Index] == nil {
				if err := s.askRecover(ctx, m.Server, meta, 0, &rep.Skipped, bucket, rep); err != nil {
					return err
				}
			}
		}
		return nil
	}
	start := time.Now()
	verr := s.codec.Verify(shards)
	s.col.Add(metrics.Decode, time.Since(start))
	if verr == nil {
		return nil
	}
	rep.Corruptions++
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
		if err == nil {
			// Member m holds the inconsistent shard.
			return s.askRecover(ctx, m.Server, meta, s.digest(shards[m.Index]), &rep.Unrepaired, bucket, rep)
		}
	}
	// More than one shard is inconsistent: beyond unambiguous single-shard
	// localization. The members' own local scans (which know their recorded
	// checksums) are the remaining line of defense.
	rep.Unrepaired++
	return nil
}

// --- at-rest bit-rot injection (chaos testing) ---

// InjectBitRot flips one bit in each of up to count locally stored payloads
// of the target category, chosen deterministically by rng over the sorted key
// space, and returns what it rotted (Step left for the caller). It models
// silent at-rest memory corruption. The stored slice is replaced by a
// corrupted clone, never mutated in place: the in-process fabric may share a
// payload's backing array between a primary and the mirrors it pushed to,
// and real bit rot hits exactly one copy.
func (s *Server) InjectBitRot(rng *rand.Rand, target failure.RotTarget, count int) []failure.BitRotEvent {
	type cand struct {
		cat, key string
		data     []byte
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	var cands []cand
	if target == failure.RotAny || target == failure.RotObjects {
		for k, o := range s.objects {
			if len(o.Data) > 0 {
				cands = append(cands, cand{"object", k, o.Data})
			}
		}
	}
	if target == failure.RotAny || target == failure.RotReplicas {
		for k, o := range s.replicas {
			if len(o.Data) > 0 {
				cands = append(cands, cand{"replica", k, o.Data})
			}
		}
	}
	if target == failure.RotAny || target == failure.RotShards {
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
	var events []failure.BitRotEvent
	for n := 0; n < count && len(cands) > 0; n++ {
		j := rng.Intn(len(cands))
		c := cands[j]
		cands = append(cands[:j], cands[j+1:]...)
		off := rng.Intn(len(c.data))
		bit := byte(1) << uint(rng.Intn(8))
		clone := append([]byte(nil), c.data...)
		clone[off] ^= bit
		switch c.cat {
		case "object", "replica":
			copies := s.objects
			if c.cat == "replica" {
				copies = s.replicas
			}
			// Real rot flips bits inside the very copy its digest was
			// computed over: the clone keeps that digest.
			if o := copies[c.key]; o != nil {
				installCopyLocked(copies, c.key, &fullCopy{Object: types.Object{ID: o.ID, Version: o.Version, Data: clone, Sum: o.Sum}})
			}
		case "shard":
			if !s.store.Overwrite(c.key, clone) {
				continue // entry busy or moved; rot somewhere else instead
			}
		}
		events = append(events, failure.BitRotEvent{Server: s.id, Category: c.cat, Key: c.key, Offset: off, Bit: bit})
	}
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
