package corec

import (
	"context"
	"fmt"
	"slices"
	"sort"

	"corec/internal/scrub"
	"corec/internal/transport"
	"corec/internal/types"
)

// RebalanceConfig tunes the paced live migrator. Pacing reuses the
// scrubber's token-bucket primitive: migration traffic drains tokens before
// every object move, so foreground puts and gets keep their latency profile
// while redundancy is being restored in the background.
type RebalanceConfig struct {
	// RateMBps caps migration bandwidth in MiB/s. 0 defaults to 64;
	// negative disables byte pacing (tests and emergency rebuilds).
	RateMBps float64
	// BurstBytes is the byte bucket's burst capacity. 0 defaults to 4 MiB.
	BurstBytes int
}

// RebalanceReport tallies one Rebalance pass.
type RebalanceReport struct {
	// Epoch is the ring epoch the pass ran against.
	Epoch uint64
	// Records is the number of distinct directory records examined.
	Records int
	// DirRehomed counts directory records re-pushed to their current shard
	// group (membership changes move shard ownership like data ownership).
	DirRehomed int
	// Moved counts objects re-homed to a new ring owner.
	Moved int
	// Repaired counts objects whose lost holders the pass replaced: a
	// primary that left by re-installing at the new owner, replica holders
	// that left by having the owner's current ring successors restore their
	// copies through recovery's restore (MsgRecover, new record attached).
	Repaired int
	// Reencoded counts encoded objects force-reinstalled at their primary
	// because their stripe lost a member the ring no longer contains.
	Reencoded int
	// Handoffs counts old primaries that released their copy after a move.
	Handoffs int
	// Skipped counts records that needed no action.
	Skipped int
	// Errors counts failed moves/repairs (left for the next pass).
	Errors int
	// BytesMoved is the migrated payload volume (what RateMBps paces).
	BytesMoved int64
}

// Rebalance runs one paced migration pass over the whole directory: it
// re-homes directory records to their current ring shard groups, moves
// every object whose ring owner changed (or whose primary is gone) to the
// new owner, has replicas lost with dead holders restored, and
// force-re-encodes stripes that lost a member permanently. Safe to run
// concurrently with foreground traffic — moves are idempotent versioned puts,
// restores never overwrite a newer copy, and the token bucket bounds the
// bandwidth they consume. Typically called after a Join, by Drain, or after
// gossip evicts a dead server.
func (c *Cluster) Rebalance(ctx context.Context) (RebalanceReport, error) {
	e := c.elastic
	if e == nil {
		return RebalanceReport{}, fmt.Errorf("corec: Rebalance requires elastic membership (Config.Membership)")
	}
	rep := RebalanceReport{Epoch: e.ring.Epoch()}
	// tally reads rep when the pass returns, so a pass cut short still
	// counts what it did.
	defer e.tally(&rep)

	rc := RebalanceConfig{}
	if c.cfg.Rebalance != nil {
		rc = *c.cfg.Rebalance
	}
	bucket := rebalanceBucket(rc)

	cl := c.NewClient()
	metas, err := c.collectDirectory(ctx, cl, bucket)
	if err != nil {
		return rep, err
	}
	rep.Records = len(metas)

	// Phase 1: re-home directory records. Restore-mode updates never clobber
	// live same-version records, so this phase is idempotent and safe before
	// any data moves.
	for _, m := range metas {
		if err := bucket.Take(ctx, metaRecordCost); err != nil {
			return rep, err
		}
		msg := &transport.Message{Kind: transport.MsgMetaUpdate, Flag: true, Meta: m.Clone()}
		if c.sendGroup(ctx, cl, c.dir.Servers(m.ID.Var, m.ID.Box), msg) {
			rep.DirRehomed++
		}
	}

	// Phase 2: paced data moves, in key order for deterministic tests.
	for _, m := range metas {
		if ctx.Err() != nil {
			return rep, ctx.Err()
		}
		key := m.ID.Key()
		owner := e.ring.OwnerKey(key)
		primaryLive := e.ring.Contains(m.Primary)

		switch {
		case owner != m.Primary || !primaryLive:
			// Ownership moved (join/drain rebalance) or the primary is gone
			// (gossip-evicted death): re-install at the current owner. The
			// fetch transparently uses replicas or degraded stripe decode, so
			// this is also the path that restores redundancy after a loss.
			if err := bucket.Take(ctx, int64(m.Size)); err != nil {
				return rep, err
			}
			data, ferr := cl.fetchObjectBytes(ctx, m.Clone())
			if ferr != nil {
				rep.Errors++
				continue
			}
			if !c.installAt(ctx, cl, owner, m, data) {
				rep.Errors++
				continue
			}
			rep.Moved++
			rep.BytesMoved += int64(len(data))
			if !primaryLive {
				rep.Repaired++
			} else if m.Primary != owner {
				// The old primary still runs (drain, or an ownership-only
				// move): tell it to release its copy and bookkeeping. Num
				// names the record acted on: a primary that has published a
				// later one since (a queued encode that committed meanwhile)
				// refuses, and the next pass moves what it then holds.
				resp, herr := cl.send(ctx, m.Primary, &transport.Message{
					Kind: transport.MsgHandoff, Key: key, Version: m.Version, Num: int64(m.Seq),
				})
				if herr == nil && resp.Kind == transport.MsgOK && resp.Flag {
					rep.Handoffs++
				}
			}

		case m.State == types.StateReplicated && c.lostReplicas(m) > 0:
			// Owner unchanged but replica holders left the ring: the owner's
			// current ring successors restore the lost copies.
			if err := bucket.Take(ctx, int64(m.Size)); err != nil {
				return rep, err
			}
			if c.repairReplicas(ctx, cl, m) {
				rep.Repaired++
				rep.BytesMoved += int64(m.Size)
			} else {
				rep.Errors++
			}

		case m.State == types.StateEncoded && c.stripeDegraded(m.Layout):
			// Owner unchanged but the stripe lost a member for good (elastic
			// fleets have no same-id replacement): reconstruct the object and
			// force-reinstall it at the primary, which re-encodes it at full
			// width over the current ring.
			if err := bucket.Take(ctx, int64(m.Size)); err != nil {
				return rep, err
			}
			data, ferr := cl.fetchObjectBytes(ctx, m.Clone())
			if ferr != nil {
				rep.Errors++
				continue
			}
			if !c.installAt(ctx, cl, owner, m, data) {
				rep.Errors++
				continue
			}
			rep.Reencoded++
			rep.BytesMoved += int64(len(data))

		default:
			rep.Skipped++
		}
	}
	return rep, nil
}

// rebalanceBucket builds the byte-pacing bucket from a config; nil means
// unpaced (a nil bucket's Take never blocks).
func rebalanceBucket(rc RebalanceConfig) *scrub.TokenBucket {
	rate := rc.RateMBps
	if rate == 0 {
		rate = 64
	}
	if rate < 0 {
		return nil
	}
	burst := float64(rc.BurstBytes)
	if burst <= 0 {
		burst = 4 << 20
	}
	return scrub.NewTokenBucket(rate*(1<<20), burst)
}

// metaRecordCost is the approximate wire cost charged to the byte bucket
// per directory record touched during collection and re-homing, so that
// control-plane sweeps are paced like data moves. Without it, back-to-back
// Rebalance passes hammer every server with unthrottled directory dumps
// and meta pushes, which shows up directly in foreground tail latency.
const metaRecordCost = 512

// collectDirectory dumps every live member's directory shard and dedups:
// the newest record per object key, in key order. Each dump's record volume
// is charged to the byte bucket so repeated passes stay off the foreground
// path.
func (c *Cluster) collectDirectory(ctx context.Context, cl *Client, bucket *scrub.TokenBucket) ([]*types.ObjectMeta, error) {
	members := c.place.Members()
	best := make(map[string]*types.ObjectMeta)
	reached := 0
	for _, m := range members {
		resp, err := cl.send(ctx, m, &transport.Message{Kind: transport.MsgDirDump})
		if err != nil || resp.Kind != transport.MsgOK {
			continue
		}
		reached++
		if err := bucket.Take(ctx, int64((len(resp.Metas)+1)*metaRecordCost)); err != nil {
			return nil, err
		}
		for i := range resp.Metas {
			meta := resp.Metas[i]
			key := meta.ID.Key()
			if cur, ok := best[key]; !ok || meta.Newer(cur) {
				best[key] = meta.Clone()
			}
		}
	}
	if reached == 0 && len(members) > 0 {
		return nil, fmt.Errorf("corec: rebalance: no directory shard reachable")
	}
	metas := make([]*types.ObjectMeta, 0, len(best))
	for _, m := range best {
		metas = append(metas, m)
	}
	sort.Slice(metas, func(i, j int) bool { return metas[i].ID.Key() < metas[j].ID.Key() })
	return metas, nil
}

// sendGroup delivers a directory message to every group member; true when
// at least one copy landed.
func (c *Cluster) sendGroup(ctx context.Context, cl *Client, group []types.ServerID, msg *transport.Message) bool {
	ok := false
	for _, t := range group {
		cp := *msg
		resp, err := cl.send(ctx, t, &cp)
		if err == nil && resp.AsError() == nil {
			ok = true
		}
	}
	return ok
}

// installAt re-installs an object at a (possibly new) owner via a
// migration put: versioned and idempotent, forced past the equal-version
// short-circuit so a re-encode actually happens.
func (c *Cluster) installAt(ctx context.Context, cl *Client, owner types.ServerID, m *types.ObjectMeta, data []byte) bool {
	resp, err := cl.send(ctx, owner, &transport.Message{
		Kind:    transport.MsgPut,
		Flag:    true,
		Num:     1,
		Var:     m.ID.Var,
		Box:     m.ID.Box,
		Version: m.Version,
		Data:    data,
	})
	return err == nil && resp.AsError() == nil
}

// lostReplicas counts a replicated object's holders that left the ring.
func (c *Cluster) lostReplicas(m *types.ObjectMeta) int {
	lost := 0
	for _, r := range m.Replicas {
		if !c.elastic.ring.Contains(r) {
			lost++
		}
	}
	return lost
}

// stripeDegraded reports whether a stripe references a member the ring no
// longer contains (a record without a layout counts as degraded: re-encoding
// the object publishes one).
func (c *Cluster) stripeDegraded(si *types.StripeInfo) bool {
	if si == nil {
		return true
	}
	for _, m := range si.Members {
		if !c.elastic.ring.Contains(m.Server) {
			return true
		}
	}
	return false
}

// repairReplicas has the primary's current ring successors that lack a live
// copy of a replicated object restore one through recovery's restore: each
// gets a MsgRecover carrying a record that names them beside the surviving
// holders, and fetches from those. The directory record is then refreshed
// to list the survivors (extra copies outside the window serve reads until
// the scrubber's orphan reaping retires them) and every successor that now
// holds a copy.
func (c *Cluster) repairReplicas(ctx context.Context, cl *Client, m *types.ObjectMeta) bool {
	fresh := m.Clone()
	fresh.Replicas = slices.DeleteFunc(fresh.Replicas, func(r types.ServerID) bool { return !c.elastic.ring.Contains(r) })
	var added []types.ServerID
	for _, t := range c.place.ReplicaHolders(m.Primary) {
		if t != m.Primary && !slices.Contains(fresh.Replicas, t) {
			added = append(added, t)
		}
	}
	ask := fresh.Clone()
	ask.Replicas = append(ask.Replicas, added...)
	restored := false
	for _, t := range added {
		resp, err := cl.send(ctx, t, &transport.Message{Kind: transport.MsgRecover, Var: m.ID.Var, Box: m.ID.Box, Meta: ask})
		if err == nil && resp.AsError() == nil {
			fresh.Replicas = append(fresh.Replicas, t)
			restored = true
		}
	}
	if !restored {
		return false
	}
	slices.Sort(fresh.Replicas)
	return c.sendGroup(ctx, cl, c.dir.Servers(m.ID.Var, m.ID.Box), &transport.Message{Kind: transport.MsgMetaUpdate, Meta: fresh})
}
