package corec

import (
	"context"
	"fmt"
	"slices"

	"corec/internal/scrub"
	"corec/internal/transport"
	"corec/internal/types"
)

// RebalanceReport tallies one Rebalance pass.
type RebalanceReport struct {
	// Epoch is the ring epoch the pass ran against.
	Epoch uint64
	// Records is the number of distinct directory records examined.
	Records int
	// DirRehomed counts directory records re-pushed to their current shard
	// group (membership changes move shard ownership like data ownership).
	DirRehomed int
	// Moved counts objects whose record now names a new primary, the owner.
	Moved int
	// Repaired counts objects whose record named a server that left the ring
	// (primary, replica holder, stripe member) and now names a live one.
	Repaired int
	// Handoffs counts old primaries that released their copy after a move.
	Handoffs int
	// Skipped counts records needing no edit, and edits their primary refused.
	Skipped int
	// Errors counts failed edits (left for the next pass).
	Errors int
	// BytesMoved is the payload the pass restored (what the pacer charges): a
	// shard per stripe slot that changed hands, the object per full copy.
	BytesMoved int64
}

// Add sums o's tallies into r and keeps the newer epoch.
func (r *RebalanceReport) Add(o RebalanceReport) {
	r.Epoch = max(r.Epoch, o.Epoch)
	r.Records += o.Records
	r.DirRehomed += o.DirRehomed
	r.Moved += o.Moved
	r.Repaired += o.Repaired
	r.Handoffs += o.Handoffs
	r.Skipped += o.Skipped
	r.Errors += o.Errors
	r.BytesMoved += o.BytesMoved
}

// Rebalance runs one paced pass over the whole directory: it re-homes
// directory records to their current ring shard groups, then edits every
// record the ring outdated (see editRecord). The primary the edit names
// carries it out: the servers the record names restore their pieces through
// recovery's restores, and it publishes the record. An old primary then
// releases its copy (MsgHandoff). The migrator moves no bytes. Safe beside
// foreground traffic: an edit its primary has since superseded is refused,
// restores never overwrite a newer copy, and the token bucket bounds their
// bandwidth. Typically called after a Join, by Drain, or after gossip evicts
// a dead server.
func (c *Cluster) Rebalance(ctx context.Context) (RebalanceReport, error) {
	e := c.elastic
	if e == nil {
		return RebalanceReport{}, fmt.Errorf("corec: Rebalance requires elastic membership (Config.Membership)")
	}
	rep := RebalanceReport{Epoch: e.ring.Epoch()}
	// tally reads rep when the pass returns, so a pass cut short still
	// counts what it did.
	defer e.tally(&rep)

	bucket := rebalanceBucket(c.cfg.rebalanceMBps)

	// Each member's shard is charged to the bucket, a record at a time,
	// before the next member is asked.
	cl := c.NewClient()
	metas, err := cl.reader.Sweep(ctx, c.place.Members(), func(ctx context.Context, records int) error {
		return bucket.Take(ctx, int64((records+1)*metaRecordCost))
	})
	if err != nil {
		return rep, err
	}
	rep.Records = len(metas)

	// Phase 1: re-home directory records. Restore-mode updates never clobber
	// live same-version records, so this phase is idempotent and safe before
	// any record is edited.
	for i := range metas {
		m := &metas[i]
		if err := bucket.Take(ctx, metaRecordCost); err != nil {
			return rep, err
		}
		msg := &transport.Message{Kind: transport.MsgMetaUpdate, Flag: true, Meta: m.Clone()}
		if c.sendGroup(ctx, cl, c.dir.Servers(m.ID.Var, m.ID.Box), msg) {
			rep.DirRehomed++
		}
	}

	// Phase 2: paced record edits, in key order for deterministic tests.
	for i := range metas {
		m := &metas[i]
		if ctx.Err() != nil {
			return rep, ctx.Err()
		}
		ed, lost := c.editRecord(m)
		if ed == nil {
			if lost {
				rep.Errors++ // no live server can take a lost slot
			} else {
				rep.Skipped++
			}
			continue
		}
		resp, err := cl.send(ctx, ed.Primary, &transport.Message{
			Kind: transport.MsgRecover, Var: m.ID.Var, Box: m.ID.Box, Meta: ed, Metas: []types.ObjectMeta{*m},
		})
		if err == nil {
			err = resp.AsError()
		}
		if err != nil {
			rep.Errors++
			continue
		}
		if err := bucket.Take(ctx, metaRecordCost+resp.Num); err != nil {
			return rep, err
		}
		rep.BytesMoved += resp.Num
		if !resp.Flag {
			rep.Skipped++
		} else if lost {
			rep.Repaired++
		}
		if ed.Primary != m.Primary {
			if resp.Flag {
				rep.Moved++
			}
			// The old primary, if it still runs, releases its copy, unless it
			// published a record after m (Seq in Num): the next pass edits that.
			h, err := cl.send(ctx, m.Primary, &transport.Message{
				Kind: transport.MsgHandoff, Key: m.ID.Key(), Version: m.Version, Num: int64(m.Seq), Meta: resp.Meta,
			})
			if err == nil && h.Kind == transport.MsgOK && h.Flag {
				rep.Handoffs++
			}
		}
	}
	return rep, nil
}

// rebalanceRateMBps caps migration bandwidth in MiB/s.
const rebalanceRateMBps = 64

// rebalanceBucket builds a pass's byte pacer, the scrubber's
// (scrub.NewByteBucket, burst a quarter second's worth): every record a pass
// touches and every byte its edits restore drain tokens, so foreground puts
// and gets keep their latency profile while redundancy is restored in the
// background. rate 0 takes rebalanceRateMBps; a negative rate is unpaced (a
// nil bucket's Take never blocks).
func rebalanceBucket(rate float64) *scrub.TokenBucket {
	if rate == 0 {
		rate = rebalanceRateMBps
	}
	return scrub.NewByteBucket(rate * (1 << 20))
}

// metaRecordCost is the approximate wire cost charged to the byte bucket
// per directory record touched during collection and re-homing, so that
// control-plane sweeps are paced like data moves. Without it, back-to-back
// Rebalance passes hammer every server with unthrottled directory sweeps
// and meta pushes, which shows up directly in foreground tail latency.
const metaRecordCost = 512

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

// editRecord returns m edited to the ring as it now is, nil when m needs no
// edit, and whether a server m names left the ring. An edit is due when the
// key's ring owner is not m's primary or a server m names left, and names the
// owner as primary. A replicated object's replica holders become the
// owner's. An encoded object keeps its stripe and every member still in the
// ring keeps its slot, but for data shard 0, the primary's: when no member
// left (a stripe rebuilds one slot at a time), it goes to an owner outside
// the stripe sharing no other member's cabinet, so a primary read serves the
// object in one request. A slot whose member left goes to the first server
// of the owner's coding-group walk (the owner first) not in the stripe and
// sharing no member's cabinet, else the first not in it; nil if none is.
func (c *Cluster) editRecord(m *types.ObjectMeta) (*types.ObjectMeta, bool) {
	ring := c.elastic.ring
	left := func(s types.ServerID) bool { return !ring.Contains(s) }
	owner := ring.OwnerKey(m.ID.Key())
	lost := slices.ContainsFunc(m.Locations(), left)
	if m.Layout != nil {
		lost = lost || slices.ContainsFunc(m.Layout.Members, func(mb types.StripeMember) bool { return left(mb.Server) })
	}
	if owner == m.Primary && !lost {
		return nil, false
	}
	ed := m.Clone()
	ed.Primary = owner
	if m.State == types.StateReplicated {
		ed.Replicas = c.place.ReplicaHolders(owner)
	}
	if m.Layout == nil {
		return ed, lost
	}
	members := ed.Layout.Members
	inStripe, cabinets := make(map[types.ServerID]bool), make(map[int]bool)
	free := func(s types.ServerID) bool {
		d, _ := ring.Domain(s)
		return !inStripe[s] && !cabinets[d]
	}
	take := func(s types.ServerID) {
		d, _ := ring.Domain(s)
		inStripe[s], cabinets[d] = true, true
	}
	for _, mb := range members {
		if mb.Index != 0 && !left(mb.Server) {
			take(mb.Server)
		}
	}
	walk := append([]types.ServerID{owner}, ring.Targets(owner, ring.Size())...)
	for i, mb := range members {
		if !left(mb.Server) && (mb.Index != 0 || mb.Server == owner || lost || !free(owner)) {
			take(mb.Server)
			continue
		}
		j := slices.IndexFunc(walk, free)
		if j < 0 {
			j = slices.IndexFunc(walk, func(s types.ServerID) bool { return !inStripe[s] })
		}
		if j < 0 {
			return nil, true
		}
		take(walk[j])
		members[i].Server = walk[j]
	}
	return ed, lost
}
