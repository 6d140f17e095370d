package server

import (
	"context"
	"fmt"
	"slices"
	"sort"
	"sync"
	"time"

	"corec/internal/geometry"
	"corec/internal/metrics"
	"corec/internal/placement"
	"corec/internal/transport"
	"corec/internal/types"
)

// The metadata directory is sharded over all staging servers by the directory
// cells an object's box touches (see placement.Directory), each shard mirrored
// on NLevel ring successors so metadata tolerates as many failures as the
// data it describes. An object's record is the only record: an encoded one
// carries its stripe's layout. Servers host their shard in a directory and
// reach other shards through the same transport as the data plane, charging
// the Metadata bucket.

// directory is one server's shard of the metadata directory. It has its own
// lock: lookups and region queries share it for reading and never wait on
// s.mu, the lock every put and get of payload state needs.
type directory struct {
	place *placement.Directory

	mu sync.RWMutex
	// metas holds the object records by object key.
	metas map[string]*types.ObjectMeta
	// buckets indexes metas by (variable, cell) for every cell a record's
	// box touches, so a region query scans only the cells it touches.
	buckets map[dirBucket]map[string]*types.ObjectMeta
}

type dirBucket struct {
	name string
	cell int
}

func newDirectory(place *placement.Directory) *directory {
	return &directory{
		place:   place,
		metas:   make(map[string]*types.ObjectMeta),
		buckets: make(map[dirBucket]map[string]*types.ObjectMeta),
	}
}

// update installs meta unless the shard already holds a newer record. A
// restore-mode update (directory rebuild after a failure, re-homing by the
// migrator) additionally never replaces an equally new live record.
func (d *directory) update(meta *types.ObjectMeta, restore bool) {
	key := meta.ID.Key()
	cp := meta.Clone()
	d.mu.Lock()
	defer d.mu.Unlock()
	if cur, ok := d.metas[key]; ok {
		// A stale update comes from a slow path (a delayed group write, a
		// hinted-handoff replay, a restore snapshot overtaken by a live
		// flip). Same-version updates are ordered by Seq; without that
		// tie-break, concurrent state flips could land in different orders
		// on different mirrors and leave the group permanently divergent —
		// with some mirrors pointing at a stripe the newer flip has already
		// dropped. The live record a restore meets may carry a transition
		// made while the snapshot was in flight; only a strictly newer Seq
		// proves the restore writer holds the later record.
		if !cur.Newer(meta) && (!restore || meta.Newer(cur)) {
			*cur = *cp // same key, same box: the buckets already point here
		}
		return
	}
	d.metas[key] = cp
	for _, cell := range d.place.Cells(meta.ID.Box) {
		b := dirBucket{meta.ID.Var, cell}
		if d.buckets[b] == nil {
			d.buckets[b] = make(map[string]*types.ObjectMeta)
		}
		d.buckets[b][key] = cp
	}
}

func (d *directory) lookup(key string) (*types.ObjectMeta, bool) {
	d.mu.RLock()
	defer d.mu.RUnlock()
	m, ok := d.metas[key]
	if !ok {
		return nil, false
	}
	return m.Clone(), true
}

// query returns the shard's records of the variable whose box intersects
// box (every record of the variable when box is invalid; with no variable
// named either, the whole shard), in key order: query responses are wire
// output — they feed region reads, recovery's rebuild and the rebalancer —
// and must be byte-identical across runs.
func (d *directory) query(name string, box geometry.Box) []types.ObjectMeta {
	cells := d.place.Cells(box)
	d.mu.RLock()
	defer d.mu.RUnlock()
	var keys []string
	if cells != nil {
		for _, cell := range cells {
			for k, m := range d.buckets[dirBucket{name, cell}] {
				if m.ID.Box.Intersects(box) {
					keys = append(keys, k)
				}
			}
		}
	} else {
		for k, m := range d.metas {
			if name == "" || m.ID.Var == name {
				keys = append(keys, k)
			}
		}
	}
	sort.Strings(keys)
	keys = slices.Compact(keys) // a record is in every bucket its box touches
	if len(keys) == 0 {
		return nil
	}
	out := make([]types.ObjectMeta, len(keys))
	for i, k := range keys {
		out[i] = *d.metas[k].Clone()
	}
	return out
}

func (d *directory) remove(key string) {
	d.mu.Lock()
	defer d.mu.Unlock()
	m, ok := d.metas[key]
	if !ok {
		return
	}
	delete(d.metas, key)
	for _, cell := range d.place.Cells(m.ID.Box) {
		b := dirBucket{m.ID.Var, cell}
		delete(d.buckets[b], key)
		if len(d.buckets[b]) == 0 {
			delete(d.buckets, b)
		}
	}
}

// count returns the number of records in the shard.
func (d *directory) count() int {
	d.mu.RLock()
	defer d.mu.RUnlock()
	return len(d.metas)
}

// --- shard-side handlers ---

func (s *Server) handleMetaUpdate(req *transport.Message) *transport.Message {
	if req.Meta == nil {
		return transport.Errf("server %d: MetaUpdate without record", s.id)
	}
	// Advance the local hybrid clock past every Seq that flows through this
	// mirror, so metas this server mints later are ordered after them even
	// under clock skew.
	s.observeMetaSeq(req.Meta.Seq)
	s.dir.update(req.Meta, req.Flag)
	return transport.Ok()
}

func (s *Server) handleMetaLookup(req *transport.Message) *transport.Message {
	m, ok := s.dir.lookup(req.Key)
	return &transport.Message{Kind: transport.MsgOK, Flag: ok, Meta: m}
}

func (s *Server) handleMetaQuery(req *transport.Message) *transport.Message {
	return &transport.Message{Kind: transport.MsgOK, Metas: s.dir.query(req.Var, req.Box)}
}

func (s *Server) handleMetaDelete(req *transport.Message) *transport.Message {
	s.dir.remove(req.Key)
	return transport.Ok()
}

// --- client-side helpers (used by servers acting as directory clients) ---

// dirUpdate writes a metadata record to the shard group of every cell its
// box touches. Failures of some mirrors are tolerated (the survivors serve
// reads until recovery restores the group).
func (s *Server) dirUpdate(ctx context.Context, meta *types.ObjectMeta) error {
	start := time.Now()
	defer func() { s.col.Add(metrics.Metadata, time.Since(start)) }()
	msg := &transport.Message{Kind: transport.MsgMetaUpdate, Meta: meta}
	return s.sendToGroup(ctx, s.dirPlace.Servers(meta.ID.Var, meta.ID.Box), msg)
}

// sendToGroup delivers msg to every shard holder, treating the operation as
// successful when at least one copy lands. Mirrors that missed the write
// while the group as a whole succeeded leave the record single-homed; those
// are remembered as hints and re-delivered by flushMirrorHints, so a
// transient partition or drop cannot silently reduce a directory group to
// one copy for the rest of the run. A record registered in several cells
// addresses several groups; those are written concurrently, so a many-cell
// record costs one round trip, not one per server. One group stays
// sequential: concurrency bought nothing on two members.
func (s *Server) sendToGroup(ctx context.Context, targets []types.ServerID, msg *transport.Message) error {
	errs := make([]error, len(targets))
	deliver := func(i int) {
		cp := *msg // shallow copy; From is mutated by Send
		resp, err := s.sendRetry(ctx, targets[i], &cp)
		if err == nil {
			err = resp.AsError()
		}
		errs[i] = err
	}
	concurrent := len(targets) > s.cfg.Policy.NLevel+1
	var wg sync.WaitGroup
	for i := range targets {
		if !concurrent {
			deliver(i)
			continue
		}
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			deliver(i)
		}(i)
	}
	wg.Wait()
	var firstErr error
	delivered := false
	for _, err := range errs {
		if err == nil {
			delivered = true
		} else if firstErr == nil {
			firstErr = err
		}
	}
	if entry, hintable := hintEntry(msg); hintable {
		s.mu.Lock()
		for i, t := range targets {
			switch {
			case errs[i] == nil:
				// A successful write supersedes any older pending hint for
				// the same record and target: the mirror now holds a state
				// at least as new.
				delete(s.mirrorHints, mirrorHintKey(t, entry))
			case delivered:
				s.mirrorHints[mirrorHintKey(t, entry)] = mirrorHint{target: t, msg: cloneForHint(msg)}
			}
		}
		s.mu.Unlock()
	}
	if delivered {
		return nil
	}
	return firstErr
}

// mirrorHint is a directory write that landed on part of its shard group;
// target still owes the record.
type mirrorHint struct {
	target types.ServerID
	msg    *transport.Message
}

func mirrorHintKey(target types.ServerID, entry string) string {
	return fmt.Sprintf("%d/%s", target, entry)
}

// hintEntry names the directory record a group write addresses. Updates and
// deletes of the same key share one entry so the latest operation wins.
func hintEntry(msg *transport.Message) (string, bool) {
	switch msg.Kind {
	case transport.MsgMetaUpdate:
		if msg.Meta == nil {
			return "", false
		}
		return "m/" + msg.Meta.ID.Key(), true
	case transport.MsgMetaDelete:
		return "m/" + msg.Key, true
	}
	return "", false
}

// cloneForHint snapshots the parts of a directory message the caller may
// reuse, so a pending hint stays immutable.
func cloneForHint(msg *transport.Message) *transport.Message {
	cp := *msg
	if msg.Meta != nil {
		cp.Meta = msg.Meta.Clone()
	}
	return &cp
}

// flushMirrorHints re-delivers directory writes that missed a mirror while
// their group write succeeded (hinted handoff). Called at step boundaries:
// by then a transient partition has typically healed or the dead mirror has
// been replaced (recovery rebuilds its shard from the survivors, making the
// hint redundant — the re-delivery is versioned and idempotent either way).
func (s *Server) flushMirrorHints(ctx context.Context) {
	s.mu.Lock()
	if len(s.mirrorHints) == 0 {
		s.mu.Unlock()
		return
	}
	// In key order, so the messages a step boundary sends come in the same
	// order on every run.
	keys := sortedKeys(s.mirrorHints)
	pending := make([]mirrorHint, len(keys))
	for i, k := range keys {
		pending[i] = s.mirrorHints[k]
	}
	s.mu.Unlock()
	start := time.Now()
	for i, h := range pending {
		k := keys[i]
		cp := *h.msg
		resp, err := s.sendRetry(ctx, h.target, &cp)
		if err == nil {
			err = resp.AsError()
		}
		if err != nil {
			continue // mirror still unreachable; keep the hint
		}
		s.mu.Lock()
		// Drop the hint only if no newer write replaced it meanwhile.
		if cur, ok := s.mirrorHints[k]; ok && cur.msg == h.msg {
			delete(s.mirrorHints, k)
			s.col.AddCounter(metrics.MirrorRepairCount, 1)
		}
		s.mu.Unlock()
	}
	s.col.Add(metrics.Metadata, time.Since(start))
}
