package server

import (
	"context"
	"fmt"
	"sort"
	"time"

	"corec/internal/metrics"
	"corec/internal/placement"
	"corec/internal/transport"
	"corec/internal/types"
)

// The metadata directory is sharded over all staging servers by key hash,
// with each record mirrored on the shard's ring successor so one failure
// never loses metadata. Servers host their shard in the dir/dirStripes maps
// and reach other shards through the same transport as the data plane,
// charging the Metadata bucket.

// --- shard-side handlers ---

func (s *Server) handleMetaUpdate(req *transport.Message) *transport.Message {
	if req.Meta == nil {
		return transport.Errf("server %d: MetaUpdate without record", s.id)
	}
	// Advance the local hybrid clock past every Seq that flows through this
	// mirror, so metas this server mints later are ordered after them even
	// under clock skew.
	s.observeMetaSeq(req.Meta.Seq)
	s.mu.Lock()
	defer s.mu.Unlock()
	key := req.Meta.ID.Key()
	if cur, ok := s.dir[key]; ok {
		if cur.Version > req.Meta.Version ||
			(cur.Version == req.Meta.Version && req.Meta.Seq < cur.Seq) {
			// Stale update from a slow path (a delayed group write, a
			// hinted-handoff replay, a restore snapshot overtaken by a live
			// flip). Same-version updates are ordered by Seq; without that
			// tie-break, concurrent state flips could land in different
			// orders on different mirrors and leave the group permanently
			// divergent — with some mirrors pointing at a stripe the newer
			// flip has already dropped.
			return transport.Ok()
		}
		// Restore-mode updates (directory rebuild after a failure, marked
		// by Flag) must never clobber an equally-new live record: the live
		// record may carry a state transition made while the snapshot was
		// in flight. A strictly newer Seq proves the restore writer holds
		// the later record and may overwrite.
		if req.Flag && cur.Version == req.Meta.Version && req.Meta.Seq <= cur.Seq {
			return transport.Ok()
		}
	}
	s.dir[key] = req.Meta.Clone()
	return transport.Ok()
}

func (s *Server) handleMetaLookup(req *transport.Message) *transport.Message {
	s.mu.Lock()
	defer s.mu.Unlock()
	m, ok := s.dir[req.Key]
	if !ok {
		return &transport.Message{Kind: transport.MsgOK, Flag: false}
	}
	return &transport.Message{Kind: transport.MsgOK, Flag: true, Meta: m.Clone()}
}

func (s *Server) handleMetaQuery(req *transport.Message) *transport.Message {
	s.mu.Lock()
	defer s.mu.Unlock()
	// Filter first, then sort only the matches: the shard holds every
	// variable's records, a query names one. Key order, not map order —
	// query responses are wire output and must be byte-identical across runs.
	var keys []string
	for k, m := range s.dir {
		if m.ID.Var != req.Var {
			continue
		}
		if req.Box.Valid() && !m.ID.Box.Intersects(req.Box) {
			continue
		}
		keys = append(keys, k)
	}
	sort.Strings(keys)
	resp := &transport.Message{Kind: transport.MsgOK}
	if len(keys) > 0 {
		resp.Metas = make([]types.ObjectMeta, len(keys))
		for i, k := range keys {
			resp.Metas[i] = *s.dir[k].Clone()
		}
	}
	return resp
}

func (s *Server) handleMetaDelete(req *transport.Message) *transport.Message {
	s.mu.Lock()
	defer s.mu.Unlock()
	delete(s.dir, req.Key)
	return transport.Ok()
}

func (s *Server) handleStripeUpdate(req *transport.Message) *transport.Message {
	if req.StripeInfo == nil {
		return transport.Errf("server %d: StripeUpdate without record", s.id)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	cp := *req.StripeInfo
	cp.Members = append([]types.StripeMember(nil), req.StripeInfo.Members...)
	s.dirStripes[cp.ID] = &cp
	return transport.Ok()
}

func (s *Server) handleStripeLookup(req *transport.Message) *transport.Message {
	s.mu.Lock()
	defer s.mu.Unlock()
	info, ok := s.dirStripes[req.Stripe]
	if !ok {
		return &transport.Message{Kind: transport.MsgOK, Flag: false}
	}
	cp := *info
	cp.Members = append([]types.StripeMember(nil), info.Members...)
	return &transport.Message{Kind: transport.MsgOK, Flag: true, StripeInfo: &cp}
}

// handleDirDump returns the whole directory shard: all object metadata and
// stripe records. Used to rebuild a failed server's shard and to build
// recovery work lists.
func (s *Server) handleDirDump(req *transport.Message) *transport.Message {
	s.mu.Lock()
	defer s.mu.Unlock()
	resp := &transport.Message{Kind: transport.MsgOK}
	// Dumps feed recovery work lists and tests; emit them in key order so
	// the stream is deterministic.
	for _, k := range sortedKeys(s.dir) {
		resp.Metas = append(resp.Metas, *s.dir[k].Clone())
	}
	for _, info := range s.dirStripes {
		cp := *info
		cp.Members = append([]types.StripeMember(nil), info.Members...)
		resp.Stripes = append(resp.Stripes, cp)
	}
	sort.Slice(resp.Stripes, func(i, j int) bool {
		a, b := resp.Stripes[i].ID, resp.Stripes[j].ID
		if a.Group != b.Group {
			return a.Group < b.Group
		}
		return a.Seq < b.Seq
	})
	return resp
}

// --- client-side helpers (used by servers acting as directory clients) ---

// dirGroup returns the servers hosting the directory record for key: the
// hash shard plus NLevel ring-successor mirrors, so metadata tolerates as
// many failures as the data it describes. In elastic mode the group comes
// from the dynamic ring (owner of "dir:"+key plus domain-diverse
// successors), so it tracks membership changes; clients derive the same
// group from the same ring state.
func (s *Server) dirGroup(key string) []types.ServerID {
	if s.ring != nil {
		mirrors := s.cfg.Policy.NLevel
		if mirrors < 1 {
			mirrors = 1
		}
		if n := s.ring.Size(); mirrors >= n {
			mirrors = n - 1
		}
		return s.ring.KeyGroup("dir:"+key, mirrors+1)
	}
	return placement.DirectoryGroup(s.place.DirectoryShard(key), s.place.NumServers(), s.cfg.Policy.NLevel)
}

// dirUpdate writes a metadata record to its shard group. Failures of some
// mirrors are tolerated (the survivors serve reads until recovery restores
// the group).
func (s *Server) dirUpdate(ctx context.Context, meta *types.ObjectMeta) error {
	start := time.Now()
	defer func() { s.col.Add(metrics.Metadata, time.Since(start)) }()
	msg := &transport.Message{Kind: transport.MsgMetaUpdate, Meta: meta}
	return s.sendToGroup(ctx, s.dirGroup(meta.ID.Key()), msg)
}

// dirUpdateStripe writes a stripe record to its shard group.
func (s *Server) dirUpdateStripe(ctx context.Context, info *types.StripeInfo) error {
	start := time.Now()
	defer func() { s.col.Add(metrics.Metadata, time.Since(start)) }()
	msg := &transport.Message{Kind: transport.MsgStripeUpdate, StripeInfo: info}
	return s.sendToGroup(ctx, s.dirGroup(info.ID.String()), msg)
}

// sendToGroup delivers msg to every shard holder, treating the operation as
// successful when at least one copy lands. Mirrors that missed the write
// while the group as a whole succeeded leave the record single-homed; those
// are remembered as hints and re-delivered by flushMirrorHints, so a
// transient partition or drop cannot silently reduce a directory group to
// one copy for the rest of the run.
func (s *Server) sendToGroup(ctx context.Context, targets []types.ServerID, msg *transport.Message) error {
	var firstErr error
	delivered := false
	failed := make([]types.ServerID, 0, len(targets))
	ok := make([]types.ServerID, 0, len(targets))
	for _, t := range targets {
		var resp *transport.Message
		var err error
		if t == s.id {
			resp = s.Handle(ctx, msg)
		} else {
			cp := *msg // shallow copy; From is mutated by Send
			resp, err = s.sendRetry(ctx, t, &cp)
		}
		if err == nil {
			err = resp.AsError()
		}
		if err == nil {
			delivered = true
			ok = append(ok, t)
		} else {
			failed = append(failed, t)
			if firstErr == nil {
				firstErr = err
			}
		}
	}
	if entry, hintable := hintEntry(msg); hintable {
		s.mu.Lock()
		// A successful write supersedes any older pending hint for the same
		// record and target: the mirror now holds a state at least as new.
		for _, t := range ok {
			delete(s.mirrorHints, mirrorHintKey(t, entry))
		}
		if delivered {
			for _, t := range failed {
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
	case transport.MsgStripeUpdate:
		if msg.StripeInfo == nil {
			return "", false
		}
		return "s/" + msg.StripeInfo.ID.String(), true
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
	if msg.StripeInfo != nil {
		si := *msg.StripeInfo
		si.Members = append([]types.StripeMember(nil), msg.StripeInfo.Members...)
		cp.StripeInfo = &si
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
	pending := make(map[string]mirrorHint, len(s.mirrorHints))
	for k, h := range s.mirrorHints {
		pending[k] = h
	}
	s.mu.Unlock()
	start := time.Now()
	for k, h := range pending {
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

// dirLookupStripe fetches a stripe record, trying each shard-group member
// in turn, mirrors the fabric knows to be down last.
func (s *Server) dirLookupStripe(ctx context.Context, id types.StripeID) (*types.StripeInfo, bool) {
	start := time.Now()
	defer func() { s.col.Add(metrics.Metadata, time.Since(start)) }()
	for _, t := range transport.HealthOf(s.net).UpFirst(s.dirGroup(id.String())) {
		var resp *transport.Message
		var err error
		msg := &transport.Message{Kind: transport.MsgStripeLookup, Stripe: id}
		if t == s.id {
			resp = s.Handle(ctx, msg)
		} else {
			resp, err = s.sendRetry(ctx, t, msg)
		}
		if err == nil && resp.Kind == transport.MsgOK && resp.Flag {
			return resp.StripeInfo, true
		}
	}
	return nil, false
}
