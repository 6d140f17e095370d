// Package reader is the one reader of staged data and of the directory
// records that describe it. A client's get, a replacement server's recovery,
// a promotion and the scrubber's repairs all find an object's record, gather
// its surviving pieces and reconstruct what is missing (the paper's Section
// III-D defines a degraded read and lazy recovery as that one act), so the
// read side of the protocol is written here once. Records are read the same
// way whoever asks — one record's mirrors, a region's directory groups, or a
// sweep of every member's shard for recovery and the rebalancer — and merged
// by one rule: the newest record per key, in key order. Callers bring what is
// theirs: how a message is sent, which copy is acceptable, which shard to
// rebuild, where the result is installed.
package reader

import (
	"context"
	"errors"
	"fmt"
	"slices"
	"sort"
	"sync"
	"time"

	"corec/internal/erasure"
	"corec/internal/geometry"
	"corec/internal/metrics"
	"corec/internal/placement"
	"corec/internal/transport"
	"corec/internal/types"
)

// ErrDataLoss reports that an object cannot be served from any surviving
// copy or reconstructed from surviving shards.
var ErrDataLoss = errors.New("corec: data unavailable (losses exceed resilience level)")

// Reader reads staged data on behalf of one client or server. The fields are
// set once, before the first call; all methods are safe for concurrent use.
type Reader struct {
	// Send delivers one (idempotent) request under its owner's retry policy;
	// a server's also delivers requests addressed to the server itself.
	Send func(ctx context.Context, to types.ServerID, msg *transport.Message) (*transport.Message, error)
	// Dir maps records to the directory servers hosting them.
	Dir *placement.Directory
	// Health is the fabric's memory of dead peers (nil: none kept).
	Health *transport.PeerHealth
	// Codec decodes degraded stripes (nil when nothing is erasure-coded).
	Codec *erasure.Codec
	// Col is charged for lookups (Metadata) and reconstructions (Decode).
	Col *metrics.Collector
	// NotHeld, when set, is told of the stripe members that answered a read
	// of the object without their shard: the client's cue for on-access
	// repair.
	NotHeld func(ctx context.Context, id types.ObjectID, members []types.ServerID)
}

// Tally lets a paced caller — the scrubber — account for a read as it runs.
type Tally struct {
	// Got is called with the size of each payload received, before anything
	// looks at it; an error abandons the read, which comes back short.
	Got func(ctx context.Context, n int) error
	// Missed is called for each holder that did not deliver.
	Missed func()
}

// NoTally accounts for nothing.
var NoTally = Tally{Got: func(context.Context, int) error { return nil }, Missed: func() {}}

// errNoDirectory reports that none of the servers asked for directory
// records answered.
var errNoDirectory = errors.New("corec: no directory shard reachable")

// newest merges directory answers into one record per object key, the
// newest by ObjectMeta.Newer, in key order: answers are wire output of
// mirrors that can lag each other, and what is built from them must be the
// same whatever order they came in.
func newest(answers ...[]types.ObjectMeta) []types.ObjectMeta {
	best := make(map[string]types.ObjectMeta)
	for _, metas := range answers {
		for _, m := range metas {
			key := m.ID.Key()
			if cur, ok := best[key]; !ok || m.Newer(&cur) {
				best[key] = m
			}
		}
	}
	keys := make([]string, 0, len(best))
	for key := range best {
		keys = append(keys, key)
	}
	sort.Strings(keys)
	out := make([]types.ObjectMeta, len(keys))
	for i, key := range keys {
		out[i] = best[key]
	}
	return out
}

// LookupMeta fetches one object's record from the servers its box registers
// it on. Every reachable mirror is consulted and the newest record wins:
// under concurrent state flips a mirror can lag by one transition, and a
// lagging record may point at a stripe the newer flip already dropped, so
// first-answer-wins would turn a mirror's lag into a phantom data loss.
func (r *Reader) LookupMeta(ctx context.Context, id types.ObjectID) (*types.ObjectMeta, bool) {
	start := time.Now()
	defer func() { r.Col.Add(metrics.Metadata, time.Since(start)) }()
	var found []types.ObjectMeta
	key := id.Key()
	for _, t := range r.Dir.Servers(id.Var, id.Box) {
		resp, err := r.Send(ctx, t, &transport.Message{Kind: transport.MsgMetaLookup, Key: key})
		if err == nil && resp.Kind == transport.MsgOK && resp.Flag {
			found = append(found, *resp.Meta)
		}
	}
	if found = newest(found); len(found) == 0 {
		return nil, false
	}
	return &found[0], true
}

// Query asks the targets, in parallel, for their records of the variable
// whose box intersects box (every record of the variable when box is
// invalid) and merges the answers with have. A single target with nothing in
// hand is a plain call whose answer — one record per object, in key order —
// comes back as it arrived. errNoDirectory when no target answered and have
// is empty.
func (r *Reader) Query(ctx context.Context, targets []types.ServerID, name string, box geometry.Box, have []types.ObjectMeta) ([]types.ObjectMeta, error) {
	ask := func(target types.ServerID) *transport.Message { // nil: no answer
		resp, _ := r.Send(ctx, target, &transport.Message{Kind: transport.MsgMetaQuery, Var: name, Box: box})
		return resp
	}
	if len(targets) == 1 && len(have) == 0 {
		if resp := ask(targets[0]); resp != nil {
			return resp.Metas, nil
		}
		return nil, errNoDirectory
	}
	results := make(chan *transport.Message, len(targets))
	for _, target := range targets {
		go func() { results <- ask(target) }()
	}
	answers := [][]types.ObjectMeta{have}
	for range targets {
		if resp := <-results; resp != nil {
			answers = append(answers, resp.Metas)
		}
	}
	if len(answers) == 1 && len(have) == 0 {
		return nil, errNoDirectory
	}
	return newest(answers...), nil
}

// Sweep reads the whole directory — every record of every member's shard —
// asking the members one at a time, and merges what they hold. pace, when
// set, is charged with each answer's record count before the next member is
// asked, so a background pass over a large directory keeps off the
// foreground path; its error ends the sweep. errNoDirectory when members is
// not empty and none of them answered.
func (r *Reader) Sweep(ctx context.Context, members []types.ServerID, pace func(ctx context.Context, records int) error) ([]types.ObjectMeta, error) {
	var answers [][]types.ObjectMeta
	for _, m := range members {
		resp, err := r.Send(ctx, m, &transport.Message{Kind: transport.MsgMetaQuery})
		if err != nil || resp.Kind != transport.MsgOK {
			continue
		}
		answers = append(answers, resp.Metas)
		if pace != nil {
			if err := pace(ctx, len(resp.Metas)); err != nil {
				return nil, err
			}
		}
	}
	if len(answers) == 0 && len(members) > 0 {
		return nil, errNoDirectory
	}
	return newest(answers...), nil
}

// landed returns the payload of a response to a request that named into as
// its RecvInto: head, the prefix of into holding the payload's first bytes,
// and tail, the bytes that did not fit. The fabrics deliver it that way; from
// a send that does not know the field (a server's delivery to itself is a
// plain call) head is copied.
func landed(resp *transport.Message, into []byte) (head, tail []byte) {
	if len(into) == 0 || len(resp.Data) == 0 || &resp.Data[0] == &into[0] {
		return resp.Data, resp.Overflow
	}
	n := copy(into, resp.Data)
	return into[:n], resp.Data[n:]
}

// Copy asks the holders, in order, for their full copy of the object and
// returns the first reply that passes; nil when none does. With into set, a
// copy passes when it is exactly len(into) bytes, and it arrives there (the
// reply's Data is into). accept, when set, also has to approve the reply — a
// recovering server checks the version and digest it needs.
func (r *Reader) Copy(ctx context.Context, key string, holders []types.ServerID, into []byte, accept func(*transport.Message) bool, t Tally) *transport.Message {
	for _, h := range holders {
		resp, err := r.Send(ctx, h, &transport.Message{Kind: transport.MsgGet, Key: key, RecvInto: into})
		if err != nil {
			t.Missed()
			continue
		}
		if resp.Kind != transport.MsgGetBytes || !resp.Flag {
			continue
		}
		if t.Got(ctx, len(resp.Data)+len(resp.Overflow)) != nil {
			return nil
		}
		resp.Data, resp.Overflow = landed(resp, into)
		if len(into) > 0 && (len(resp.Data) != len(into) || len(resp.Overflow) != 0) {
			continue
		}
		if accept == nil || accept(resp) {
			return resp
		}
	}
	return nil
}

// Shards fetches shards of the stripe until need of them are in hand and
// returns them by shard index, with how many arrived and the servers that
// answered without their shard (a replacement that has not restored it yet,
// say), in member order. Candidates are the
// members whose index skip does not name (a caller rebuilding shards skips
// those), in member order: data shards first. The first need candidates are
// asked in parallel; the rest, also in parallel, only if some of those miss:
// at most the spare shards of extra bandwidth, traded for one more round trip
// instead of one per spare (a degraded read is latency-bound, and a spare in
// hand lets the decode proceed when a second fetch fails too). When the
// fabric already knows one of the first need sits on a dead server, every
// candidate is asked in the one round. Members on a server marked down are
// still asked: the send fails fast, or is the half-open trial that notices
// the server is back.
//
// homes[i], when set, is caller memory for shard i: the shard is received
// there, shards[i] is the part that fit and tails[i] the rest.
func (r *Reader) Shards(ctx context.Context, info *types.StripeInfo, need int, skip []int, homes [][]byte, t Tally) (shards, tails [][]byte, have int, notHeld []types.ServerID) {
	n := info.K + info.M
	shards, tails = make([][]byte, n), make([][]byte, n)
	absent := make([]bool, n)
	if homes == nil {
		homes = make([][]byte, n)
	}
	cands := make([]types.StripeMember, 0, len(info.Members))
	for _, m := range info.Members {
		if m.Index >= 0 && m.Index < n && !slices.Contains(skip, m.Index) {
			cands = append(cands, m)
		}
	}
	first := min(need, len(cands))
	for _, m := range cands[:first] {
		if r.Health.Down(m.Server) {
			first = len(cands)
			break
		}
	}
	round := func(members []types.StripeMember) (ok bool) {
		var wg sync.WaitGroup
		for _, m := range members {
			wg.Add(1)
			go func() {
				defer wg.Done()
				i := m.Index // members hold distinct indices
				resp, err := r.Send(ctx, m.Server, &transport.Message{
					Kind: transport.MsgShardGet, Stripe: info.ID, ShardIndex: i, RecvInto: homes[i],
				})
				if err == nil && resp.Kind == transport.MsgOK && !resp.Flag {
					absent[i] = true
				}
				if err != nil || resp.Kind != transport.MsgGetBytes || !resp.Flag {
					return
				}
				if head, tail := landed(resp, homes[i]); len(head)+len(tail) == info.ShardSize {
					shards[i], tails[i] = head, tail
				}
			}()
		}
		wg.Wait()
		// Tallied here, in member order, so a seeded scrub pass counts the
		// same whatever order the replies came in.
		for _, m := range members {
			if absent[m.Index] {
				notHeld = append(notHeld, m.Server)
			}
			if shards[m.Index] == nil {
				t.Missed()
				continue
			}
			if t.Got(ctx, info.ShardSize) != nil {
				return false
			}
			have++
		}
		return true
	}
	if round(cands[:first]) && have < need {
		round(cands[first:])
	}
	return shards, tails, have, notHeld
}

// Stripe assembles the object a stripe encodes in dst (len(dst) is the
// object's size) and reports whether it had to reconstruct. Data shard i of
// the stripe is the object's bytes [i*ShardSize, (i+1)*ShardSize), so it is
// received straight into that window of dst, and a missing one is rebuilt
// there from parity: no shard-sized buffer but the parity's is ever
// allocated, and nothing is joined or copied afterwards. The one wrinkle is
// the zero padding that rounds the object up to k shards, fewer than k bytes
// at the end of the last data shard: with that much spare capacity in dst
// (see Buffer) the last shard is whole like the others; in an exact-size
// buffer only its head is in place, the padding comes back as the response's
// Overflow, and the whole shard is pieced together aside only if a degraded
// read needs it for decoding. have0 says data shard 0 is already in place at
// the head of dst (a primary read brought it), so only the rest are fetched.
// notHeld is what Shards reports.
func (r *Reader) Stripe(ctx context.Context, info *types.StripeInfo, dst []byte, have0 bool) (degraded bool, notHeld []types.ServerID, err error) {
	k, ss := info.K, info.ShardSize
	if k <= 0 || info.M < 0 || ss <= 0 || k*ss < len(dst) || (have0 && ss > len(dst)) {
		return false, nil, fmt.Errorf("%w: stripe %v (%d shards of %d bytes) cannot hold %d bytes", ErrDataLoss, info.ID, k, ss, len(dst))
	}
	// homes[i] is the window of dst where data shard i lives: the whole shard
	// when dst has room for it, else as much of its head as is object data.
	homes := make([][]byte, k+info.M)
	for i := range homes[:k] {
		if hi := (i + 1) * ss; hi <= cap(dst) {
			homes[i] = dst[i*ss : hi : hi]
		} else {
			homes[i] = dst[min(i*ss, len(dst)):len(dst):len(dst)]
		}
	}
	var skip []int
	if have0 {
		skip = []int{0}
	}
	shards, tails, have, notHeld := r.Shards(ctx, info, k-len(skip), skip, homes, NoTally)
	if have0 {
		shards[0] = homes[0]
		have++
	}
	if !slices.ContainsFunc(shards[:k], func(b []byte) bool { return b == nil }) {
		return false, notHeld, nil // the systematic fast path: every data shard is in place
	}
	if have < k {
		return false, notHeld, fmt.Errorf("%w: stripe %v has %d of %d shards", ErrDataLoss, info.ID, have, k)
	}
	if r.Codec == nil || r.Codec.DataShards() != k || r.Codec.ParityShards() != info.M {
		return false, notHeld, fmt.Errorf("corec: stripe %v is RS(%d+%d), which this reader is not configured to decode", info.ID, k, info.M)
	}
	// The codec wants whole shards: piece together a surviving one of which
	// only the head is in its home, and hand each missing one its home to be
	// rebuilt in (nil where the home is short: the codec allocates, and the
	// head is copied in afterwards).
	for i := 0; i < k; i++ {
		switch {
		case shards[i] != nil && len(shards[i]) < ss:
			shards[i] = append(append(make([]byte, 0, ss), shards[i]...), tails[i]...)
		case shards[i] == nil && len(homes[i]) == ss:
			shards[i] = homes[i][:0]
		}
	}
	start := time.Now()
	if err := r.Codec.ReconstructData(shards); err != nil {
		return false, notHeld, err
	}
	r.Col.Add(metrics.Decode, time.Since(start))
	for i := 0; i < k; i++ {
		if len(homes[i]) < ss {
			copy(homes[i], shards[i])
		}
	}
	return true, notHeld, nil
}

// Buffer allocates a destination for size bytes of object data with the
// spare capacity that lets an encoded object land in it whole: a stripe's k
// shards are size rounded up to a multiple of k, and with room for that
// padding (fewer than k bytes) even the last data shard is received, or
// rebuilt, in place.
func Buffer(size, k int) []byte {
	return make([]byte, size, size+max(k-1, 0))
}

// Settle runs read against the object's record, and for as long as it fails
// with ErrDataLoss looks the record up afresh and runs it again, ten times at
// most. A read can race the background replicated<->encoded transition, a
// failover or a handoff, or start from a record one mirror still holds and its
// twin has superseded: it then points at a copy or a stripe that is no longer
// there, and only a miss through the current record is a loss. A different
// record is read at once; the wait is for the directory to converge.
func (r *Reader) Settle(ctx context.Context, meta *types.ObjectMeta, read func(*types.ObjectMeta) error) (err error) {
	for attempt := 0; attempt < 10; attempt++ {
		if err = read(meta); !errors.Is(err, ErrDataLoss) {
			return err
		}
		fresh, ok := r.LookupMeta(ctx, meta.ID)
		if ok && (fresh.Version != meta.Version || fresh.Seq != meta.Seq) {
			meta = fresh
			continue
		}
		select {
		case <-ctx.Done():
			return ctx.Err()
		case <-time.After(time.Duration(attempt+1) * 200 * time.Microsecond):
		}
	}
	return err
}

// Object reads one object's payload into dst (len(dst) is the object's size;
// spare capacity is the caller's to lend, see Buffer) following its
// resilience state: the first full copy among primary and replicas for a
// replicated object, Stripe over the layout the record carries for an encoded
// one, settled through a fresh record on a miss.
func (r *Reader) Object(ctx context.Context, meta *types.ObjectMeta, dst []byte) error {
	return r.Settle(ctx, meta, func(meta *types.ObjectMeta) error {
		switch {
		case meta.Size != len(dst):
			// A rewrite under another element size changed the object's
			// extent while this read was in flight.
			return fmt.Errorf("%w: %s is %d bytes, read as %d", ErrDataLoss, meta.ID, meta.Size, len(dst))
		case meta.State == types.StateEncoded:
			if meta.Layout == nil {
				return fmt.Errorf("%w: encoded record of %s carries no stripe layout", ErrDataLoss, meta.ID)
			}
			return r.stripeOf(ctx, meta, dst, false)
		}
		// A holder may still keep a copy from before the record: a replica
		// left behind when ownership moved on and later came back. Only a
		// copy at least as new as the record is the object it describes.
		current := func(resp *transport.Message) bool { return resp.Version >= meta.Version }
		if r.Copy(ctx, meta.ID.Key(), meta.Locations(), dst, current, NoTally) == nil {
			return fmt.Errorf("%w: %s", ErrDataLoss, meta.ID.Key())
		}
		return nil
	})
}

// stripeOf runs Stripe over the layout an encoded record carries and, when
// the read is served, tells NotHeld of the members that answered without
// their shard. A read that fails may have followed a superseded record,
// whose stripe no member holds any more: that is no cue for a repair.
func (r *Reader) stripeOf(ctx context.Context, meta *types.ObjectMeta, dst []byte, have0 bool) error {
	_, notHeld, err := r.Stripe(ctx, meta.Layout, dst, have0)
	if err == nil && len(notHeld) > 0 && r.NotHeld != nil {
		r.NotHeld(ctx, meta.ID, notHeld)
	}
	return err
}

// Primary reads an object from its primary, which answers a get that names a
// floor from its own record — never older than a directory mirror's copy,
// since the primary mints every record it publishes — with that record and,
// in the same reply, the object's full copy if it is replicated or data shard
// 0 if it is encoded. Either lands at the head of dst (len(dst) is the
// object's size); an encoded object's other shards are then gathered by
// Stripe. Primary reports whether dst holds the object. It does not when the
// primary holds no record of key at or above floor, lacks the piece, cannot
// be reached, or the stripe cannot be assembled; dst's contents are then
// unspecified and the caller reads through the directory instead.
func (r *Reader) Primary(ctx context.Context, primary types.ServerID, key string, floor types.Version, dst []byte) bool {
	resp, err := r.Send(ctx, primary, &transport.Message{Kind: transport.MsgGet, Key: key, Version: floor, RecvInto: dst})
	if err != nil || resp.Kind != transport.MsgGetBytes || !resp.Flag || resp.Meta == nil || resp.Meta.Size != len(dst) {
		return false
	}
	meta := resp.Meta
	head, tail := landed(resp, dst)
	if meta.State != types.StateEncoded {
		// As in Object: a copy older than its record is not the object.
		return len(head) == len(dst) && len(tail) == 0 && resp.Version >= meta.Version
	}
	return meta.Layout != nil && len(head) == meta.Layout.ShardSize && len(tail) == 0 &&
		r.stripeOf(ctx, meta, dst, true) == nil
}
