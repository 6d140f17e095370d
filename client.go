package corec

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"corec/internal/geometry"
	"corec/internal/metrics"
	"corec/internal/ndarray"
	"corec/internal/transport"
	"corec/internal/types"
)

var contextBackground = context.Background()

var clientSeq atomic.Int64

// ErrDataLoss is returned by Get when an object cannot be served from any
// surviving copy or reconstructed from surviving shards (losses exceeded
// the configured resilience level).
var ErrDataLoss = errors.New("corec: data unavailable (losses exceed resilience level)")

// Client is an application-side handle to the staging cluster: the
// interface a simulation or analysis rank uses. Clients are cheap; create
// one per worker goroutine or share one (all methods are safe for
// concurrent use).
type Client struct {
	cluster *Cluster
	id      types.ServerID // negative: client address space
	col     *metrics.Collector
	// fleet is the static fleet's member list 0..n-1, built once (nil in
	// elastic mode, where view tracks the ring).
	fleet []types.ServerID

	// viewMu guards the elastic member-view cache: the ring's member list
	// at viewEpoch. Clients refresh it only when the ring epoch moves, so
	// steady-state requests never take the ring's lock for a full copy.
	viewMu    sync.Mutex
	view      []types.ServerID
	viewEpoch uint64
	viewInit  bool
}

// NewClient returns a client bound to the cluster.
func (c *Cluster) NewClient() *Client {
	cl := &Client{
		cluster: c,
		id:      types.ServerID(-1 - clientSeq.Add(1)),
		col:     c.col,
	}
	if c.elastic == nil {
		cl.fleet = make([]types.ServerID, c.cfg.Servers)
		for i := range cl.fleet {
			cl.fleet[i] = types.ServerID(i)
		}
	}
	return cl
}

// memberView returns the servers a directory-wide operation should address:
// the static fleet, or — in elastic mode — the ring's current membership,
// cached per client and refreshed when the ring epoch changes.
func (cl *Client) memberView() []types.ServerID {
	c := cl.cluster
	if c.elastic == nil {
		return cl.fleet
	}
	epoch := c.elastic.ring.Epoch()
	cl.viewMu.Lock()
	defer cl.viewMu.Unlock()
	if !cl.viewInit || cl.viewEpoch != epoch {
		cl.view = c.elastic.ring.Members()
		cl.viewEpoch = epoch
		cl.viewInit = true
	}
	return cl.view
}

// send delivers one RPC under the cluster's retry policy — per-attempt
// timeouts, capped exponential backoff with jitter — tallying retry and
// fault counters. All protocol requests are idempotent, so resending on a
// transient fabric failure is safe. A destination the fabric's peer-health
// table has marked down fails fast (one attempt, no backoff, no retry
// counted) until a half-open trial or a re-admission clears it.
func (cl *Client) send(ctx context.Context, to types.ServerID, msg *transport.Message) (*transport.Message, error) {
	c := cl.cluster
	resp, attempts, err := c.retry.Send(ctx, c.net, cl.id, to, msg)
	if attempts > 1 {
		cl.col.AddCounter(metrics.RetryCount, int64(attempts-1))
	}
	if err != nil {
		if errors.Is(err, transport.ErrCorruptFrame) || errors.Is(err, transport.ErrRemoteRetryable) {
			cl.col.AddCounter(metrics.CorruptFrameCount, 1)
		}
		if transport.IsRetryable(err) {
			cl.col.AddCounter(metrics.FaultCount, 1)
		}
	}
	return resp, err
}

// Put stages the region's data under the variable name at the given
// version (time step). The buffer must be a row-major array over box with
// the cluster's element size. Oversized regions are geometrically
// partitioned into objects (Algorithm 1) and staged in parallel. The
// recorded write response time covers the full operation.
func (cl *Client) Put(ctx context.Context, name string, box Box, version Version, data []byte) error {
	c := cl.cluster
	elem := c.cfg.ElemSize
	if len(data) != ndarray.BufferSize(box, elem) {
		return fmt.Errorf("corec: put buffer is %d bytes, want %d", len(data), ndarray.BufferSize(box, elem))
	}
	start := time.Now()
	defer func() { cl.col.RecordWrite(int64(version), time.Since(start)) }()

	maxCells := int64(c.cfg.MaxObjectBytes / elem)
	pieces, err := geometry.FitPartition(box, maxCells)
	if err != nil {
		return err
	}
	if len(pieces) == 1 {
		return cl.putObject(ctx, name, box, version, data)
	}
	// Stage the pieces in parallel and report every failure, not just the
	// first: a multi-piece put is one logical write, and the caller needs
	// to know the full set of regions that did not commit.
	var wg sync.WaitGroup
	errs := make([]error, len(pieces))
	for i, piece := range pieces {
		buf := make([]byte, ndarray.BufferSize(piece, elem))
		if _, err := ndarray.CopyRegion(box, data, piece, buf, elem); err != nil {
			errs[i] = err
			continue
		}
		wg.Add(1)
		go func(i int, piece Box, buf []byte) {
			defer wg.Done()
			errs[i] = cl.putObject(ctx, name, piece, version, buf)
		}(i, piece, buf)
	}
	wg.Wait()
	return errors.Join(errs...)
}

func (cl *Client) putObject(ctx context.Context, name string, box Box, version Version, data []byte) error {
	c := cl.cluster
	id := types.ObjectID{Var: name, Box: box}
	primary := c.place.Primary(id)
	msg := &transport.Message{
		Kind:    transport.MsgPut,
		Var:     name,
		Box:     box,
		Version: version,
		Data:    data,
	}
	resp, err := cl.send(ctx, primary, msg)
	if err == nil {
		return resp.AsError()
	}
	if ctx.Err() != nil || !transport.IsRetryable(err) {
		return fmt.Errorf("corec: put %s: %w", id, err)
	}
	// Write-path failover: the placed primary stayed unreachable (or, in
	// elastic mode, fenced the write while draining) through the whole
	// retry budget, so hand the write to a successor. The successor's put
	// path makes it the new primary (the directory flips, the original
	// primary becomes a listed replica), so the object keeps its full
	// resilience level; the reroute is logged so the monitor reconciles
	// ownership once the original recovers.
	for _, alt := range cl.failoverTargets(id, primary) {
		if alt == primary {
			continue
		}
		resp, ferr := cl.send(ctx, alt, msg)
		if ferr != nil {
			continue
		}
		if aerr := resp.AsError(); aerr != nil {
			return aerr
		}
		c.recordReroute(Reroute{ID: id, From: primary, To: alt, Version: version})
		return nil
	}
	return fmt.Errorf("corec: put %s: %w", id, err)
}

// failoverTargets lists the servers a failed put should try next. Static
// fleets use the replication-group window. Elastic fleets re-resolve the
// key against the ring first — a drain or gossip eviction may already have
// moved the arc to a new owner — then walk the failed primary's ring
// successors (stable even after it left the ring).
func (cl *Client) failoverTargets(id types.ObjectID, primary types.ServerID) []types.ServerID {
	c := cl.cluster
	if c.elastic != nil {
		ring := c.elastic.ring
		out := make([]types.ServerID, 0, c.cfg.NLevel+2)
		if cur := ring.OwnerKey(id.Key()); cur != primary {
			out = append(out, cur)
		}
		out = append(out, ring.Targets(primary, c.cfg.NLevel+1)...)
		return out
	}
	if c.groups == nil {
		return nil
	}
	return c.groups.ReplicaTargets(primary, c.cfg.NLevel)
}

// Get reads the region of the variable at the given version, returning a
// row-major buffer over box: it allocates the buffer and fills it the way
// GetInto does.
func (cl *Client) Get(ctx context.Context, name string, box Box, version Version) ([]byte, error) {
	dst := cl.newObjectBuffer(ndarray.BufferSize(box, cl.cluster.cfg.ElemSize))
	if err := cl.getInto(ctx, name, box, version, dst, true); err != nil {
		return nil, err
	}
	return dst, nil
}

// GetInto reads the region of the variable at the given version into dst, a
// row-major buffer over box: len(dst) must be the region's size, and nothing
// past it is touched. Objects intersecting the region are located through
// the metadata directory and fetched in parallel, straight into dst when an
// object's box is the region itself; failures trigger replica fallback or
// degraded reconstruction transparently. Cells no staged object covers are
// cleared, so a reused buffer never shows an earlier read. After an error
// the contents of dst are unspecified.
func (cl *Client) GetInto(ctx context.Context, name string, box Box, version Version, dst []byte) error {
	if want := ndarray.BufferSize(box, cl.cluster.cfg.ElemSize); len(dst) != want {
		return fmt.Errorf("corec: get buffer is %d bytes, want %d", len(dst), want)
	}
	return cl.getInto(ctx, name, box, version, dst[:len(dst):len(dst)], false)
}

// getInto is Get and GetInto: zeroed says dst is known to hold zeros.
func (cl *Client) getInto(ctx context.Context, name string, box Box, version Version, dst []byte, zeroed bool) error {
	start := time.Now()
	defer func() { cl.col.RecordRead(int64(version), time.Since(start)) }()

	metas, err := cl.queryDirectory(ctx, name, box)
	if err != nil {
		return err
	}
	return cl.fetchRegion(ctx, box, metas, dst, zeroed)
}

// newObjectBuffer allocates a destination for size bytes of object data
// with the spare capacity that lets an encoded object land in it whole: the
// stripe's k shards are size rounded up to a multiple of k, and with room
// for that padding (fewer than k bytes) even the last data shard is
// received, or rebuilt, in place.
func (cl *Client) newObjectBuffer(size int) []byte {
	return make([]byte, size, size+max(cl.cluster.cfg.DataShards-1, 0))
}

// fetchRegion fetches the objects the records describe, in parallel, and
// assembles the part of each that lies in box into dst, a row-major buffer
// over box. An object whose box is the region itself — the aligned read of
// every workload — is fetched straight into dst; any other goes through a
// buffer of its own size and the one CopyRegion that cuts its part out.
func (cl *Client) fetchRegion(ctx context.Context, box Box, metas []types.ObjectMeta, dst []byte, zeroed bool) error {
	elem := cl.cluster.cfg.ElemSize
	aligned := func(meta *types.ObjectMeta) bool {
		return meta.Size == len(dst) && meta.ID.Box.Equal(box)
	}
	if !zeroed {
		// An aligned object overwrites every byte; short of that, clear
		// first so cells nothing covers read as zero.
		whole := false
		for i := range metas {
			whole = whole || aligned(&metas[i])
		}
		if !whole {
			clear(dst)
		}
	}
	var wg sync.WaitGroup
	var mu sync.Mutex
	var firstErr error
	for i := range metas {
		meta := metas[i]
		if !meta.ID.Box.Intersects(box) {
			continue
		}
		wg.Add(1)
		go func(meta types.ObjectMeta) {
			defer wg.Done()
			var err error
			if aligned(&meta) {
				err = cl.fetchObject(ctx, &meta, dst)
			} else if tmp, ferr := cl.fetchObjectBytes(ctx, &meta); ferr != nil {
				err = ferr
			} else {
				// Safe outside the lock: the partitioner tiles objects over
				// disjoint boxes, so each copy writes a disjoint region of
				// dst — the mutex only needs to guard error aggregation.
				_, err = ndarray.CopyRegion(meta.ID.Box, tmp, box, dst, elem)
			}
			if err != nil {
				mu.Lock()
				if firstErr == nil {
					firstErr = err
				}
				mu.Unlock()
			}
		}(meta)
	}
	wg.Wait()
	return firstErr
}

// Query returns the metadata of all staged objects of the variable
// intersecting the region (deduplicated, newest version per object).
func (cl *Client) Query(ctx context.Context, name string, box Box) ([]types.ObjectMeta, error) {
	return cl.queryDirectory(ctx, name, box)
}

// Delete evicts every staged object of the variable intersecting the
// region: full copies, replicas, erasure shards and metadata are all
// released. Returns the number of objects evicted. Applications call this
// once a time step's data has been consumed, to bound staging memory.
func (cl *Client) Delete(ctx context.Context, name string, box Box) (int, error) {
	metas, err := cl.queryDirectory(ctx, name, box)
	if err != nil {
		return 0, err
	}
	deleted := 0
	var firstErr error
	for _, m := range metas {
		if box.Valid() && !m.ID.Box.Intersects(box) {
			continue
		}
		resp, err := cl.send(ctx, m.Primary, &transport.Message{
			Kind: transport.MsgDelete, Key: m.ID.Key(),
		})
		if err != nil {
			if firstErr == nil {
				firstErr = fmt.Errorf("corec: delete %s: %w", m.ID, err)
			}
			continue
		}
		if err := resp.AsError(); err != nil {
			if firstErr == nil {
				firstErr = err
			}
			continue
		}
		if resp.Flag {
			deleted++
		}
	}
	return deleted, firstErr
}

// queryDirectory resolves a (variable, region) lookup. It asks only the
// shard groups of the directory cells the region touches — one group for a
// tile-aligned read, whatever the fleet size. The whole fleet is asked when
// the region is invalid (a query for every object of the variable), and as
// a safety net when the targeted answer does not cover the region: a record
// written under another ring epoch, or not yet re-homed by the rebalancer,
// must not make a staged region read back as zeros.
func (cl *Client) queryDirectory(ctx context.Context, name string, box Box) ([]types.ObjectMeta, error) {
	start := time.Now()
	defer func() { cl.col.Add(metrics.Metadata, time.Since(start)) }()
	if targets := cl.cluster.dir.Servers(name, box); targets != nil {
		metas, err := cl.queryServers(ctx, targets, name, box)
		if err == nil && covers(metas, box) {
			return metas, nil
		}
		cl.col.AddCounter(metrics.DirFallbackCount, 1)
	}
	return cl.queryServers(ctx, cl.memberView(), name, box)
}

// queryServers sends the region query to every target in parallel and
// merges the answers: one record per object, the newest one.
func (cl *Client) queryServers(ctx context.Context, targets []types.ServerID, name string, box Box) ([]types.ObjectMeta, error) {
	type result struct {
		metas []types.ObjectMeta
		err   error
	}
	n := len(targets)
	results := make(chan result, n)
	for _, target := range targets {
		go func(target types.ServerID) {
			msg := &transport.Message{Kind: transport.MsgMetaQuery, Var: name, Box: box}
			resp, err := cl.send(ctx, target, msg)
			if err != nil {
				results <- result{err: err}
				return
			}
			results <- result{metas: resp.Metas}
		}(target)
	}
	best := make(map[string]types.ObjectMeta)
	reachable := 0
	for i := 0; i < n; i++ {
		r := <-results
		if r.err != nil {
			continue
		}
		reachable++
		for _, m := range r.metas {
			key := m.ID.Key()
			if cur, ok := best[key]; !ok || m.Newer(&cur) {
				best[key] = m
			}
		}
	}
	if reachable == 0 {
		return nil, fmt.Errorf("corec: no directory shard reachable")
	}
	keys := make([]string, 0, len(best))
	for k := range best {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	out := make([]types.ObjectMeta, len(keys))
	for i, k := range keys {
		out[i] = best[k]
	}
	return out, nil
}

// covers reports whether the records account for every cell of box: the
// volumes they share with it sum to at least its own.
func covers(metas []types.ObjectMeta, box Box) bool {
	var covered int64
	for i := range metas {
		if part, ok := metas[i].ID.Box.Intersection(box); ok {
			covered += part.Volume()
		}
	}
	return covered >= box.Volume()
}

// fetchObject retrieves one object's payload into dst (len(dst) is the
// object's size; spare capacity is the caller's to lend, see
// newObjectBuffer) following its resilience state: full copies (primary,
// then replicas) for replicated objects; systematic shard gather, with
// degraded reconstruction on failure, for encoded objects. A fetch can race
// the background replicated<->encoded transition: on a miss the client
// refetches the object's metadata and retries through the new state before
// declaring data loss.
func (cl *Client) fetchObject(ctx context.Context, meta *types.ObjectMeta, dst []byte) error {
	var lastErr error
	for attempt := 0; attempt < 10; attempt++ {
		var err error
		switch {
		case meta.Size != len(dst):
			// A rewrite under another element size changed the object's
			// extent while this read was in flight.
			err = fmt.Errorf("%w: %s is %d bytes, read as %d", ErrDataLoss, meta.ID, meta.Size, len(dst))
		case meta.State == types.StateEncoded:
			err = cl.fetchEncoded(ctx, meta, dst)
		default:
			err = cl.fetchReplicated(ctx, meta, dst)
		}
		if err == nil {
			return nil
		}
		lastErr = err
		if !errors.Is(err, ErrDataLoss) {
			return err
		}
		// Back off briefly: a state transition (encode commit, promotion,
		// failover) may be mid-flight; the directory converges quickly.
		select {
		case <-ctx.Done():
			return ctx.Err()
		case <-time.After(time.Duration(attempt+1) * 200 * time.Microsecond):
		}
		fresh, ok := cl.lookupMeta(ctx, meta.ID)
		if !ok {
			continue
		}
		meta = fresh
	}
	return lastErr
}

// fetchObjectBytes is fetchObject into a buffer of the object's own.
func (cl *Client) fetchObjectBytes(ctx context.Context, meta *types.ObjectMeta) ([]byte, error) {
	dst := cl.newObjectBuffer(meta.Size)
	if err := cl.fetchObject(ctx, meta, dst); err != nil {
		return nil, err
	}
	return dst, nil
}

// lookupMeta fetches a single object's metadata record from the servers
// its box registers it on. Every reachable mirror is consulted and the
// newest record wins: under concurrent state flips a mirror can lag by one
// transition, and a lagging record may point at a stripe the newer flip
// already dropped, so first-answer-wins would turn a replica lag into a
// phantom data loss.
func (cl *Client) lookupMeta(ctx context.Context, id types.ObjectID) (*types.ObjectMeta, bool) {
	start := time.Now()
	defer func() { cl.col.Add(metrics.Metadata, time.Since(start)) }()
	var best *types.ObjectMeta
	key := id.Key()
	for _, t := range cl.cluster.dir.Servers(id.Var, id.Box) {
		resp, err := cl.send(ctx, t, &transport.Message{Kind: transport.MsgMetaLookup, Key: key})
		if err == nil && resp.Kind == transport.MsgOK && resp.Flag {
			if best == nil || resp.Meta.Newer(best) {
				best = resp.Meta
			}
		}
	}
	return best, best != nil
}

// landed returns the payload of a response to a request that named into as
// its RecvInto: head, the prefix of into that holds the payload's first
// bytes, and tail, the bytes that did not fit. The repo's fabrics deliver it
// that way; from a Network that does not know the field, head is copied.
func landed(resp *transport.Message, into []byte) (head, tail []byte) {
	if len(into) == 0 || len(resp.Data) == 0 || &resp.Data[0] == &into[0] {
		return resp.Data, resp.Overflow
	}
	n := copy(into, resp.Data)
	return into[:n], resp.Data[n:]
}

func (cl *Client) fetchReplicated(ctx context.Context, meta *types.ObjectMeta, dst []byte) error {
	key := meta.ID.Key()
	for _, target := range meta.Locations() {
		resp, err := cl.send(ctx, target, &transport.Message{Kind: transport.MsgGet, Key: key, RecvInto: dst})
		if err != nil || resp.Kind != transport.MsgGetBytes || !resp.Flag {
			continue
		}
		if head, tail := landed(resp, dst); len(head) == len(dst) && len(tail) == 0 {
			return nil
		}
	}
	return fmt.Errorf("%w: %s", ErrDataLoss, key)
}

// fetchEncoded assembles an encoded object in dst. Data shard i of the
// stripe is the object's bytes [i*ShardSize, (i+1)*ShardSize), so it is
// received straight into that window of dst, and a missing one is rebuilt
// there from parity: no shard-sized buffer but the parity's is ever
// allocated, and nothing is joined or copied afterwards. The one wrinkle is
// the zero padding that rounds the object up to k shards, fewer than k bytes
// at the end of the last data shard: with that much spare capacity in dst
// (Get's own buffers have it) the last shard is whole like the others; in a
// caller's exact-size buffer only its head is in place, the padding comes
// back as the response's Overflow, and the whole shard is pieced together
// aside only if a degraded read needs it for decoding.
func (cl *Client) fetchEncoded(ctx context.Context, meta *types.ObjectMeta, dst []byte) error {
	c := cl.cluster
	info, ok := cl.lookupStripe(ctx, meta.Stripe)
	if !ok {
		return fmt.Errorf("%w: stripe %v metadata missing", ErrDataLoss, meta.Stripe)
	}
	k, ss := info.K, info.ShardSize
	if k <= 0 || info.M < 0 || ss <= 0 || k*ss < len(dst) {
		return fmt.Errorf("%w: stripe %v (%d shards of %d bytes) cannot hold %d bytes", ErrDataLoss, info.ID, k, ss, len(dst))
	}
	// home is the window of dst where data shard i lives: the whole shard
	// when dst has room for it, else as much of its head as is object data.
	home := func(i int) (window []byte, whole bool) {
		lo, hi := i*ss, (i+1)*ss
		if hi <= cap(dst) {
			return dst[lo:hi:hi], true
		}
		lo = min(lo, len(dst))
		return dst[lo:len(dst):len(dst)], false
	}
	// shards is the codec's view of the stripe, filled as shards arrive;
	// tails holds the padding of a data shard whose home is only its head.
	shards := make([][]byte, k+info.M)
	tails := make([][]byte, k)
	fetch := func(lo, hi int) int {
		var wg sync.WaitGroup
		var got atomic.Int64
		for _, member := range info.Members {
			if member.Index < lo || member.Index >= hi || member.Index >= len(shards) {
				continue
			}
			wg.Add(1)
			go func(member types.StripeMember) {
				defer wg.Done()
				i := member.Index // members hold distinct indices
				var into []byte
				if i < k {
					into, _ = home(i)
				}
				head, tail, ok := cl.fetchShard(ctx, info.ID, member, into)
				if !ok || len(head)+len(tail) != ss {
					return
				}
				shards[i] = head
				if i < k {
					tails[i] = tail
				}
				got.Add(1)
			}(member)
		}
		wg.Wait()
		return int(got.Load())
	}

	// A data-shard holder already known dead makes this a degraded read
	// from the start: fetch the parity in the same round as the surviving
	// data shards instead of discovering the loss first. Members on a server
	// marked down are still asked: the send fails fast, or is the half-open
	// trial that notices the server is back.
	knownLoss := false
	for _, member := range info.Members {
		if member.Index < k && c.health.Down(member.Server) {
			knownLoss = true
			break
		}
	}
	firstRound := k // systematic fast path: the k data shards, in parallel
	if knownLoss {
		firstRound = k + info.M
	}
	have := fetch(0, firstRound)
	missingData := false
	for _, b := range shards[:k] {
		if b == nil {
			missingData = true
			break
		}
	}
	if !missingData {
		return nil
	}
	if !knownLoss {
		// Degraded read: pull parity shards and reconstruct the data. All
		// surviving parity is fetched in parallel, even when fewer shards
		// would complete the stripe — at most m extra shards of bandwidth,
		// traded for one fetch round-trip instead of m sequential ones (the
		// degraded path is latency-bound, and spare shards let reconstruction
		// proceed when a parity fetch fails too).
		have += fetch(k, k+info.M)
	}
	if have < k {
		return fmt.Errorf("%w: stripe %v has %d of %d shards", ErrDataLoss, info.ID, have, k)
	}
	if c.codec == nil || c.codec.DataShards() != k || c.codec.ParityShards() != info.M {
		return fmt.Errorf("corec: stripe %v is RS(%d+%d), which this client is not configured to decode", info.ID, k, info.M)
	}
	// The codec wants whole shards: piece together a surviving one of which
	// only the head is in its home, and hand each missing one its home to be
	// rebuilt in (nil where the home is short: the codec allocates, and the
	// head is copied in afterwards).
	for i := 0; i < k; i++ {
		switch window, whole := home(i); {
		case shards[i] != nil && len(shards[i]) < ss:
			shards[i] = append(append(make([]byte, 0, ss), shards[i]...), tails[i]...)
		case shards[i] == nil && whole:
			shards[i] = window[:0]
		}
	}
	dStart := time.Now()
	if err := c.codec.ReconstructData(shards); err != nil {
		return err
	}
	cl.col.Add(metrics.Decode, time.Since(dStart))
	for i := 0; i < k; i++ {
		if window, whole := home(i); !whole {
			copy(window, shards[i])
		}
	}
	// Lazy recovery on access: if a replacement server has taken over
	// a dead member's ID, ask it to repair this object now.
	cl.triggerOnAccessRepair(ctx, info, meta.ID)
	return nil
}

// lookupStripe resolves stripe geometry from the directory pair: first
// answer wins, so mirrors known to be down are asked last.
func (cl *Client) lookupStripe(ctx context.Context, id types.StripeID) (*types.StripeInfo, bool) {
	start := time.Now()
	defer func() { cl.col.Add(metrics.Metadata, time.Since(start)) }()
	for _, t := range cl.cluster.health.UpFirst(cl.cluster.dir.StripeServers(id)) {
		resp, err := cl.send(ctx, t, &transport.Message{Kind: transport.MsgStripeLookup, Stripe: id})
		if err == nil && resp.Kind == transport.MsgOK && resp.Flag {
			return resp.StripeInfo, true
		}
	}
	return nil, false
}

// fetchShard fetches one stripe shard, into the given memory when there is
// any (see landed for what comes back).
func (cl *Client) fetchShard(ctx context.Context, id types.StripeID, member types.StripeMember, into []byte) (head, tail []byte, ok bool) {
	resp, err := cl.send(ctx, member.Server, &transport.Message{
		Kind: transport.MsgShardGet, Stripe: id, ShardIndex: member.Index, RecvInto: into,
	})
	if err != nil || resp.Kind != transport.MsgGetBytes || !resp.Flag {
		return nil, nil, false
	}
	head, tail = landed(resp, into)
	return head, tail, true
}

// triggerOnAccessRepair asks stripe members that answered "shard missing"
// (replacement servers still recovering) to repair this object immediately:
// the on-access half of lazy recovery.
func (cl *Client) triggerOnAccessRepair(ctx context.Context, info *types.StripeInfo, id types.ObjectID) {
	c := cl.cluster
	for _, member := range info.Members {
		if !c.Alive(member.Server) {
			continue
		}
		srv := c.Server(member.Server)
		if srv == nil || srv.RepairQueueLen() == 0 {
			continue
		}
		member := member
		go func() {
			// Fire-and-forget nudge: the next read retries repair anyway.
			_, _ = c.net.Send(context.Background(), cl.id, member.Server,
				&transport.Message{Kind: transport.MsgRecover, Var: id.Var, Box: id.Box})
		}()
	}
}
