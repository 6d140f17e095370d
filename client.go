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
// row-major buffer over box. Objects intersecting the region are located
// through the metadata directory and fetched in parallel; failures trigger
// replica fallback or degraded reconstruction transparently.
func (cl *Client) Get(ctx context.Context, name string, box Box, version Version) ([]byte, error) {
	start := time.Now()
	defer func() { cl.col.RecordRead(int64(version), time.Since(start)) }()

	metas, err := cl.queryDirectory(ctx, name, box)
	if err != nil {
		return nil, err
	}
	return cl.fetchRegion(ctx, box, metas)
}

// fetchRegion fetches the objects the records describe, in parallel, and
// assembles the part of each that lies in box into one row-major buffer.
func (cl *Client) fetchRegion(ctx context.Context, box Box, metas []types.ObjectMeta) ([]byte, error) {
	elem := cl.cluster.cfg.ElemSize
	out := make([]byte, ndarray.BufferSize(box, elem))
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
			data, err := cl.fetchObject(ctx, &meta)
			if err == nil {
				// Safe outside the lock: the partitioner tiles objects over
				// disjoint boxes, so each copy writes a disjoint region of
				// out. Serializing the copies under mu made every fetch wait
				// on its neighbours' memcpy — the mutex only needs to guard
				// error aggregation.
				_, err = ndarray.CopyRegion(meta.ID.Box, data, box, out, elem)
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
	if firstErr != nil {
		return nil, firstErr
	}
	return out, nil
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

// fetchObject retrieves one object's payload following its resilience
// state: full copies (primary, then replicas) for replicated objects;
// systematic shard gather, with degraded reconstruction on failure, for
// encoded objects. A fetch can race the background replicated<->encoded
// transition: on a miss the client refetches the object's metadata and
// retries through the new state before declaring data loss.
func (cl *Client) fetchObject(ctx context.Context, meta *types.ObjectMeta) ([]byte, error) {
	var lastErr error
	for attempt := 0; attempt < 10; attempt++ {
		var data []byte
		var err error
		switch meta.State {
		case types.StateEncoded:
			data, err = cl.fetchEncoded(ctx, meta)
		default:
			data, err = cl.fetchReplicated(ctx, meta)
		}
		if err == nil {
			return data, nil
		}
		lastErr = err
		if !errors.Is(err, ErrDataLoss) {
			return nil, err
		}
		// Back off briefly: a state transition (encode commit, promotion,
		// failover) may be mid-flight; the directory converges quickly.
		select {
		case <-ctx.Done():
			return nil, ctx.Err()
		case <-time.After(time.Duration(attempt+1) * 200 * time.Microsecond):
		}
		fresh, ok := cl.lookupMeta(ctx, meta.ID)
		if !ok {
			continue
		}
		meta = fresh
	}
	return nil, lastErr
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

func (cl *Client) fetchReplicated(ctx context.Context, meta *types.ObjectMeta) ([]byte, error) {
	key := meta.ID.Key()
	for _, target := range meta.Locations() {
		resp, err := cl.send(ctx, target, &transport.Message{Kind: transport.MsgGet, Key: key})
		if err != nil || resp.Kind != transport.MsgGetBytes || !resp.Flag {
			continue
		}
		return resp.Data, nil
	}
	return nil, fmt.Errorf("%w: %s", ErrDataLoss, key)
}

func (cl *Client) fetchEncoded(ctx context.Context, meta *types.ObjectMeta) ([]byte, error) {
	c := cl.cluster
	info, ok := cl.lookupStripe(ctx, meta.Stripe)
	if !ok {
		return nil, fmt.Errorf("%w: stripe %v metadata missing", ErrDataLoss, meta.Stripe)
	}
	shards := make([][]byte, info.K+info.M)
	// A data-shard holder already known dead makes this a degraded read
	// from the start: fetch the parity in the same round as the surviving
	// data shards instead of discovering the loss first.
	knownLoss := false
	for _, member := range info.Members {
		if member.Index < info.K && c.health.Down(member.Server) {
			knownLoss = true
			break
		}
	}
	firstRound := info.K // systematic fast path: the k data shards, in parallel
	if knownLoss {
		firstRound = info.K + info.M
	}
	have := cl.fetchShards(ctx, info, shards, 0, firstRound)
	missingData := false
	for _, b := range shards[:info.K] {
		if b == nil {
			missingData = true
			break
		}
	}
	if missingData {
		if !knownLoss {
			// Degraded read: pull parity shards and reconstruct the data. All
			// surviving parity is fetched in parallel, even when fewer shards
			// would complete the stripe — at most m extra shards of bandwidth,
			// traded for one fetch round-trip instead of m sequential ones (the
			// degraded path is latency-bound, and spare shards let reconstruction
			// proceed when a parity fetch fails too).
			have += cl.fetchShards(ctx, info, shards, info.K, info.K+info.M)
		}
		if have < info.K {
			return nil, fmt.Errorf("%w: stripe %v has %d of %d shards", ErrDataLoss, info.ID, have, info.K)
		}
		dStart := time.Now()
		if err := c.codec.ReconstructData(shards); err != nil {
			return nil, err
		}
		cl.col.Add(metrics.Decode, time.Since(dStart))
		// Lazy recovery on access: if a replacement server has taken over
		// a dead member's ID, ask it to repair this object now.
		cl.triggerOnAccessRepair(ctx, info, meta.ID)
	}
	return c.codec.Join(shards, meta.Size)
}

// fetchShards fetches, in parallel, the stripe's shards with index in
// [lo, hi) into shards and returns how many arrived. Members on a server
// marked down are still asked: the send fails fast, or is the half-open
// trial that notices the server is back.
func (cl *Client) fetchShards(ctx context.Context, info *types.StripeInfo, shards [][]byte, lo, hi int) int {
	var wg sync.WaitGroup
	var got atomic.Int64
	for _, member := range info.Members {
		if member.Index < lo || member.Index >= hi {
			continue
		}
		wg.Add(1)
		go func(member types.StripeMember) {
			defer wg.Done()
			if b, ok := cl.fetchShard(ctx, info.ID, member); ok {
				shards[member.Index] = b // members hold distinct indices
				got.Add(1)
			}
		}(member)
	}
	wg.Wait()
	return int(got.Load())
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

func (cl *Client) fetchShard(ctx context.Context, id types.StripeID, member types.StripeMember) ([]byte, bool) {
	resp, err := cl.send(ctx, member.Server, &transport.Message{
		Kind: transport.MsgShardGet, Stripe: id, ShardIndex: member.Index,
	})
	if err != nil || resp.Kind != transport.MsgGetBytes || !resp.Flag {
		return nil, false
	}
	return resp.Data, true
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
