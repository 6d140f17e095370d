package corec

import (
	"context"
	"errors"
	"fmt"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"corec/internal/geometry"
	"corec/internal/metrics"
	"corec/internal/ndarray"
	"corec/internal/reader"
	"corec/internal/transport"
	"corec/internal/types"
)

var contextBackground = context.Background()

var clientSeq atomic.Int64

// ErrDataLoss is returned by Get when an object cannot be served from any
// surviving copy or reconstructed from surviving shards (losses exceeded
// the configured resilience level).
var ErrDataLoss = reader.ErrDataLoss

// Client is an application-side handle to the staging cluster: the
// interface a simulation or analysis rank uses. Clients are cheap; create
// one per worker goroutine or share one (all methods are safe for
// concurrent use).
type Client struct {
	cluster *Cluster
	id      types.ServerID // negative: client address space
	col     *metrics.Collector
	// reader fetches objects through this client's send: lookups, copy and
	// shard fetches, degraded reconstruction (see internal/reader).
	reader *reader.Reader
	// seen holds the keys of objects whose box this client has seen as one
	// object's, at that object's placed primary: its own puts, and the
	// directory's answers to its aligned gets. A get of such a box that names
	// a floor asks the primary first.
	seen keySet
}

// NewClient returns a client bound to the cluster.
func (c *Cluster) NewClient() *Client {
	cl := &Client{
		cluster: c,
		id:      types.ServerID(-1 - clientSeq.Add(1)),
		col:     c.col,
	}
	cl.reader = &reader.Reader{
		Send: cl.send, Dir: c.dir, Health: c.health, Codec: c.codec, Col: c.col,
		NotHeld: cl.triggerOnAccessRepair,
	}
	return cl
}

// send delivers one RPC under the cluster's retry policy — per-attempt
// timeouts, capped exponential backoff with jitter — tallying retry, fault
// and corrupt-frame counters. All protocol requests are idempotent, so
// resending on a transient fabric failure is safe. A destination the
// fabric's peer-health table has marked down fails fast (one attempt, no
// backoff, no retry counted) until a half-open trial or a re-admission
// clears it.
func (cl *Client) send(ctx context.Context, to types.ServerID, msg *transport.Message) (*transport.Message, error) {
	c := cl.cluster
	return c.retry.SendCounted(ctx, c.net, cl.id, to, msg, cl.col)
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
		if err = resp.AsError(); err == nil {
			cl.seen.add(id.Key())
		}
		return err
	}
	// The write goes to a successor or nowhere: whatever record the placed
	// primary keeps may not be the object's newest.
	cl.seen.drop(id.Key())
	if ctx.Err() != nil || !transport.IsRetryable(err) {
		return fmt.Errorf("corec: put %s: %w", id, err)
	}
	// Write-path failover: the placed primary stayed unreachable (or, in
	// elastic mode, fenced the write while draining) through the whole
	// retry budget, so hand the write to a successor. The successor's put
	// path makes it the new primary (the directory flips, the original
	// primary becomes a listed replica), so the object keeps its full
	// resilience level. Nothing else is owed: the original's recovery
	// restores the copy the record names for it, as for any other object.
	for _, alt := range c.place.FailoverTargets(id, primary) {
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
		c.col.AddCounter(metrics.FailoverCount, 1)
		return nil
	}
	return fmt.Errorf("corec: put %s: %w", id, err)
}

// Get reads the region of the variable, returning a row-major buffer over
// box: it allocates the buffer and fills it the way GetInto does, and version
// means what it means there.
func (cl *Client) Get(ctx context.Context, name string, box Box, version Version) ([]byte, error) {
	dst := reader.Buffer(ndarray.BufferSize(box, cl.cluster.cfg.ElemSize), cl.cluster.cfg.DataShards)
	if err := cl.getInto(ctx, name, box, version, dst, true); err != nil {
		return nil, err
	}
	return dst, nil
}

// GetInto reads the region of the variable into dst, a row-major buffer over
// box: len(dst) must be the region's size, and nothing past it is touched.
// version is a freshness floor, the oldest version of the region the caller
// accepts (0: it names none): what comes back is never older than a put
// acknowledged at that version. Naming it bounds what may answer: the
// object's primary, when the region is the box of one object this client has
// seen, or else the first directory mirror whose records are that new. A
// floor ahead of everything staged reads the newest staged bytes. Objects
// intersecting the region are otherwise located through the metadata
// directory and fetched in parallel, straight into dst when an object's box
// is the region itself; failures trigger replica fallback or degraded
// reconstruction transparently. Cells no staged object covers are cleared, so
// a reused buffer never shows an earlier read. After an error dst's contents
// are unspecified.
func (cl *Client) GetInto(ctx context.Context, name string, box Box, version Version, dst []byte) error {
	if want := ndarray.BufferSize(box, cl.cluster.cfg.ElemSize); len(dst) != want {
		return fmt.Errorf("corec: get buffer is %d bytes, want %d", len(dst), want)
	}
	return cl.getInto(ctx, name, box, version, dst[:len(dst):len(dst)], false)
}

// getInto is Get and GetInto: zeroed says dst is known to hold zeros.
//
// A get that names a floor of a region this client has seen as one object's
// box asks that object's primary first, unless it is known down: its record
// and its bytes come back in one request (reader.Primary), and no directory
// mirror is asked. A miss forgets the box and reads through the directory
// as any other get does; a later directory answer showing the box as one
// object's, at its placed primary and at the floor, makes it seen again.
func (cl *Client) getInto(ctx context.Context, name string, box Box, version Version, dst []byte, zeroed bool) error {
	start := time.Now()
	defer func() { cl.col.RecordRead(int64(version), time.Since(start)) }()

	c := cl.cluster
	id := types.ObjectID{Var: name, Box: box}
	var key string
	learn := false // a directory answer may make the box seen
	if version > 0 {
		key = id.Key()
		if learn = !cl.seen.has(key); !learn {
			if primary := c.place.Primary(id); !c.health.Down(primary) {
				if cl.reader.Primary(ctx, primary, key, version, dst) {
					cl.col.AddCounter(metrics.PrimaryReadCount, 1)
					return nil
				}
				cl.col.AddCounter(metrics.PrimaryMissCount, 1)
				cl.seen.drop(key)
				zeroed = false // the miss may have written into dst
			}
		}
	}
	metas, err := cl.queryDirectory(ctx, name, box, version)
	if err != nil {
		return err
	}
	if learn && len(metas) == 1 && metas[0].Version >= version && metas[0].ID.Box.Equal(box) && metas[0].Primary == c.place.Primary(id) {
		cl.seen.add(key)
	}
	return cl.fetchRegion(ctx, box, metas, dst, zeroed)
}

// fetchRegion fetches the objects the records describe, in parallel when
// there are several, and assembles the part of each that lies in box into
// dst, a row-major buffer over box. An object whose box is the region itself
// (the aligned read of every workload) is fetched straight into dst; any other
// goes through a buffer of its own and the CopyRegion that cuts its part out.
func (cl *Client) fetchRegion(ctx context.Context, box Box, metas []types.ObjectMeta, dst []byte, zeroed bool) error {
	elem := cl.cluster.cfg.ElemSize
	aligned := func(meta *types.ObjectMeta) bool {
		return meta.Size == len(dst) && meta.ID.Box.Equal(box)
	}
	if len(metas) == 1 && aligned(&metas[0]) {
		return cl.reader.Object(ctx, &metas[0], dst)
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
				err = cl.reader.Object(ctx, &meta, dst)
			} else {
				tmp := reader.Buffer(meta.Size, cl.cluster.cfg.DataShards)
				if err = cl.reader.Object(ctx, &meta, tmp); err == nil {
					// Safe outside the lock: the partitioner tiles objects
					// over disjoint boxes, so each copy writes a disjoint
					// region of dst — the mutex only guards error aggregation.
					_, err = ndarray.CopyRegion(meta.ID.Box, tmp, box, dst, elem)
				}
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
	return cl.queryDirectory(ctx, name, box, 0)
}

// Delete evicts every staged object of the variable intersecting the
// region: full copies, replicas, erasure shards and metadata are all
// released. Returns the number of objects evicted. Applications call this
// once a time step's data has been consumed, to bound staging memory.
func (cl *Client) Delete(ctx context.Context, name string, box Box) (int, error) {
	metas, err := cl.queryDirectory(ctx, name, box, 0)
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
		cl.seen.drop(m.ID.Key())
	}
	return deleted, firstErr
}

// queryDirectory resolves a (variable, region) lookup; floor is the oldest
// version of the region the caller accepts, 0 when it names none. A cell's
// records are mirrored on NLevel+1 servers to survive failures, not to be
// polled by every read: with a floor, one mirror of each directory cell the
// region touches is asked — one server for a tile-aligned read, at any fleet
// size — and its answer stands when it covers the region at or above the
// floor. Short of that (a mirror can lag its twins by a directory write), or
// with no floor to judge by, the cells' other mirrors are asked too and the
// newest record wins. The whole fleet is asked when the region is invalid (a
// query for every object of the variable), and as a safety net when the
// cells' groups do not cover it: a record written under another ring epoch,
// or not yet re-homed by the rebalancer, must not read back as zeros.
func (cl *Client) queryDirectory(ctx context.Context, name string, box Box, floor Version) ([]types.ObjectMeta, error) {
	start := time.Now()
	defer func() { cl.col.Add(metrics.Metadata, time.Since(start)) }()
	if dir := cl.cluster.dir; box.Valid() {
		var metas []types.ObjectMeta
		var first []types.ServerID
		if floor > 0 {
			for _, cell := range dir.Cells(box) {
				if m := cl.firstMirror(cell, dir.Group(name, cell)); !slices.Contains(first, m) {
					first = append(first, m)
				}
			}
			if metas, _ = cl.reader.Query(ctx, first, name, box, nil); covers(metas, box, floor) {
				return metas, nil
			}
			cl.col.AddCounter(metrics.DirSecondAskCount, 1)
		}
		rest := slices.DeleteFunc(dir.Servers(name, box), func(s types.ServerID) bool { return slices.Contains(first, s) })
		if metas, _ = cl.reader.Query(ctx, rest, name, box, metas); covers(metas, box, 0) {
			return metas, nil
		}
		cl.col.AddCounter(metrics.DirFallbackCount, 1)
	}
	return cl.reader.Query(ctx, cl.cluster.place.Members(), name, box, nil)
}

// firstMirror picks the mirror of a cell's group this client asks first: id
// and cell spread clients over the mirrors; one known down is passed over.
func (cl *Client) firstMirror(cell int, group []types.ServerID) types.ServerID {
	at := (cell + 1 - int(cl.id)) % len(group) // cell >= -1 and id < 0
	for i := 0; i < len(group) && cl.cluster.health.Down(group[at]); i++ {
		at = (at + 1) % len(group)
	}
	return group[at]
}

// covers reports whether the records account for every cell of box — the
// volumes they share with it sum to at least its own — none older than floor.
func covers(metas []types.ObjectMeta, box Box, floor Version) bool {
	var covered int64
	for i := range metas {
		if part, ok := metas[i].ID.Box.Intersection(box); ok {
			if metas[i].Version < floor {
				return false
			}
			covered += part.Volume()
		}
	}
	return covered >= box.Volume()
}

// keySet is a set of object keys, safe for concurrent use.
type keySet struct {
	mu   sync.RWMutex
	keys map[string]struct{}
}

func (s *keySet) has(key string) bool {
	s.mu.RLock()
	defer s.mu.RUnlock()
	_, ok := s.keys[key]
	return ok
}

func (s *keySet) add(key string) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.keys == nil {
		s.keys = make(map[string]struct{})
	}
	s.keys[key] = struct{}{}
}

func (s *keySet) drop(key string) {
	s.mu.Lock()
	defer s.mu.Unlock()
	delete(s.keys, key)
}

// triggerOnAccessRepair follows a read of an encoded object: each stripe
// member that answered without its shard is asked to restore it now, the
// on-access half of lazy recovery. A member with no recovery running
// answers at once.
func (cl *Client) triggerOnAccessRepair(ctx context.Context, id types.ObjectID, members []types.ServerID) {
	for _, member := range members {
		go func() {
			// Fire-and-forget nudge: the next read retries repair anyway.
			_, _ = cl.cluster.net.Send(context.Background(), cl.id, member,
				&transport.Message{Kind: transport.MsgRecover, Var: id.Var, Box: id.Box})
		}()
	}
}
