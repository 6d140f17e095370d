// Package server implements the CoREC staging server: an in-memory object
// store with pluggable resilience (replication, erasure coding, simple
// hybrid, CoREC), the grouped data-placement scheme, the load-balancing and
// conflict-avoiding encoding workflow, and degraded/lazy recovery.
//
// One Server instance corresponds to one staging core in the paper's
// deployment. Servers communicate exclusively through a transport.Network,
// so the same code runs in-process for experiments and over TCP for the
// standalone deployment.
package server

import (
	"context"
	"fmt"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"corec/internal/classifier"
	"corec/internal/erasure"
	"corec/internal/geometry"
	"corec/internal/metrics"
	"corec/internal/placement"
	"corec/internal/policy"
	"corec/internal/reader"
	"corec/internal/recovery"
	"corec/internal/scrub"
	"corec/internal/storage"
	"corec/internal/transport"
	"corec/internal/types"
)

// Config assembles a server's dependencies.
type Config struct {
	ID types.ServerID
	// Placement answers every "which servers" question: the primaries, the
	// replica holders, the coding group, the token leader, the directory
	// groups and the member list. A static fleet passes a grouped
	// placement.Hash, an elastic one a placement.Ring; the server never
	// learns which. Its coding group must be Policy.K+Policy.M wide.
	Placement placement.Placement
	Network   transport.Network
	Policy    policy.Config
	Collector *metrics.Collector
	// Domain bounds the staged data space; the metadata directory cuts it
	// into the cells object records are placed by.
	Domain geometry.Box
	// MTBF parameterizes the lazy-recovery deadline (MTBF/4).
	MTBF time.Duration
	// HelperLoadDelta: the encoding workflow delegates to the helper server
	// when own load exceeds the helper's by more than this. Negative
	// disables delegation.
	HelperLoadDelta int64
	// ClassifierConfig tunes the CoREC classifier (the modes that run none
	// ignore it). The zero value takes classifier.DefaultConfig over Domain.
	ClassifierConfig classifier.Config
	// Storage tunes the tiered engine holding erasure shards (write-cold
	// data). Nil or a zero value keeps the pre-tiering behaviour: an
	// unbounded in-memory store.
	Storage *storage.Config
	// RemoteStore is the cluster-shared L3 object store (nil disables the
	// remote tier). It outlives any one server, like a real object store.
	RemoteStore *storage.RemoteStore
	// StorageNS prefixes this server's keys in the shared remote store so
	// servers never collide (the cluster uses "s<id>/").
	StorageNS string
}

// Server is one staging server. All exported methods are safe for
// concurrent use.
type Server struct {
	cfg     Config
	id      types.ServerID
	net     transport.Network
	place   placement.Placement
	codec   *erasure.Codec
	decider *policy.Decider
	col     *metrics.Collector

	// dirPlace maps directory records to the servers hosting them; dir is
	// the shard of the directory this server hosts.
	dirPlace *placement.Directory
	dir      *directory

	// reader is the read side of the protocol (record lookups, copy and
	// shard fetches, reassembly) over sendRetry: recovery, promotion
	// and scrub repair read staged data through it, as clients do.
	reader *reader.Reader

	inflight atomic.Int64

	// draining fences new writes while the server hands off its objects
	// ahead of a voluntary leave; reads keep working throughout.
	draining atomic.Bool
	// closed is set by Close: the server is gone, as a crashed process is,
	// and work it still had in flight sends nothing more.
	closed atomic.Bool

	// memberAgent handles membership-plane messages (MsgPing, MsgPingReq,
	// MsgGossip) when elastic membership is enabled; nil otherwise.
	memberMu    sync.RWMutex
	memberAgent MembershipHandler

	// writeLocks serializes the write-path state machines per object key:
	// a put, a background encode commit, a promotion and a delete of the
	// same key must not interleave. Version numbers alone cannot order them
	// — a rewrite within one time step reuses the version, so a slow encode
	// of the old bytes could otherwise commit over the new write and drop
	// its copy. Striped by key hash; collisions only over-serialize.
	writeLocks [64]sync.Mutex

	// store holds erasure shard payloads keyed by shardKey(stripe, index),
	// tiered mem/disk/remote. It has its own lock and never calls back into
	// the server, so engine calls are safe both under s.mu and outside it.
	store *storage.Tiered

	// digestFn is scrub.Checksum, the at-rest content digest every write,
	// encode, recover and scrub path records and verifies (through digest and
	// digestMsg). A field only so a test can count the passes a put makes
	// over its payload.
	digestFn func(data []byte) uint64

	mu sync.Mutex
	// objects holds full primary copies keyed by object key, replicas the
	// copies other primaries pushed here; each copy carries the digest it had
	// when installed (Object.Sum), the at-rest integrity authority the
	// scrubber verifies stored bytes against, and the buffer its bytes live
	// in. Copies enter and leave through installCopyLocked and dropCopyLocked.
	objects  map[string]*fullCopy
	replicas map[string]*fullCopy
	// held is what this server knows of the stripe shards in its store, by
	// stripe: the geometry and the per-shard digests in one record, so an
	// install or a drop updates both or neither and a stripe's geometry is
	// one map read away. A stripe it holds nothing of reads as the zero
	// record. Only a shard re-indexed from a restarted disk tier has no digest
	// until the first scrub pass backfills it.
	held map[types.StripeID]heldStripe
	// local holds, by key, the record this server last published for each
	// object it is primary of (or, for a primary recovering its memory, the
	// record the directory holds), less its replica list. An entry is replaced,
	// never changed in place; its Layout is shared with the published record:
	// read-only.
	local map[string]*types.ObjectMeta
	// mirrorHints holds directory writes that landed on a quorum of their
	// shard group but missed a mirror; flushMirrorHints re-delivers them
	// (hinted handoff) so degraded groups heal without a full recovery.
	mirrorHints map[string]mirrorHint
	// tokenBusy is the encoding token of the replication group this server
	// leads (only meaningful on group leaders), held by tokenHolder's tokenInc-th incarnation.
	tokenBusy   bool
	tokenHolder types.ServerID
	tokenInc    int64
	incarnation uint64
	// tokenless counts the encodes that went ahead without the group's
	// token (see acquireToken).
	tokenless atomic.Int64
	// metaClock mints ObjectMeta.Seq values: a hybrid logical clock
	// (physical microseconds, clamped monotonic, merged with every Seq
	// observed in incoming directory updates). Accessed atomically.
	metaClock uint64
	// dataRepl/dataEnc account primary-object bytes by state, and nEnc the
	// encoded primary objects, for the storage-efficiency constraint.
	dataRepl int64
	dataEnc  int64
	nEnc     int
	// repairQueue is non-nil while this (replacement) server is recovering.
	repairQueue *recovery.Queue

	// Background encode queue: where the decider demotes in the background,
	// demotions run off the write path, per Figure 6's workflow — the put is
	// acknowledged once the replica guarantees durability, and parity
	// construction follows asynchronously under the group's encoding token.
	// encQueue holds the queued demotions in arrival order, at most one per
	// key; encRunning is set while the worker runs the one it took. Queueing
	// never blocks: callers hold the key's write lock, which the worker needs.
	encMu      sync.Mutex
	encCond    *sync.Cond
	encQueue   []demotion
	encRunning bool

	// Anti-entropy scrubber state (see scrub.go). scrubOn gates the
	// verified-read check on the foreground get path without a lock;
	// scrubTotal sums every finished pass's report.
	scrubMu     sync.Mutex
	scrubCfg    *scrub.Config
	scrubStop   chan struct{}
	scrubDone   chan struct{}
	scrubOn     atomic.Bool
	scrubPasses atomic.Int64
	scrubTotal  scrub.Report
}

// fullCopy is a full copy of an object this server holds: the object, with
// the digest it had when installed, and buf, the pooled receive Buffer its
// Data lives in (nil: the GC owns the bytes). The copy holds buf once, from
// its install until it leaves the store; code that reads Data outside s.mu
// takes a hold of its own under s.mu and lets go when done (the holder rule
// of transport's buffers.go). A copy's bytes never change while it is held.
type fullCopy struct {
	types.Object
	buf *transport.Buffer
}

// hold takes a hold of c's buffer for a reader of c.Data outside s.mu (nil
// c: none). Caller holds s.mu, under which c's own hold is alive.
func (c *fullCopy) hold() *transport.Buffer {
	if c == nil {
		return nil
	}
	return c.buf.Hold()
}

// installCopyLocked puts c in copies under key, letting go of the copy it
// replaces. Caller holds s.mu.
func installCopyLocked(copies map[string]*fullCopy, key string, c *fullCopy) {
	if old := copies[key]; old != nil && old != c {
		old.buf.Release()
	}
	copies[key] = c
}

// dropCopyLocked removes key's copy from copies, letting go of its buffer.
// Caller holds s.mu.
func dropCopyLocked(copies map[string]*fullCopy, key string) {
	if old := copies[key]; old != nil {
		old.buf.Release()
		delete(copies, key)
	}
}

// heldStripe records the locally held shards of one stripe.
type heldStripe struct {
	// info is the stripe's layout as the latest install or restore carried
	// it (the sender's copy, shared: read-only); nil for a shard found on a
	// restarted disk tier until recovery restores it from the object's record.
	info *types.StripeInfo
	// sums is the at-rest digest of each held shard, by shard index.
	sums map[int]uint64
}

// demotion is one queued background demotion of key to erasure coding. drop
// is the stripe a rewrite superseded (nil: none), released before the
// demotion runs.
type demotion struct {
	key  string
	drop *types.StripeInfo
}

// serverIncarnations distinguishes successive servers (including
// replacements reusing a failed server's logical ID) within this process.
var serverIncarnations atomic.Uint64

// New constructs a server and registers it on the network.
func New(cfg Config) (*Server, error) {
	if cfg.Network == nil || cfg.Placement == nil || !cfg.Domain.Valid() {
		return nil, fmt.Errorf("server: missing dependencies")
	}
	if cfg.Collector == nil {
		cfg.Collector = metrics.NewCollector()
	}
	cc := cfg.ClassifierConfig
	if cc.HotThreshold == 0 && cc.Window == 0 {
		cc = classifier.DefaultConfig(cfg.Domain)
	}
	dec, err := policy.NewDecider(cfg.Policy, classifier.New(cc))
	if err != nil {
		return nil, err
	}
	var codec *erasure.Codec
	if cfg.Policy.Redundant() {
		codec, err = NewCodec(cfg.Policy.K, cfg.Policy.M)
		if err != nil {
			return nil, err
		}
		if n := len(cfg.Placement.CodingGroup(cfg.ID)); n != cfg.Policy.K+cfg.Policy.M {
			return nil, fmt.Errorf("server: coding group size %d != k+m = %d", n, cfg.Policy.K+cfg.Policy.M)
		}
	}
	var storeCfg storage.Config
	if cfg.Storage != nil {
		storeCfg = *cfg.Storage
	}
	store, err := storage.Open(storeCfg, cfg.RemoteStore, cfg.StorageNS)
	if err != nil {
		return nil, fmt.Errorf("server: open storage engine: %w", err)
	}
	dirPlace := placement.NewDirectory(cfg.Placement, cfg.Policy.NLevel, cfg.Domain)
	s := &Server{
		cfg:         cfg,
		id:          cfg.ID,
		net:         cfg.Network,
		place:       cfg.Placement,
		dirPlace:    dirPlace,
		dir:         newDirectory(dirPlace),
		codec:       codec,
		decider:     dec,
		col:         cfg.Collector,
		store:       store,
		digestFn:    scrub.Checksum,
		objects:     make(map[string]*fullCopy),
		replicas:    make(map[string]*fullCopy),
		held:        make(map[types.StripeID]heldStripe),
		local:       make(map[string]*types.ObjectMeta),
		mirrorHints: make(map[string]mirrorHint),
	}
	s.reader = &reader.Reader{
		Send: s.sendRetry, Dir: dirPlace, Health: transport.HealthOf(cfg.Network),
		Codec: codec, Col: cfg.Collector,
	}
	s.incarnation = serverIncarnations.Add(1)
	s.encCond = sync.NewCond(&s.encMu)
	go s.encodeWorker()
	cfg.Network.Register(cfg.ID, s.Handle)
	return s, nil
}

// NewCodec returns the RS(k+m) codec a staging server runs, and the one a
// cluster hands its clients for degraded reads: encode and reconstruct
// spread over GOMAXPROCS workers, with an LRU of
// erasure.DefaultDecodeCacheEntries inverted decode matrices.
func NewCodec(k, m int) (*erasure.Codec, error) {
	codec, err := erasure.New(k, m)
	if err != nil {
		return nil, err
	}
	return codec.WithWorkers(0).WithDecodeCache(0), nil
}

// digest digests bytes this server produced or read from its own store.
func (s *Server) digest(data []byte) uint64 { return s.digestFn(data) }

// digestMsg returns the digest of the payload of a message this server
// received: the one its frame reader took as the bytes landed in the memory
// the message holds, when a TCP frame brought them, or else one pass here.
// Either way every digest recorded was computed by this process over the
// bytes it holds — none is adopted from a peer.
func (s *Server) digestMsg(m *transport.Message) uint64 {
	if sum, ok := m.VerifiedDigest(); ok {
		return sum
	}
	return s.digest(m.Data)
}

// enqueueEncode queues a background demotion of the object to erasure coding,
// to release drop first (nil: nothing to release). A request for a key
// already queued joins that entry; one for a key whose demotion is running is
// queued anew, to run after it. A closed server queues nothing.
func (s *Server) enqueueEncode(key string, drop *types.StripeInfo) {
	s.encMu.Lock()
	defer s.encMu.Unlock()
	if s.closed.Load() {
		return
	}
	for i := range s.encQueue {
		if s.encQueue[i].key == key {
			if drop != nil {
				s.encQueue[i].drop = drop
			}
			return
		}
	}
	s.encQueue = append(s.encQueue, demotion{key, drop})
	s.encCond.Broadcast()
}

// takeDemotion removes key's queued demotion, if any, and returns the stripe
// it was to release (nil: none).
func (s *Server) takeDemotion(key string) *types.StripeInfo {
	s.encMu.Lock()
	defer s.encMu.Unlock()
	for i, d := range s.encQueue {
		if d.key == key {
			s.encQueue = slices.Delete(s.encQueue, i, i+1)
			s.encCond.Broadcast()
			return d.drop
		}
	}
	return nil
}

// WaitEncodeIdle blocks until the background encode queue drains. The
// experiment harness calls it at time-step boundaries so response times
// exclude, but workflow time includes, the encoding work.
func (s *Server) WaitEncodeIdle() {
	s.encMu.Lock()
	for len(s.encQueue) > 0 || s.encRunning {
		s.encCond.Wait()
	}
	s.encMu.Unlock()
}

// encodeWorker runs the queued demotions one at a time until the server
// closes; Close empties the queue.
func (s *Server) encodeWorker() {
	s.encMu.Lock()
	defer s.encMu.Unlock()
	for {
		for len(s.encQueue) == 0 && !s.closed.Load() {
			s.encCond.Wait()
		}
		if s.closed.Load() {
			return
		}
		d := s.encQueue[0]
		s.encQueue[0] = demotion{}
		s.encQueue = s.encQueue[1:]
		s.encRunning = true
		s.encMu.Unlock()
		s.processEncode(d)
		s.encMu.Lock()
		s.encRunning = false
		s.encCond.Broadcast()
	}
}

// processEncode performs one queued demotion, skipping objects that were
// promoted, rewritten into heat, or removed since enqueueing. The superseded
// stripe the demotion carries is released first.
func (s *Server) processEncode(d demotion) {
	lk := s.writeLock(d.key)
	lk.Lock()
	defer lk.Unlock()
	s.dropStripe(context.Background(), d.drop)
	s.mu.Lock()
	st, obj := s.local[d.key], s.objects[d.key]
	repl, enc := s.dataRepl, s.dataEnc
	hold := obj.hold() // encodeObject reads Data outside s.mu
	s.mu.Unlock()
	defer hold.Release()
	if st == nil || obj == nil || st.State != types.StateReplicated {
		return
	}
	// Re-check the decision: if the object re-heated and the constraint
	// now has room for it, keep it replicated.
	if s.decider.StaysReplicated(st.ID, repl, enc) {
		return
	}
	// A draining server demotes nothing: the pass draining it moves its
	// records to other primaries, and a stripe it published after that pass
	// read the record would name it again once it has left. A demotion
	// queued before the drain began can run that late on a busy machine.
	if s.draining.Load() {
		return
	}
	// A failed demotion leaves the object replicated: safe, retried on
	// the next classification pass.
	_ = s.encodeObject(context.Background(), obj, types.StripeID{}, true)
}

// internalRetry is the bounded resend policy for server-to-server traffic.
// It is deliberately tighter than the client policy: these sends sit on the
// write and recovery paths, so the backoff stays in the microsecond range.
// Like the client policy it feeds the fabric's transport.PeerHealth table,
// so only the first replica/shard/directory push to a dead peer pays the
// 0.2+0.4 ms; later ones fail fast until the peer is re-admitted.
var internalRetry = transport.RetryPolicy{
	MaxAttempts: 3,
	BaseBackoff: 200 * time.Microsecond,
	MaxBackoff:  2 * time.Millisecond,
	JitterFrac:  0.5,
}

// sendRetry delivers an internal server-to-server message with a short
// bounded retry on transient fabric failures. Internal paths (replica
// pushes, directory updates, shard distribution, recovery fetches) must
// absorb message-level faults: a silently dropped replica push would
// strand a stale copy that a later primary failure could expose as a
// stale read. A message to the server itself — its own share of a group
// write, a shard set or a lookup — is a call of the handler, not a send. A
// closed server sends nothing: a background encode it had in flight must not
// publish a stripe whose shard 0 died with it over its successor's record.
func (s *Server) sendRetry(ctx context.Context, to types.ServerID, msg *transport.Message) (*transport.Message, error) {
	if s.closed.Load() {
		return nil, transport.ErrUnreachable
	}
	if to == s.id {
		return s.Handle(ctx, msg), nil
	}
	return internalRetry.SendCounted(ctx, s.net, s.id, to, msg, s.col)
}

// ID returns the server's logical ID.
func (s *Server) ID() types.ServerID { return s.id }

// Load returns the current number of in-flight requests — the workload
// measurement the encoding workflow consults.
func (s *Server) Load() int64 { return s.inflight.Load() }

// Classifier exposes the CoREC classifier (nil in other modes), used by
// tests and the harness's miss-ratio reporting.
func (s *Server) Classifier() *classifier.Classifier { return s.decider.Classifier() }

// Close unregisters the server from the network. Its state remains readable
// by tests.
func (s *Server) Close() {
	if !s.closed.CompareAndSwap(false, true) {
		return
	}
	s.StopScrubber()
	s.encMu.Lock()
	s.encQueue = nil
	s.encCond.Broadcast()
	s.encMu.Unlock()
	s.net.Unregister(s.id)
	// Closing the engine discards L1 (exactly what a crash does) and leaves
	// the disk tier for a replacement server to revalidate and re-index.
	_ = s.store.Close() // Close never fails
}

// Handle is the transport handler: it dispatches by message kind.
func (s *Server) Handle(ctx context.Context, req *transport.Message) *transport.Message {
	s.inflight.Add(1)
	defer s.inflight.Add(-1)
	switch req.Kind {
	case transport.MsgPing:
		// With elastic membership a member's probe carries piggybacked
		// gossip and the reply returns ours. A ping from outside the fleet
		// (a client's or the monitor's, From < 0) gets a plain liveness ack,
		// as every ping does without membership: its sender would discard
		// our gossip, and handing it over spends its retransmit budget.
		if h := s.membershipHandler(); h != nil && req.From >= 0 {
			return h.HandleMessage(ctx, req)
		}
		return transport.Ok()
	case transport.MsgPingReq, transport.MsgGossip:
		return s.handleMembership(ctx, req)
	case transport.MsgHandoff:
		return s.handleHandoff(ctx, req)
	case transport.MsgLoadQuery:
		return &transport.Message{Kind: transport.MsgOK, Num: s.Load()}
	case transport.MsgPut:
		return s.handlePut(ctx, req)
	case transport.MsgDelete:
		return s.handleDelete(ctx, req)
	case transport.MsgGet:
		return s.handleGet(req)
	case transport.MsgReplicaPut:
		return s.handleReplicaPut(req)
	case transport.MsgReplicaDrop:
		return s.handleReplicaDrop(req)
	case transport.MsgShardPut:
		return s.handleShardPut(req)
	case transport.MsgShardGet:
		return s.handleShardGet(req)
	case transport.MsgShardDrop:
		return s.handleShardDrop(req)
	case transport.MsgEncodeDelegate:
		return s.handleEncodeDelegate(ctx, req)
	case transport.MsgMetaUpdate:
		return s.handleMetaUpdate(req)
	case transport.MsgMetaLookup:
		return s.handleMetaLookup(req)
	case transport.MsgMetaQuery:
		return s.handleMetaQuery(req)
	case transport.MsgMetaDelete:
		return s.handleMetaDelete(req)
	case transport.MsgStripeLookup:
		return s.handleStripeLookup(req)
	case transport.MsgTokenAcquire:
		return s.handleTokenAcquire(req)
	case transport.MsgTokenRelease:
		return s.handleTokenRelease(req)
	case transport.MsgRecover:
		return s.handleRecover(ctx, req)
	case transport.MsgStepEnd:
		return s.handleStepEnd(ctx, req)
	case transport.MsgRecoverAll:
		return s.handleRecoverAll(ctx, req)
	case transport.MsgScrub:
		return s.handleScrub(ctx, req)
	case transport.MsgStats:
		return s.handleStats(req)
	default:
		return transport.Errf("server %d: unsupported message kind %v", s.id, req.Kind)
	}
}

// MembershipHandler processes membership-plane messages. Implemented by
// membership.Agent; the indirection keeps the server decoupled from the
// gossip protocol's internals.
type MembershipHandler interface {
	HandleMessage(ctx context.Context, req *transport.Message) *transport.Message
}

// AttachMembership installs (or, with nil, removes) the membership agent
// that handles gossip-plane messages for this server.
func (s *Server) AttachMembership(h MembershipHandler) {
	s.memberMu.Lock()
	s.memberAgent = h
	s.memberMu.Unlock()
}

func (s *Server) membershipHandler() MembershipHandler {
	s.memberMu.RLock()
	defer s.memberMu.RUnlock()
	return s.memberAgent
}

func (s *Server) handleMembership(ctx context.Context, req *transport.Message) *transport.Message {
	if h := s.membershipHandler(); h != nil {
		return h.HandleMessage(ctx, req)
	}
	return transport.Errf("server %d: membership not enabled", s.id)
}

// SetDraining fences (or unfences) new writes: a draining server answers
// puts with a retryable error so clients fail over to the ring successor
// while the migrator hands existing objects off. Reads stay served.
func (s *Server) SetDraining(v bool) { s.draining.Store(v) }

// --- storage accessors used by handlers and tests ---

// HasObject reports whether the server holds a full primary copy of key.
func (s *Server) HasObject(key string) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	_, ok := s.objects[key]
	return ok
}

// HasReplica reports whether the server holds a replica of key.
func (s *Server) HasReplica(key string) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	_, ok := s.replicas[key]
	return ok
}

// HasShard reports whether the server holds the given stripe shard in any
// storage tier.
func (s *Server) HasShard(id types.StripeID, index int) bool {
	return s.store.Has(shardKey(id, index))
}

// StorageRestore reports what the engine's open-time disk scan found —
// non-zero only for a server restarted over an existing segment directory.
func (s *Server) StorageRestore() storage.RestoreReport {
	return s.store.RestoreReport()
}

// WaitStorageIdle blocks until the engine's background spill/upload/
// prefetch/compaction work drains. Tests and benches use it to make tier
// placement deterministic at observation points.
func (s *Server) WaitStorageIdle() {
	s.store.WaitIdle()
}

// Incarnation distinguishes this server instance from a predecessor or
// replacement reusing its logical ID: the encoding-token lease records its
// holder's incarnation, so a replacement's acquire takes over a token its
// predecessor died holding.
func (s *Server) Incarnation() uint64 { return s.incarnation }

// nextMetaSeq mints a directory-update sequence number: a hybrid logical
// timestamp that is strictly increasing on this server and at least as
// large as every Seq the server has observed. Physical time makes mints
// comparable across servers (a failover primary's first flip orders after
// the dead primary's last one without any handshake); the clamp keeps the
// clock monotonic through bursts and backward clock steps.
func (s *Server) nextMetaSeq() uint64 {
	now := uint64(time.Now().UnixMicro())
	for {
		cur := atomic.LoadUint64(&s.metaClock)
		next := now
		if next <= cur {
			next = cur + 1
		}
		if atomic.CompareAndSwapUint64(&s.metaClock, cur, next) {
			return next
		}
	}
}

// observeMetaSeq merges a Seq seen in an incoming directory update into the
// local clock, the logical half of the hybrid timestamp.
func (s *Server) observeMetaSeq(seq uint64) {
	for {
		cur := atomic.LoadUint64(&s.metaClock)
		if seq <= cur || atomic.CompareAndSwapUint64(&s.metaClock, cur, seq) {
			return
		}
	}
}

// SerializeStore flattens every locally held payload (full objects,
// replicas, shards) into one byte stream — the data a coordinated
// checkpoint of this server must persist. The encoding is a simple
// concatenation; the checkpoint baseline only needs realistic volume.
func (s *Server) SerializeStore() []byte {
	s.mu.Lock()
	var total int
	for _, o := range s.objects {
		total += len(o.Data)
	}
	for _, o := range s.replicas {
		total += len(o.Data)
	}
	// Key order, not map order: a checkpoint stream must be byte-identical
	// for identical store contents.
	out := make([]byte, 0, total)
	for _, k := range sortedKeys(s.objects) {
		out = append(out, s.objects[k].Data...)
	}
	for _, k := range sortedKeys(s.replicas) {
		out = append(out, s.replicas[k].Data...)
	}
	s.mu.Unlock()
	// Shards come from the engine (sorted keys; Peek leaves tier placement
	// untouched). A shard the remote model transiently faults is skipped —
	// the checkpoint baseline needs realistic volume, not a retry storm.
	for _, k := range s.store.Keys() {
		if b, ok := s.store.Peek(k); ok {
			out = append(out, b...)
		}
	}
	return out
}

// StorageUsage reports the bytes held by category: full primary objects,
// replica copies, and erasure shards (data+parity).
func (s *Server) StorageUsage() (objects, replicas, shards int64) {
	s.mu.Lock()
	for _, o := range s.objects {
		objects += int64(len(o.Data))
	}
	for _, o := range s.replicas {
		replicas += int64(len(o.Data))
	}
	s.mu.Unlock()
	for _, k := range s.store.Keys() {
		if n, ok := s.store.Size(k); ok {
			shards += n
		}
	}
	return
}

func shardKey(id types.StripeID, index int) string {
	return fmt.Sprintf("%d#%d/%d", id.Group, id.Seq, index)
}

// parseShardKey is the inverse of shardKey, for walks over the store's keys.
func parseShardKey(sk string) (id types.StripeID, index int, ok bool) {
	n, err := fmt.Sscanf(sk, "%d#%d/%d", &id.Group, &id.Seq, &index)
	return id, index, err == nil && n == 3
}

// holdShardLocked records the digest of a shard this server installs and,
// when the install carries it, the stripe's layout. Caller holds s.mu.
func (s *Server) holdShardLocked(id types.StripeID, index int, sum uint64, info *types.StripeInfo) {
	h := s.held[id]
	if h.sums == nil {
		h.sums = make(map[int]uint64)
	}
	h.sums[index] = sum
	if info != nil {
		h.info = info
	}
	s.held[id] = h
}

// writeLock returns the stripe lock serializing write-path transitions of
// the key. Callers must not nest acquisitions (the encode path is called
// with the lock already held by its entry point).
func (s *Server) writeLock(key string) *sync.Mutex {
	// FNV-1a over the key selects the stripe.
	h := uint32(2166136261)
	for i := 0; i < len(key); i++ {
		h ^= uint32(key[i])
		h *= 16777619
	}
	return &s.writeLocks[h%uint32(len(s.writeLocks))]
}
