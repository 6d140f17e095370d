// Package corec is a resilient in-memory data-staging runtime for in-situ
// HPC workflows, reproducing the CoREC system ("Scalable Data Resilience
// for In-Memory Data Staging", IPDPS 2018).
//
// A Cluster hosts a set of staging servers over a message fabric. Clients
// put and get n-dimensional array regions of named variables, versioned by
// simulation time step. The cluster keeps staged data available across
// server failures using a hybrid of replication (for write-hot data) and
// Reed-Solomon erasure coding (for write-cold data), driven by an online
// access-pattern classifier, with grouped failure-domain-aware placement, a
// load-balancing conflict-avoiding encoding workflow, and degraded/lazy
// recovery.
//
// Quick start:
//
//	cfg := corec.DefaultConfig(8)
//	cluster, _ := corec.NewCluster(cfg)
//	defer cluster.Close()
//	client := cluster.NewClient()
//	client.Put(ctx, "temp", box, 1, data)
//	got, _ := client.Get(ctx, "temp", box, 1)
package corec

import (
	"context"
	"fmt"
	"math/rand"
	"path/filepath"
	"sort"
	"sync"
	"time"

	"corec/internal/checkpoint"
	"corec/internal/classifier"
	"corec/internal/erasure"
	"corec/internal/failure"
	"corec/internal/geometry"
	"corec/internal/membership"
	"corec/internal/metrics"
	"corec/internal/placement"
	"corec/internal/policy"
	"corec/internal/recovery"
	"corec/internal/scrub"
	"corec/internal/server"
	"corec/internal/simnet"
	"corec/internal/storage"
	"corec/internal/topology"
	"corec/internal/transport"
	"corec/internal/types"
)

// Re-exported aliases so applications need only this package for common
// use. The internal packages stay importable inside the module for tests
// and the benchmark harness.
type (
	// Box is an n-dimensional region (inclusive lower, exclusive upper).
	Box = geometry.Box
	// ObjectID identifies a staged object.
	ObjectID = types.ObjectID
	// ServerID identifies a staging server.
	ServerID = types.ServerID
	// Version is a data version (simulation time step).
	Version = types.Version
	// Mode selects the resilience policy.
	Mode = policy.Mode
	// RecoveryMode selects lazy or aggressive recovery.
	RecoveryMode = recovery.Mode
	// LinkModel configures the fabric cost model.
	LinkModel = simnet.LinkModel
	// Snapshot is a metrics snapshot.
	Snapshot = metrics.Snapshot
	// ScrubConfig tunes the anti-entropy scrubber.
	ScrubConfig = scrub.Config
	// ScrubReport tallies one scrub pass (or sweep) outcome.
	ScrubReport = scrub.Report
	// StorageConfig tunes the tiered (mem/disk/remote) storage engine.
	StorageConfig = storage.Config
	// RemoteStoreConfig models the shared L3 remote object store.
	RemoteStoreConfig = storage.RemoteConfig
	// StorageStats is one server's tiered-engine snapshot.
	StorageStats = storage.Stats
	// StorageRestoreReport is what a restarted server's disk scan found.
	StorageRestoreReport = storage.RestoreReport
)

// DefaultRemoteStoreConfig returns the stock L3 object-store model.
func DefaultRemoteStoreConfig() RemoteStoreConfig { return storage.DefaultRemoteConfig() }

// DefaultScrubConfig returns the stock scrubber tuning.
func DefaultScrubConfig() ScrubConfig { return scrub.DefaultConfig() }

// Policy modes, re-exported.
const (
	PolicyNone      = policy.None
	PolicyReplicate = policy.Replicate
	PolicyErasure   = policy.Erasure
	PolicyHybrid    = policy.Hybrid
	PolicyCoREC     = policy.CoREC
)

// Recovery modes, re-exported.
const (
	RecoveryLazy       = recovery.Lazy
	RecoveryAggressive = recovery.Aggressive
)

// Box3D builds a 3-dimensional box.
func Box3D(x0, y0, z0, x1, y1, z1 int64) Box { return geometry.Box3D(x0, y0, z0, x1, y1, z1) }

// Config assembles a staging cluster.
type Config struct {
	// Servers is the number of staging servers (> 0).
	Servers int
	// Mode selects the resilience policy. Default PolicyCoREC.
	Mode Mode
	// NLevel is the number of simultaneous server failures to tolerate
	// (replica count and parity count). Default 1.
	NLevel int
	// DataShards is the Reed-Solomon k. Parity count m equals NLevel. A
	// static fleet's placement checks that its groups tile the ring:
	// DataShards+NLevel and NLevel+1 must both divide Servers (an elastic
	// fleet places on its ring and has no such constraint). Default 3.
	DataShards int
	// StorageEfficiencyMin is the paper's constraint S (0 disables).
	// Default 0.67 (Table I).
	StorageEfficiencyMin float64
	// Domain bounds the staged data space; used by the classifier's
	// spatial rule. Default 256^3.
	Domain Box
	// Link is the fabric cost model. Zero value = free network.
	Link LinkModel
	// RecoveryMode selects lazy (default) or aggressive recovery.
	RecoveryMode RecoveryMode
	// MTBF parameterizes the lazy recovery deadline. Default 40s (scaled
	// experiment time).
	MTBF time.Duration
	// MaxObjectBytes caps object payloads; larger puts are geometrically
	// partitioned (Algorithm 1). Default 4 MiB.
	MaxObjectBytes int
	// ElemSize is the array element size in bytes. Default 8 (float64).
	ElemSize int
	// HelperLoadDelta tunes encode delegation; negative disables. Default 2.
	HelperLoadDelta int64
	// Transport selects the fabric: "inproc" (default) or "tcp". TCP runs
	// every server on its own listener (see ListenHost) so the staging
	// service can span processes; the in-process fabric applies the Link
	// cost model and is what the experiments use.
	Transport string
	// ListenHost is the bind host for TCP transports. Default "127.0.0.1".
	ListenHost string
	// PortBase, when > 0, pins server i's TCP listener to port PortBase+i
	// instead of an ephemeral port. Deterministic ports let the processes of
	// a multi-process fleet compute every peer's address locally, with no
	// coordination round. Only meaningful with Transport "tcp".
	PortBase int
	// LocalServers, when non-nil, restricts which of the fleet's Servers
	// this process hosts: only the listed IDs start locally, every other ID
	// is assumed to live in a sibling process at ListenHost:PortBase+id.
	// This is how one logical staging service spans OS processes — each
	// process runs NewCluster with the same Config and a disjoint
	// LocalServers slice. Requires Transport "tcp" and PortBase > 0. Nil
	// (the default) hosts the whole fleet in-process.
	LocalServers []ServerID
	// MuxConnsPerPeer sizes the TCP fabric: that many shared connections
	// per peer carry this process's pipelined requests, correlated by frame
	// request IDs. 0 (default) resolves to transport.DefaultMuxConns. It is
	// sizing only — the servers and clients of one service need not agree.
	// Each connection carries up to transport.DefaultMaxInFlight requests.
	// Ignored by "inproc".
	MuxConnsPerPeer int
	// Classifier tunes CoREC classification; zero value gets defaults over
	// Domain.
	Classifier classifier.Config
	// Seed drives the hybrid policy's randomness.
	Seed int64
	// Retry governs client-side RPC resends; nil uses
	// transport.DefaultRetryPolicy(). Set MaxAttempts to 1 to disable
	// retries entirely (the write path then surfaces fabric errors to the
	// caller after a single failover attempt).
	Retry *transport.RetryPolicy
	// FaultPlan, when non-nil, wraps the fabric in a FaultyNetwork
	// injecting the plan's seeded network faults. Experiments use it to mix
	// message-level faults with node kills; production deployments leave it
	// nil. Scheduled BitRot faults land at end-of-step processing.
	FaultPlan *failure.FaultPlan
	// Scrub, when non-nil, starts the background anti-entropy scrubber on
	// every server (including monitor-started replacements) with this
	// tuning. A zero ScrubConfig turns on verified reads only: no background
	// pass, unpaced, DepthLocal; DefaultScrubConfig is the stock tuning. Nil
	// disables scrubbing; Cluster.ScrubNow still works for on-demand sweeps.
	Scrub *ScrubConfig
	// Membership, when non-nil, enables elastic membership: SWIM-style
	// gossip failure detection on every server, placement over a dynamic
	// consistent-hash ring, and runtime Join/Drain/Leave. Nil keeps the
	// static fleet with central monitor heartbeats.
	Membership *MembershipConfig
	// Storage, when non-nil, runs every server's erasure shards through the
	// tiered storage engine: L1 memory bounded by MemBytes, L2 append-only
	// disk segments under Storage.Dir (each server gets its own
	// "server-NNN" subdirectory, which a Replace reopens and revalidates),
	// and — when Storage.Remote is set — one cluster-shared L3 remote
	// object store. Nil keeps shards purely in memory, the pre-tiering
	// behaviour.
	Storage *StorageConfig

	// rebalanceMBps paces the live migrator in MiB/s; 0 takes
	// rebalanceRateMBps, negative leaves it unpaced. Only this package's
	// tests set it.
	rebalanceMBps float64
}

// DefaultConfig returns a CoREC cluster configuration over n servers
// matching the paper's Table I parameters (RS(3+1), 1 replica, S = 67%).
func DefaultConfig(n int) Config {
	return Config{
		Servers:              n,
		Mode:                 PolicyCoREC,
		NLevel:               1,
		DataShards:           3,
		StorageEfficiencyMin: 0.67,
		Domain:               Box3D(0, 0, 0, 256, 256, 256),
		RecoveryMode:         RecoveryLazy,
		MTBF:                 40 * time.Second,
		MaxObjectBytes:       4 << 20,
		ElemSize:             8,
		HelperLoadDelta:      2,
	}
}

func (c *Config) withDefaults() Config {
	out := *c
	if out.NLevel == 0 {
		out.NLevel = 1
	}
	if out.DataShards == 0 {
		out.DataShards = 3
	}
	if !out.Domain.Valid() {
		out.Domain = Box3D(0, 0, 0, 256, 256, 256)
	}
	if out.MTBF == 0 {
		out.MTBF = 40 * time.Second
	}
	if out.MaxObjectBytes == 0 {
		out.MaxObjectBytes = 4 << 20
	}
	if out.ElemSize == 0 {
		out.ElemSize = 8
	}
	if out.HelperLoadDelta == 0 {
		out.HelperLoadDelta = 2
	}
	return out
}

// Cluster is a running staging service: servers, fabric, shared metrics.
type Cluster struct {
	cfg     Config
	net     transport.Network
	faults  *transport.FaultyNetwork // non-nil when a FaultPlan wraps the fabric
	retry   transport.RetryPolicy
	health  *transport.PeerHealth // the fabric's table: retry.Send feeds it, reads consult it
	top     *topology.Topology
	place   placement.Placement  // the one answer to "which servers"
	dir     *placement.Directory // object records -> directory servers
	col     *metrics.Collector
	codec   *erasure.Codec
	polCfg  policy.Config
	remote  *storage.RemoteStore // shared L3 tier; nil without Storage.Remote
	mu      sync.Mutex
	servers map[types.ServerID]*server.Server

	// elastic holds the membership plane (gossip agents, dynamic ring,
	// rebalance tallies); nil for static fleets.
	elastic *elasticState

	// rotMu guards the at-rest bit-rot stream: one seeded rng (separate
	// from the network injector's) drives every injection so scheduled and
	// manual corruption stay deterministic, and rotLog records what landed.
	rotMu  sync.Mutex
	rotRng *rand.Rand
	rotLog []failure.BitRotEvent
}

// maxCabinets is how many failure domains a fleet spreads over: a fleet of
// n servers has min(n, maxCabinets) cabinets.
const maxCabinets = 4

// NewCluster builds and starts an in-process staging cluster.
func NewCluster(cfg Config) (*Cluster, error) {
	cfg = cfg.withDefaults()
	if cfg.Servers <= 0 {
		return nil, fmt.Errorf("corec: server count must be positive")
	}
	top, err := topology.Uniform(cfg.Servers, min(cfg.Servers, maxCabinets))
	if err != nil {
		return nil, err
	}
	var net transport.Network
	switch cfg.Transport {
	case "", "inproc":
		net = transport.NewInProc(cfg.Link)
	case "tcp":
		host := cfg.ListenHost
		if host == "" {
			host = "127.0.0.1"
		}
		tn := transport.NewTCPNetwork(host)
		tn.ConfigureMux(cfg.MuxConnsPerPeer, 0)
		tn.SetPortBase(cfg.PortBase)
		net = tn
	default:
		return nil, fmt.Errorf("corec: unknown transport %q", cfg.Transport)
	}
	if cfg.LocalServers != nil {
		if cfg.Transport != "tcp" || cfg.PortBase <= 0 {
			return nil, fmt.Errorf("corec: LocalServers requires Transport \"tcp\" and PortBase > 0")
		}
		for _, id := range cfg.LocalServers {
			if id < 0 || int(id) >= cfg.Servers {
				return nil, fmt.Errorf("corec: local server %d outside fleet [0,%d)", id, cfg.Servers)
			}
		}
	}
	var faults *transport.FaultyNetwork
	if cfg.FaultPlan != nil {
		if err := cfg.FaultPlan.Validate(); err != nil {
			return nil, err
		}
		faults = transport.NewFaultyNetwork(net, cfg.FaultPlan)
		net = faults
	}
	if cfg.Scrub != nil {
		if err := cfg.Scrub.Validate(); err != nil {
			return nil, err
		}
	}
	col := metrics.NewCollector()
	polCfg := policy.Config{
		Mode:                 cfg.Mode,
		NLevel:               cfg.NLevel,
		K:                    cfg.DataShards,
		M:                    cfg.NLevel,
		StorageEfficiencyMin: cfg.StorageEfficiencyMin,
		Seed:                 cfg.Seed,
	}
	var codec *erasure.Codec
	if cfg.Mode != PolicyNone {
		codec, err = server.NewCodec(cfg.DataShards, cfg.NLevel)
		if err != nil {
			return nil, err
		}
	}
	c := &Cluster{
		cfg:     cfg,
		net:     net,
		faults:  faults,
		retry:   retryPolicy(cfg.Retry),
		health:  transport.HealthOf(net),
		top:     top,
		col:     col,
		codec:   codec,
		polCfg:  polCfg,
		servers: make(map[types.ServerID]*server.Server),
	}
	if cfg.Membership != nil {
		c.elastic = newElasticState(*cfg.Membership)
		// Seed the ring with the initial fleet before any server starts, so
		// every agent bootstraps a complete view and the first servers place
		// writes over the whole fleet, not just the already-started prefix.
		for i := 0; i < cfg.Servers; i++ {
			c.elastic.ring.Join(types.ServerID(i), c.domainFor(types.ServerID(i)))
		}
	}
	if err := c.placeFleet(); err != nil {
		return nil, err
	}
	if cfg.Storage != nil && cfg.Storage.Remote != nil {
		// One remote store for the whole fleet: like a real object store it
		// outlives any single server, so kill/Replace cycles re-reach their
		// uploads through the manifests persisted in each disk tier.
		c.remote = storage.NewRemoteStore(*cfg.Storage.Remote)
	}
	local := make(map[types.ServerID]bool, cfg.Servers)
	if cfg.LocalServers == nil {
		for i := 0; i < cfg.Servers; i++ {
			local[types.ServerID(i)] = true
		}
	} else {
		for _, id := range cfg.LocalServers {
			local[types.ServerID(id)] = true
		}
		// Record every sibling process's server at its deterministic address
		// before any local server starts, so gossip bootstrap views and the
		// first placed writes can reach the whole fleet immediately.
		tn := c.tcpNet()
		host := cfg.ListenHost
		if host == "" {
			host = "127.0.0.1"
		}
		for i := 0; i < cfg.Servers; i++ {
			if id := types.ServerID(i); !local[id] {
				tn.AddRemote(id, fmt.Sprintf("%s:%d", host, cfg.PortBase+i))
			}
		}
	}
	for i := 0; i < cfg.Servers; i++ {
		if id := types.ServerID(i); local[id] {
			if _, err := c.startServer(id); err != nil {
				return nil, err
			}
		}
	}
	// On a TCP fabric the early servers' gossip agents were bootstrapped
	// before the later servers were listening; backfill the now-known
	// listen addresses so membership snapshots are dialable from the start.
	c.refreshAgentAddrs()
	return c, nil
}

func (c *Cluster) startServer(id types.ServerID) (*server.Server, error) {
	cc := c.cfg.Classifier
	if cc.Window == 0 && cc.HotThreshold == 0 {
		cc = classifier.DefaultConfig(c.cfg.Domain)
	}
	var storeCfg *storage.Config
	var ns string
	if c.cfg.Storage != nil {
		sc := *c.cfg.Storage
		if sc.Dir != "" {
			// Per-server segment directory, keyed by logical ID: a
			// replacement server reopens its predecessor's directory and
			// revalidates/re-indexes the surviving disk tier on startup.
			sc.Dir = filepath.Join(sc.Dir, fmt.Sprintf("server-%03d", id))
		}
		storeCfg = &sc
		ns = fmt.Sprintf("s%d/", id)
	}
	srv, err := server.New(server.Config{
		ID:               id,
		Placement:        c.place,
		Network:          c.net,
		Policy:           c.polCfg,
		Collector:        c.col,
		Domain:           c.cfg.Domain,
		RecoveryMode:     c.cfg.RecoveryMode,
		MTBF:             c.cfg.MTBF,
		HelperLoadDelta:  c.cfg.HelperLoadDelta,
		ClassifierConfig: cc,
		Storage:          storeCfg,
		RemoteStore:      c.remote,
		StorageNS:        ns,
	})
	if err != nil {
		return nil, err
	}
	if c.cfg.Scrub != nil {
		if err := srv.StartScrubber(*c.cfg.Scrub); err != nil {
			srv.Close()
			return nil, err
		}
	}
	c.mu.Lock()
	c.servers[id] = srv
	c.mu.Unlock()
	if c.elastic != nil {
		c.attachElastic(id, srv)
	}
	return srv, nil
}

// placeFleet builds the fleet's placement and its directory: the one place
// the static/elastic choice is made. An elastic fleet places on its dynamic
// ring; a static one on a hash placement whose groups must tile the fleet.
// Without resilience nothing is copied or coded, so the groups are trivial.
func (c *Cluster) placeFleet() error {
	replicas, width := c.cfg.NLevel, c.cfg.DataShards+c.cfg.NLevel
	if c.cfg.Mode == PolicyNone {
		replicas, width = 0, 0
	}
	if c.elastic != nil {
		c.place = placement.NewRing(c.elastic.ring, replicas, width)
	} else {
		hash, err := placement.NewGroupedHash(c.cfg.Servers, replicas, width)
		if err != nil {
			return err
		}
		c.place = hash
	}
	c.dir = placement.NewDirectory(c.place, c.cfg.NLevel, c.cfg.Domain)
	return nil
}

// retryPolicy resolves a configured policy, defaulting when nil.
func retryPolicy(p *transport.RetryPolicy) transport.RetryPolicy {
	if p != nil {
		return *p
	}
	return transport.DefaultRetryPolicy()
}

// tcpNet unwraps the fabric (through any fault injector) to the TCP
// network, or nil when the cluster runs in-process.
func (c *Cluster) tcpNet() *transport.TCPNetwork {
	n := c.net
	if f, ok := n.(*transport.FaultyNetwork); ok {
		n = f.Inner()
	}
	tn, _ := n.(*transport.TCPNetwork)
	return tn
}

// Faults returns the fault injector wrapping the fabric, or nil when the
// cluster was built without a FaultPlan.
func (c *Cluster) Faults() *transport.FaultyNetwork { return c.faults }

// RetryPolicy returns the client-side retry policy in effect.
func (c *Cluster) RetryPolicy() transport.RetryPolicy { return c.retry }

// Server returns the running server with the given ID (nil if failed).
func (c *Cluster) Server(id ServerID) *server.Server {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.servers[id]
}

// NumServers returns the configured server count.
func (c *Cluster) NumServers() int { return c.cfg.Servers }

// Collector returns the shared metrics collector.
func (c *Cluster) Collector() *metrics.Collector { return c.col }

// RemoteStore returns the cluster-shared L3 object store, or nil when the
// configuration has no remote tier. Chaos tests use it to keep the "object
// store" alive across cluster restarts.
func (c *Cluster) RemoteStore() *storage.RemoteStore { return c.remote }

// Config returns the cluster configuration (after defaulting).
func (c *Cluster) Config() Config { return c.cfg }

// Kill simulates a fail-stop crash of the server: it vanishes from the
// fabric and its memory contents are lost.
func (c *Cluster) Kill(id ServerID) {
	// Stop the victim's gossip agent first (a dead server neither probes
	// nor refutes); the ring is NOT updated here — the surviving agents
	// must detect the death through gossip, exactly like a real crash.
	c.stopAgent(types.ServerID(id))
	c.mu.Lock()
	srv := c.servers[id]
	delete(c.servers, id)
	c.mu.Unlock()
	if srv != nil {
		srv.Close()
	}
}

// Alive reports whether the server is reachable.
func (c *Cluster) Alive(id ServerID) bool {
	if r, ok := c.net.(interface{ Registered(types.ServerID) bool }); ok {
		return r.Registered(id)
	}
	resp, err := c.net.Send(contextBackground, -1, id, &transport.Message{Kind: transport.MsgPing})
	return err == nil && resp.Kind == transport.MsgOK
}

// ServerAddrs returns the listen addresses of locally hosted servers when
// the cluster uses the TCP transport (empty otherwise). Used to hand a
// remote-cluster client its address map.
func (c *Cluster) ServerAddrs() map[ServerID]string {
	tn := c.tcpNet()
	if tn == nil {
		return nil
	}
	// An elastic fleet can outgrow the initial id range and shed members,
	// so its address map is the running-server set; static clusters (and
	// remote handles, which run no servers) keep the configured range.
	ids := make(map[types.ServerID]bool, c.cfg.Servers)
	if c.elastic == nil {
		for i := 0; i < c.cfg.Servers; i++ {
			ids[types.ServerID(i)] = true
		}
	}
	c.mu.Lock()
	for id := range c.servers {
		ids[id] = true
	}
	c.mu.Unlock()
	out := make(map[ServerID]string)
	for id := range ids {
		if addr, ok := tn.Addr(id); ok {
			out[ServerID(id)] = addr
		}
	}
	return out
}

// NewRemoteCluster returns a client-side handle to a staging service
// hosted elsewhere: it runs no servers, only a TCP fabric pointed at the
// given addresses. NewClient, Query, Get and Put work as usual; server
// management methods (Kill, Replace, EndTimeStep) are inert.
//
// When the service runs elastic membership, set cfg.Membership: the handle
// then pulls a membership snapshot over the wire and places on the same
// dynamic ring as the fleet, instead of guessing from a static server count
// that drifts as servers join and drain. A static service's handle places
// as its servers do, so its geometry must tile cfg.Servers as theirs did.
func NewRemoteCluster(cfg Config, addrs map[ServerID]string) (*Cluster, error) {
	cfg = cfg.withDefaults()
	if cfg.Servers <= 0 {
		cfg.Servers = len(addrs)
	}
	if cfg.Servers == 0 {
		return nil, fmt.Errorf("corec: no server addresses")
	}
	host := cfg.ListenHost
	if host == "" {
		host = "127.0.0.1"
	}
	net := transport.NewTCPNetwork(host)
	net.ConfigureMux(cfg.MuxConnsPerPeer, 0)
	for id, addr := range addrs {
		net.AddRemote(types.ServerID(id), addr)
	}
	var codec *erasure.Codec
	var err error
	if cfg.Mode != PolicyNone {
		codec, err = server.NewCodec(cfg.DataShards, cfg.NLevel)
		if err != nil {
			return nil, err
		}
	}
	c := &Cluster{
		cfg:     cfg,
		net:     net,
		retry:   retryPolicy(cfg.Retry),
		health:  transport.HealthOf(net),
		col:     metrics.NewCollector(),
		codec:   codec,
		servers: make(map[types.ServerID]*server.Server),
	}
	if cfg.Membership != nil {
		c.elastic = newElasticState(*cfg.Membership)
		if err := c.bootstrapRemoteRing(addrs); err != nil {
			return nil, err
		}
	}
	if err := c.placeFleet(); err != nil {
		return nil, err
	}
	return c, nil
}

// Replace starts a fresh (empty) server under the failed server's logical
// ID — the "replacement staging server" of Section III-D. The caller then
// runs recovery via the returned server's RunRecovery, or uses
// ReplaceAndRecover.
func (c *Cluster) Replace(id ServerID) (*server.Server, error) {
	c.mu.Lock()
	_, exists := c.servers[id]
	c.mu.Unlock()
	if exists {
		return nil, fmt.Errorf("corec: server %d is still alive", id)
	}
	return c.startServer(id)
}

// EndTimeStep runs end-of-step processing (CoREC classification-driven
// transitions) on every server. Returns total demotions and promotions.
func (c *Cluster) EndTimeStep(ts Version) (demoted, promoted int) {
	servers := c.serversByID()
	var wg sync.WaitGroup
	var mu sync.Mutex
	for _, s := range servers {
		wg.Add(1)
		go func(s *server.Server) {
			defer wg.Done()
			d, p := s.EndTimeStep(contextBackground, ts)
			mu.Lock()
			demoted += d
			promoted += p
			mu.Unlock()
		}(s)
	}
	wg.Wait()
	// Drain the background encode queues so the step boundary is a
	// consistent point: write response times exclude encoding, workflow
	// time includes it.
	for _, s := range servers {
		s.WaitEncodeIdle()
	}
	// The workflow has moved on: activate/expire step-windowed fault rules
	// for the next time step.
	if c.faults != nil {
		c.faults.AdvanceStep(ts + 1)
	}
	// At-rest corruption scheduled for this step lands now, after the
	// encode queues drained: the rot hits settled payloads, not buffers an
	// in-flight encode is about to replace.
	c.applyBitRot(ts)
	return demoted, promoted
}

// applyBitRot fires the fault plan's bit-rot entries scheduled for the
// given step, in plan order off the shared seeded stream.
func (c *Cluster) applyBitRot(ts Version) {
	if c.cfg.FaultPlan == nil || len(c.cfg.FaultPlan.BitRot) == 0 {
		return
	}
	for _, f := range c.cfg.FaultPlan.BitRot {
		if f.Step != ts {
			continue
		}
		c.injectBitRot(f.Server, ts, f.Target, f.Count)
	}
}

// InjectBitRot flips one bit in each of up to count resident payloads on
// the server, drawn deterministically from the cluster's seeded rot
// stream — the manual counterpart of FaultPlan.BitRot for tests that
// corrupt at a precise point instead of a step boundary. Returns the
// corruption events (nil if the server is dead or holds nothing). As at a
// step boundary, the encode queues drain first: the rot hits settled payloads,
// not ones an encode in flight is about to replace.
func (c *Cluster) InjectBitRot(id ServerID, target failure.RotTarget, count int) []failure.BitRotEvent {
	for _, s := range c.serversByID() {
		s.WaitEncodeIdle()
	}
	return c.injectBitRot(id, 0, target, count)
}

func (c *Cluster) injectBitRot(id ServerID, ts Version, target failure.RotTarget, count int) []failure.BitRotEvent {
	srv := c.Server(id)
	if srv == nil {
		return nil // fail-stopped: its memory is gone, nothing to rot
	}
	c.rotMu.Lock()
	defer c.rotMu.Unlock()
	if c.rotRng == nil {
		seed := c.cfg.Seed
		if c.cfg.FaultPlan != nil {
			seed = c.cfg.FaultPlan.Seed
		}
		// Salt the seed so the rot stream never mirrors the network
		// injector's decisions plan for plan.
		c.rotRng = rand.New(rand.NewSource(seed ^ 0x5c2b17a9d3e8f041))
	}
	evs := srv.InjectBitRot(c.rotRng, target, count)
	for i := range evs {
		evs[i].Step = ts
	}
	c.rotLog = append(c.rotLog, evs...)
	return evs
}

// BitRotLog returns a copy of every at-rest corruption applied so far,
// scheduled or manual, in injection order.
func (c *Cluster) BitRotLog() []failure.BitRotEvent {
	c.rotMu.Lock()
	defer c.rotMu.Unlock()
	return append([]failure.BitRotEvent(nil), c.rotLog...)
}

// ScrubNow runs one synchronous cluster-wide anti-entropy sweep and
// returns the aggregated report. The sweep is two-phase: first every live
// server verifies its own payloads at local depth, then every server runs
// its full configured pass (replica cross-checks and stripe spot-decodes
// included). The local phase runs everywhere first so each at-rest
// corruption is detected — and counted — by its holder before a peer's
// cross-check repairs it out from under the count; this is what makes
// detection totals deterministic for seeded chaos tests.
func (c *Cluster) ScrubNow(ctx context.Context) (ScrubReport, error) {
	servers := c.serversByID()
	var total ScrubReport
	var firstErr error
	for _, s := range servers {
		r, err := s.ScrubDepth(ctx, scrub.DepthLocal)
		total.Add(r)
		if err != nil && firstErr == nil {
			firstErr = err
		}
	}
	for _, s := range servers {
		r, err := s.ScrubOnce(ctx)
		total.Add(r)
		if err != nil && firstErr == nil {
			firstErr = err
		}
	}
	return total, firstErr
}

// StorageReport aggregates storage usage across live servers.
type StorageReport struct {
	// ObjectBytes is the total size of full primary copies.
	ObjectBytes int64
	// ReplicaBytes is the total size of replica copies.
	ReplicaBytes int64
	// ShardBytes is the total size of erasure shards (data + parity).
	ShardBytes int64
	// Replicated and Encoded count primary objects by state.
	Replicated, Encoded int
	// Efficiency is the cluster-wide storage efficiency over primary data.
	Efficiency float64
}

// StorageReport computes cluster-wide storage accounting.
func (c *Cluster) StorageReport() StorageReport {
	var r StorageReport
	for _, s := range c.serversByID() {
		st := s.CollectStats()
		r.ObjectBytes += st.ObjectBytes
		r.ReplicaBytes += st.ReplicaBytes
		r.ShardBytes += st.ShardBytes
		r.Replicated += st.Replicated
		r.Encoded += st.Encoded
	}
	// Efficiency from the canonical definition: unique data over raw
	// stored bytes. Encoded objects no longer hold a full copy, so their
	// unique size is the data-shard fraction of ShardBytes.
	raw := r.ObjectBytes + r.ReplicaBytes + r.ShardBytes
	unique := r.ObjectBytes
	if c.codec != nil {
		unique += int64(float64(r.ShardBytes) * c.codec.StorageEfficiency())
	}
	if raw > 0 {
		r.Efficiency = float64(unique) / float64(raw)
	} else {
		r.Efficiency = 1
	}
	return r
}

// ServerBytes serializes every live server's staged data, the streams a
// coordinated checkpoint would write (satisfies checkpoint.Snapshotter).
func (c *Cluster) ServerBytes() [][]byte {
	out := make([][]byte, 0, c.cfg.Servers)
	for _, s := range c.serversByID() {
		out = append(out, s.SerializeStore())
	}
	return out
}

// serversByID snapshots the live servers in ID order, not map order:
// checkpoint streams must line up run-to-run.
func (c *Cluster) serversByID() []*server.Server {
	c.mu.Lock()
	ids := make([]types.ServerID, 0, len(c.servers))
	for id := range c.servers {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	servers := make([]*server.Server, 0, len(ids))
	for _, id := range ids {
		servers = append(servers, c.servers[id])
	}
	c.mu.Unlock()
	return servers
}

// DirtyServerBytes serializes only the servers whose staged data may have
// changed since the marks of a previous call (satisfies
// checkpoint.IncrementalSnapshotter): a server whose incarnation appears in
// prev with an unchanged mutation sequence yields a nil stream. The
// mutation sequence is read before serializing, so a write racing the
// capture can only make the next checkpoint conservatively re-serialize,
// never skip a changed server.
func (c *Cluster) DirtyServerBytes(prev []checkpoint.Mark) ([][]byte, []checkpoint.Mark) {
	prevSeq := make(map[uint64]uint64, len(prev))
	for _, m := range prev {
		prevSeq[m.Incarnation] = m.Seq
	}
	servers := c.serversByID()
	streams := make([][]byte, len(servers))
	marks := make([]checkpoint.Mark, len(servers))
	for i, s := range servers {
		m := checkpoint.Mark{Incarnation: s.Incarnation(), Seq: s.MutationSeq()}
		marks[i] = m
		if seq, ok := prevSeq[m.Incarnation]; ok && seq == m.Seq {
			continue // clean since the previous checkpoint: stream elided
		}
		streams[i] = s.SerializeStore()
	}
	return streams, marks
}

// Close shuts down every server.
func (c *Cluster) Close() {
	if e := c.elastic; e != nil {
		e.mu.Lock()
		agents := make([]*membership.Agent, 0, len(e.agents))
		for _, a := range e.agents {
			agents = append(agents, a)
		}
		e.agents = make(map[types.ServerID]*membership.Agent)
		e.mu.Unlock()
		for _, a := range agents {
			a.Stop()
		}
	}
	c.mu.Lock()
	servers := make([]*server.Server, 0, len(c.servers))
	for _, s := range c.servers {
		servers = append(servers, s)
	}
	c.servers = make(map[types.ServerID]*server.Server)
	c.mu.Unlock()
	for _, s := range servers {
		s.Close()
	}
	if tn := c.tcpNet(); tn != nil {
		tn.Close()
	}
}
