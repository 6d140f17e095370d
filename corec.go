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
	"encoding/json"
	"fmt"
	"math/rand"
	"path/filepath"
	"sort"
	"sync"
	"time"

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
	// Mode selects the resilience policy. The zero value is PolicyNone:
	// staged data has no redundancy. DefaultConfig, the paper's Table I
	// configuration, sets PolicyCoREC.
	Mode Mode
	// NLevel is the number of simultaneous server failures to tolerate
	// (replica count and parity count). Default 1.
	NLevel int
	// DataShards is the Reed-Solomon k. Parity count m equals NLevel. A
	// static fleet's placement checks that its groups tile the ring:
	// DataShards+NLevel and NLevel+1 must both divide Servers (an elastic
	// fleet places on its ring and has no such constraint). Default 3.
	DataShards int
	// StorageEfficiencyMin is the paper's constraint S. The zero value
	// disables it; DefaultConfig sets Table I's 0.67.
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
	cfg := Config{Servers: n, Mode: PolicyCoREC, StorageEfficiencyMin: 0.67}
	return cfg.withDefaults()
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
	if out.ListenHost == "" {
		out.ListenHost = "127.0.0.1"
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
	ctl     *Client // sends the fleet verbs (fleetctl.go) over net

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
		tn := transport.NewTCPNetwork(cfg.ListenHost)
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
	// Seed the ring with the initial fleet before any server starts, so
	// every agent bootstraps a complete view and the first servers place
	// writes over the whole fleet, not just the already-started prefix.
	var ring []membership.Update
	if cfg.Membership != nil {
		for i := 0; i < cfg.Servers; i++ {
			ring = append(ring, membership.Update{ID: types.ServerID(i), Domain: top.Server(types.ServerID(i)).Cabinet})
		}
	}
	c, err := assemble(cfg, net, top, ring)
	if err != nil {
		return nil, err
	}
	c.faults = faults
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
		for i := 0; i < cfg.Servers; i++ {
			if id := types.ServerID(i); !local[id] {
				tn.AddRemote(id, fmt.Sprintf("%s:%d", cfg.ListenHost, cfg.PortBase+i))
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
		MTBF:             c.cfg.MTBF,
		HelperLoadDelta:  c.cfg.HelperLoadDelta,
		ClassifierConfig: c.cfg.Classifier,
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

// assemble builds a Cluster over its fabric from a resolved Config: the
// codec, the elastic state and its ring (seeded with the given members),
// the placement and the control client. NewCluster and NewRemoteCluster
// differ only in how they get the fabric and the shape.
func assemble(cfg Config, net transport.Network, top *topology.Topology, ring []membership.Update) (*Cluster, error) {
	var codec *erasure.Codec
	if cfg.Mode != PolicyNone {
		var err error
		if codec, err = server.NewCodec(cfg.DataShards, cfg.NLevel); err != nil {
			return nil, err
		}
	}
	c := &Cluster{
		cfg:    cfg,
		net:    net,
		retry:  retryPolicy(cfg.Retry),
		health: transport.HealthOf(net),
		top:    top,
		col:    metrics.NewCollector(),
		codec:  codec,
		polCfg: policy.Config{
			Mode:                 cfg.Mode,
			NLevel:               cfg.NLevel,
			K:                    cfg.DataShards,
			M:                    cfg.NLevel,
			StorageEfficiencyMin: cfg.StorageEfficiencyMin,
			Seed:                 cfg.Seed,
		},
		servers: make(map[types.ServerID]*server.Server),
	}
	if cfg.Membership != nil {
		c.elastic = newElasticState(*cfg.Membership)
		for _, m := range ring {
			c.elastic.ring.Join(m.ID, m.Domain)
		}
	}
	if err := c.placeFleet(); err != nil {
		return nil, err
	}
	c.ctl = c.NewClient()
	return c, nil
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

// NumServers returns the fleet's server count: the configured one, or for
// a remote handle the member count the fleet reported.
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
// given addresses. NewClient, Query, Get and Put work as usual, and so do
// the fleet verbs (EndTimeStep, ScrubNow, FabricStatus, StorageReport),
// which are messages to the members; the process lifecycle methods (Kill,
// Replace) are inert.
//
// The handle asks the fleet for its shape: the first member that answers a
// status request names the policy, NLevel, DataShards, Domain, member count
// and whether membership is elastic, so the handle places as the servers
// do. An elastic fleet also sends its gossip snapshot, and the handle
// places on the same dynamic ring. Of cfg the handle reads only its own
// side: ElemSize, MaxObjectBytes, MuxConnsPerPeer and Retry.
func NewRemoteCluster(cfg Config, addrs map[ServerID]string) (*Cluster, error) {
	if len(addrs) == 0 {
		return nil, fmt.Errorf("corec: no server addresses")
	}
	client := Config{
		ElemSize:        cfg.ElemSize,
		MaxObjectBytes:  cfg.MaxObjectBytes,
		MuxConnsPerPeer: cfg.MuxConnsPerPeer,
		Retry:           cfg.Retry,
	}
	cfg = client.withDefaults()
	net := transport.NewTCPNetwork(cfg.ListenHost)
	net.ConfigureMux(cfg.MuxConnsPerPeer, 0)
	ids := make([]types.ServerID, 0, len(addrs))
	for id, addr := range addrs {
		net.AddRemote(types.ServerID(id), addr)
		ids = append(ids, types.ServerID(id))
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	ring, err := askShape(&cfg, net, ids)
	if err != nil {
		net.Close()
		return nil, err
	}
	c, err := assemble(cfg, net, nil, ring)
	if err != nil {
		net.Close()
		return nil, err
	}
	return c, nil
}

// askShape fills cfg's shape from the first of ids to answer a status
// request and, when the fleet is elastic, returns the live members of the
// first gossip snapshot one answers, recording their gossiped addresses:
// members admitted after the address map was written become dialable.
func askShape(cfg *Config, net *transport.TCPNetwork, ids []types.ServerID) ([]membership.Update, error) {
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	send := func(ctx context.Context, id types.ServerID, msg *transport.Message) (*transport.Message, error) {
		return net.Send(ctx, -1, id, msg)
	}
	from, resp, err := firstAnswer(ctx, send, ids, &transport.Message{Kind: transport.MsgStats})
	if err != nil {
		return nil, fmt.Errorf("corec: asking the fleet for its shape: %w", err)
	}
	var st server.Stats
	if err := json.Unmarshal(resp.Data, &st); err != nil {
		return nil, fmt.Errorf("corec: status of server %d: %w", from, err)
	}
	cfg.Mode, cfg.NLevel, cfg.DataShards = st.Mode, st.NLevel, st.DataShards
	cfg.Domain, cfg.Servers = st.Domain, st.Servers
	if !st.Elastic {
		return nil, nil
	}
	cfg.Membership = &MembershipConfig{}
	from, resp, err = firstAnswer(ctx, send, ids, &transport.Message{Kind: transport.MsgGossip, Flag: true})
	if err != nil {
		return nil, fmt.Errorf("corec: pulling the membership snapshot: %w", err)
	}
	updates, err := membership.DecodeUpdates(resp.Data)
	if err != nil {
		return nil, fmt.Errorf("corec: membership snapshot from server %d: %w", from, err)
	}
	var live []membership.Update
	for _, u := range updates {
		if u.State != membership.StateAlive && u.State != membership.StateSuspect {
			continue
		}
		live = append(live, u)
		if u.Addr != "" {
			net.AddRemote(u.ID, u.Addr)
		}
	}
	if len(live) == 0 {
		return nil, fmt.Errorf("corec: membership snapshot from server %d names no live members", from)
	}
	return live, nil
}

// Replace starts a fresh (empty) server under the failed server's logical
// ID — the "replacement staging server" of Section III-D. The caller then
// runs its recovery with Client.RecoverServer.
func (c *Cluster) Replace(id ServerID) (*server.Server, error) {
	c.mu.Lock()
	_, exists := c.servers[id]
	c.mu.Unlock()
	if exists {
		return nil, fmt.Errorf("corec: server %d is already running", id)
	}
	return c.startServer(id)
}

// EndTimeStep closes the time step on every member it reaches
// (Client.EndTimeStepAll), then advances the fault plan's step windows and
// lands the step's scheduled bit rot. Returns total demotions and promotions.
func (c *Cluster) EndTimeStep(ts Version) (demoted, promoted int) {
	demoted, promoted, _ = c.ctl.EndTimeStepAll(contextBackground, ts)
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

// ScrubNow runs one synchronous anti-entropy sweep over every member and
// returns the summed report (Client.Scrub: local depth everywhere, then a
// full pass everywhere).
func (c *Cluster) ScrubNow(ctx context.Context) (ScrubReport, error) {
	return c.ctl.Scrub(ctx)
}

// StorageReport sums the members' storage usage.
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
	for _, s := range c.ctl.Status(contextBackground) {
		st := s.Stats
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
		unique += int64(float64(r.ShardBytes) * policy.ErasureEfficiency(c.codec.DataShards(), c.codec.ParityShards()))
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

// serversByID snapshots the live in-process servers in ID order, not map
// order: checkpoint streams must line up run-to-run. It serves only what
// cannot be a message: the checkpoint snapshot and injected bit rot.
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

// Close shuts down every server. Every gossip agent stops before any
// server does, so no survivor probes a peer the shutdown took.
func (c *Cluster) Close() {
	c.mu.Lock()
	ids := make([]types.ServerID, 0, len(c.servers))
	for id := range c.servers {
		ids = append(ids, id)
	}
	c.mu.Unlock()
	for _, id := range ids {
		c.stopAgent(id)
	}
	for _, id := range ids {
		c.Kill(id)
	}
	if tn := c.tcpNet(); tn != nil {
		tn.Close()
	}
}
