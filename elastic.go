package corec

import (
	"context"
	"fmt"
	"sort"
	"sync"
	"sync/atomic"

	"corec/internal/membership"
	"corec/internal/server"
	"corec/internal/topology"
	"corec/internal/transport"
	"corec/internal/types"
)

// MembershipConfig enables elastic membership: every server runs a
// SWIM-style gossip agent (see internal/membership), placement moves to a
// dynamic consistent-hash ring, and servers can Join, Drain and Leave the
// fleet at runtime. Gossip's death verdicts evict a server from the ring
// and mark it down in the fabric's PeerHealth table, the one record the
// monitor reads.
//
// The protocol's timing and dissemination are internal/membership's
// defaults, and the ring places topology.DefaultVirtualNodes virtual nodes
// per server.
type MembershipConfig struct {
	// SuspicionTicks is the refutation window, in ticks, between suspicion
	// and the death verdict. Default 3.
	SuspicionTicks int
	// Manual disables the background probe loops; tests drive the protocol
	// deterministically through Cluster.TickMembership.
	Manual bool
}

// memberEventBuffer sizes the MemberEvents channel.
const memberEventBuffer = 256

// MembershipEvent is a ring-changing membership transition observed by the
// fleet's gossip agents (see membership.Event).
type MembershipEvent = membership.Event

// MembershipEventKind is the kind of a MembershipEvent (see the Member*
// constants below).
type MembershipEventKind = membership.EventKind

// Membership event kinds, re-exported.
const (
	MemberJoined    = membership.EventJoined
	MemberSuspected = membership.EventSuspected
	MemberRefuted   = membership.EventRefuted
	MemberDied      = membership.EventDied
	MemberLeft      = membership.EventLeft
)

// elasticState is the cluster-side aggregation point for the per-server
// gossip agents: the shared placement ring, the agent registry, incarnation
// tombstone tracking for replacements, and the rebalance tallies.
type elasticState struct {
	cfg  MembershipConfig
	ring *topology.DynamicRing

	mu         sync.Mutex
	agents     map[types.ServerID]*membership.Agent
	lastInc    map[types.ServerID]uint64 // newest incarnation started or seen per id
	nextID     types.ServerID
	passes     int64           // Rebalance passes finished
	rebalanced RebalanceReport // their reports summed

	events chan MembershipEvent

	arcsMoved atomic.Int64
}

// tally adds a finished Rebalance pass's report to the cumulative counters.
func (e *elasticState) tally(rep *RebalanceReport) {
	e.mu.Lock()
	defer e.mu.Unlock()
	e.passes++
	e.rebalanced.Add(*rep)
}

func newElasticState(cfg MembershipConfig) *elasticState {
	return &elasticState{
		cfg:     cfg,
		ring:    topology.NewDynamicRing(topology.DefaultVirtualNodes),
		agents:  make(map[types.ServerID]*membership.Agent),
		lastInc: make(map[types.ServerID]uint64),
		events:  make(chan MembershipEvent, memberEventBuffer),
	}
}

// Ring returns the dynamic placement ring, or nil in static mode.
func (c *Cluster) Ring() *topology.DynamicRing {
	if c.elastic == nil {
		return nil
	}
	return c.elastic.ring
}

// MembershipAgent returns the gossip agent of a running server (nil if the
// server is down or the cluster is not elastic).
func (c *Cluster) MembershipAgent(id ServerID) *membership.Agent {
	e := c.elastic
	if e == nil {
		return nil
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.agents[types.ServerID(id)]
}

// MemberEvents returns the stream of ring-changing membership events
// (deaths, departures, joins, refutation-driven rejoins), for display:
// events overflowing the buffer are dropped — the ring and the PeerHealth
// table are authoritative.
func (c *Cluster) MemberEvents() <-chan MembershipEvent {
	if c.elastic == nil {
		return nil
	}
	return c.elastic.events
}

// TickMembership runs one gossip protocol round on every live agent, in
// server-id order. With MembershipConfig.Manual set this is the only thing
// that advances the protocol, which makes seeded chaos tests fully
// deterministic: same seed, same fault plan, same detection sequence.
func (c *Cluster) TickMembership(ctx context.Context) {
	e := c.elastic
	if e == nil {
		return
	}
	e.mu.Lock()
	ids := make([]types.ServerID, 0, len(e.agents))
	for id := range e.agents {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	agents := make([]*membership.Agent, 0, len(ids))
	for _, id := range ids {
		agents = append(agents, e.agents[id])
	}
	e.mu.Unlock()
	for _, a := range agents {
		a.Tick(ctx)
	}
}

// domainFor maps a server to its failure domain: the static topology's
// cabinet for the initial fleet, modular cabinet assignment for servers
// joined beyond it.
func (c *Cluster) domainFor(id types.ServerID) int {
	if c.top != nil && int(id) >= 0 && int(id) < c.top.NumServers() {
		return c.top.Server(id).Cabinet
	}
	return int(id) % min(c.cfg.Servers, maxCabinets)
}

// attachElastic wires a freshly started server into the membership plane:
// builds its gossip agent (incarnation above any earlier one for the same
// id), seeds its view from the ring, attaches it to the server's dispatch
// loop, joins the ring when the id is new to it, and announces a newcomer
// or a replacement to the fleet.
func (c *Cluster) attachElastic(id types.ServerID, srv *server.Server) {
	e := c.elastic
	e.mu.Lock()
	inc := uint64(0)
	last, replacing := e.lastInc[id]
	if replacing {
		inc = last + 1
	}
	e.lastInc[id] = inc
	if id >= e.nextID {
		e.nextID = id + 1
	}
	e.mu.Unlock()

	addr := ""
	tn := c.tcpNet()
	if tn != nil {
		if a, ok := tn.Addr(id); ok {
			addr = a
		}
	}
	agent := membership.NewAgent(membership.Config{
		ID:             id,
		Domain:         c.domainFor(id),
		Addr:           addr,
		Seed:           c.cfg.Seed ^ int64(uint64(int64(id)+1)*0x9e3779b97f4a7c15),
		SuspicionTicks: e.cfg.SuspicionTicks,
		Incarnation:    inc,
		OnEvent:        c.onMembershipEvent,
		OnDrain: func() {
			_, _ = c.DrainAndLeave(context.Background(), ServerID(id))
		},
		OnJoin: func() {
			if _, err := c.JoinNew(); err == nil {
				_, _ = c.Rebalance(context.Background())
			}
		},
	}, c.net)

	members := e.ring.Members()
	boot := make([]membership.Update, 0, len(members))
	peers := make([]types.ServerID, 0, len(members))
	for _, m := range members {
		if m == id {
			continue
		}
		d, _ := e.ring.Domain(m)
		var maddr string
		if tn != nil {
			if a, ok := tn.Addr(m); ok {
				maddr = a
			}
		}
		boot = append(boot, membership.Update{ID: m, State: membership.StateAlive, Domain: d, Addr: maddr})
		peers = append(peers, m)
	}
	agent.Bootstrap(boot)
	srv.AttachMembership(agent)

	e.mu.Lock()
	e.agents[id] = agent
	e.mu.Unlock()

	newcomer := !e.ring.Contains(id)
	if newcomer {
		_, arcs := e.ring.Join(id, c.domainFor(id))
		e.arcsMoved.Add(int64(len(arcs)))
		// This host changed the ring itself, so gossip echoes of the join
		// will find the ring already updated and stay silent; surface the
		// transition to MemberEvents consumers here instead.
		c.pushMemberEvent(MembershipEvent{Kind: membership.EventJoined, ID: id, Incarnation: inc, Domain: c.domainFor(id), Addr: addr})
	}
	if newcomer || replacing {
		// Announce to the established fleet so its agents flip any dead/left
		// tombstone, or a suspicion of the replaced incarnation that the
		// monitor outran, to alive without waiting for our first probe.
		agent.JoinFleet(contextBackground, peers)
	}
	if !e.cfg.Manual {
		agent.Start()
	}
}

// refreshAgentAddrs re-bootstraps every gossip agent with the TCP fabric's
// current listen addresses. Agent.Bootstrap only fills missing addresses —
// states and incarnations stay gossip-owned — so this is safe to call any
// time; NewCluster uses it because servers start (and bind) sequentially,
// leaving the earliest agents without their later peers' addresses.
func (c *Cluster) refreshAgentAddrs() {
	e := c.elastic
	tn := c.tcpNet()
	if e == nil || tn == nil {
		return
	}
	members := e.ring.Members()
	known := make([]membership.Update, 0, len(members))
	for _, m := range members {
		if addr, ok := tn.Addr(m); ok {
			d, _ := e.ring.Domain(m)
			known = append(known, membership.Update{ID: m, State: membership.StateAlive, Domain: d, Addr: addr})
		}
	}
	e.mu.Lock()
	agents := make([]*membership.Agent, 0, len(e.agents))
	for _, a := range e.agents {
		agents = append(agents, a)
	}
	e.mu.Unlock()
	sort.Slice(agents, func(i, j int) bool { return agents[i].ID() < agents[j].ID() })
	for _, a := range agents {
		a.Bootstrap(known)
	}
}

// stopAgent detaches and stops a server's gossip agent (no ring change: a
// kill must be detected by gossip, a drain updates the ring explicitly).
func (c *Cluster) stopAgent(id types.ServerID) {
	e := c.elastic
	if e == nil {
		return
	}
	e.mu.Lock()
	a := e.agents[id]
	delete(e.agents, id)
	e.mu.Unlock()
	if a != nil {
		a.Stop()
	}
}

// onMembershipEvent folds one agent's observed transition into the shared
// placement ring. Every live agent reports every transition it accepts, so
// the handler is idempotent: the first event for a transition updates the
// ring and the PeerHealth table, duplicates no-op.
func (c *Cluster) onMembershipEvent(ev MembershipEvent) {
	e := c.elastic
	if e == nil || ev.ID < 0 {
		return
	}
	switch ev.Kind {
	case membership.EventDied, membership.EventLeft:
		if !e.seen(ev.ID, ev.Incarnation) {
			// A verdict on an incarnation already replaced: agents emit
			// outside their locks, so it can arrive after the newcomer's join.
			return
		}
		if e.ring.Contains(ev.ID) {
			_, arcs := e.ring.Leave(ev.ID)
			e.arcsMoved.Add(int64(len(arcs)))
			if ev.Kind == membership.EventDied {
				// Gossip's verdict is first-hand news: sends stop paying a
				// retry budget to learn it, and the monitor recovers it.
				c.health.MarkDown(ev.ID, c.retry)
			}
			c.pushMemberEvent(ev)
		}
	case membership.EventJoined, membership.EventRefuted:
		e.seen(ev.ID, ev.Incarnation)
		if ev.Addr != "" {
			if tn := c.tcpNet(); tn != nil {
				tn.AddRemote(ev.ID, ev.Addr)
			}
		}
		// Gossip says the member is alive: stop failing fast against it.
		c.health.Admit(ev.ID)
		if !e.ring.Contains(ev.ID) {
			_, arcs := e.ring.Join(ev.ID, ev.Domain)
			e.arcsMoved.Add(int64(len(arcs)))
			c.pushMemberEvent(ev)
		}
	case membership.EventSuspected:
		// Suspicion alone never moves placement; the refutation window
		// decides between eviction and a false-positive count.
	}
}

// seen records inc as id's newest incarnation if it is one, and reports
// whether inc is at least as new as every incarnation recorded before.
func (e *elasticState) seen(id types.ServerID, inc uint64) bool {
	e.mu.Lock()
	defer e.mu.Unlock()
	last, ok := e.lastInc[id]
	if !ok || inc > last {
		e.lastInc[id] = inc
	}
	return !ok || inc >= last
}

func (c *Cluster) pushMemberEvent(ev MembershipEvent) {
	select {
	case c.elastic.events <- ev:
	default:
		// Slow or absent consumer; the ring already reflects the change.
	}
}

// Join starts a fresh, empty server under the given id and folds it into
// the fleet: ring membership, gossip announcement, background agent. Only
// the arcs adjacent to the newcomer's virtual nodes change owners; staged
// data moves when the operator (or a test) runs Rebalance. Records may still
// name an id the fleet used before, so Join then runs the replacement
// recovery: when it returns, the server holds every piece they name.
func (c *Cluster) Join(id ServerID) error {
	if c.elastic == nil {
		return fmt.Errorf("corec: Join requires elastic membership (Config.Membership)")
	}
	if _, err := c.Replace(id); err != nil {
		return err
	}
	_, err := c.ctl.RecoverServer(contextBackground, id, RecoveryAggressive)
	return err
}

// JoinNew starts a server under the lowest id never used by this cluster
// (scale-out without id bookkeeping in the caller) and returns it.
func (c *Cluster) JoinNew() (ServerID, error) {
	e := c.elastic
	if e == nil {
		return 0, fmt.Errorf("corec: JoinNew requires elastic membership (Config.Membership)")
	}
	e.mu.Lock()
	if int(e.nextID) < c.cfg.Servers {
		e.nextID = types.ServerID(c.cfg.Servers)
	}
	id := e.nextID
	e.nextID = id + 1
	e.mu.Unlock()
	if _, err := c.startServer(id); err != nil {
		return ServerID(id), err
	}
	return ServerID(id), nil
}

// Drain prepares a server for departure without losing data or redundancy:
// new writes to it are fenced (clients fail over to ring successors), its
// arcs move to the survivors, and the paced migrator re-homes its objects.
// The server keeps serving reads throughout; call Leave (or use
// DrainAndLeave) once the report shows the moves completed.
func (c *Cluster) Drain(ctx context.Context, id ServerID) (RebalanceReport, error) {
	e := c.elastic
	if e == nil {
		return RebalanceReport{}, fmt.Errorf("corec: Drain requires elastic membership (Config.Membership)")
	}
	srv := c.Server(id)
	if srv == nil {
		return RebalanceReport{}, fmt.Errorf("corec: server %d is not running", id)
	}
	srv.SetDraining(true)
	if _, arcs := e.ring.Leave(types.ServerID(id)); len(arcs) > 0 {
		e.arcsMoved.Add(int64(len(arcs)))
	}
	rep, err := c.Rebalance(ctx)
	if err != nil {
		return rep, err
	}
	if a := c.MembershipAgent(id); a != nil {
		a.Leave(ctx)
	}
	return rep, nil
}

// Leave removes a server from the fleet immediately: the ring drops its
// arcs, its gossip agent stops, and the server shuts down. Data it held
// exclusively is only safe if a Drain ran first (use DrainAndLeave).
func (c *Cluster) Leave(id ServerID) {
	var inc uint64
	hadAgent := false
	if e := c.elastic; e != nil {
		if _, arcs := e.ring.Leave(types.ServerID(id)); len(arcs) > 0 {
			e.arcsMoved.Add(int64(len(arcs)))
		}
		if a := c.MembershipAgent(id); a != nil {
			inc = a.Incarnation()
			hadAgent = true
		}
	}
	c.Kill(id) // stops the agent and shuts the server down
	if hadAgent {
		// This host removed the member itself, so gossip echoes of the Left
		// record find the ring already updated and stay silent; surface the
		// departure to MemberEvents consumers once the server is down.
		c.pushMemberEvent(MembershipEvent{Kind: membership.EventLeft, ID: types.ServerID(id), Incarnation: inc, Domain: c.domainFor(types.ServerID(id))})
	}
}

// DrainAndLeave drains a server and then removes it: the graceful scale-in
// path (and what an operator's `corec-cli drain` triggers over gossip).
func (c *Cluster) DrainAndLeave(ctx context.Context, id ServerID) (RebalanceReport, error) {
	rep, err := c.Drain(ctx, id)
	c.Leave(id)
	return rep, err
}

// Member is one entry of a fleet's gossip membership view, as pulled by
// Client.MemberSnapshot.
type Member struct {
	ID          ServerID
	State       string // alive, suspect, dead, left
	Incarnation uint64
	Domain      int
	Addr        string
}

// MemberSnapshot pulls the membership view from the first reachable server:
// every known server with state, incarnation, failure domain, and address.
// Works over any transport — the `corec-cli members` view. Errors when no
// server answers or the service does not run elastic membership.
func (cl *Client) MemberSnapshot(ctx context.Context) ([]Member, error) {
	_, resp, err := firstAnswer(ctx, cl.send, cl.cluster.place.Members(), &transport.Message{Kind: transport.MsgGossip, Flag: true})
	if err != nil {
		return nil, err
	}
	updates, err := membership.DecodeUpdates(resp.Data)
	if err != nil {
		return nil, err
	}
	out := make([]Member, len(updates))
	for i, u := range updates {
		out[i] = Member{
			ID:          ServerID(u.ID),
			State:       u.State.String(),
			Incarnation: u.Incarnation,
			Domain:      u.Domain,
			Addr:        u.Addr,
		}
	}
	return out, nil
}

// RequestDrain asks a server, over the gossip control plane, to drain and
// leave the fleet (`corec-cli drain`). The ack means the drain started; the
// handoff completes asynchronously in the host process.
func (cl *Client) RequestDrain(ctx context.Context, id ServerID) error {
	resp, err := cl.send(ctx, types.ServerID(id), &transport.Message{Kind: transport.MsgGossip, Key: "drain"})
	if err != nil {
		return err
	}
	return resp.AsError()
}

// RequestJoin asks the fleet, over the gossip control plane, to admit one
// fresh server (`corec-cli join`). Any reachable member relays the request
// to its host; the newcomer announces itself via gossip once it is up.
func (cl *Client) RequestJoin(ctx context.Context) error {
	_, _, err := firstAnswer(ctx, cl.send, cl.cluster.place.Members(), &transport.Message{Kind: transport.MsgGossip, Key: "join"})
	return err
}
