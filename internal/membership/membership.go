// Package membership implements SWIM-style gossip failure detection for the
// staging fleet: every server runs an Agent that periodically direct-probes
// one random peer, falls back to indirect probes through k proxies on
// timeout, and moves peers through an alive → suspect → dead state machine.
// Incarnation numbers let a falsely-suspected server refute the suspicion
// before the fleet evicts it, and every probe piggybacks a bounded batch of
// recent membership updates, so dissemination rides the existing transport
// frames instead of a separate broadcast channel.
//
// Agents are deterministic under test: all randomness comes from a seeded
// generator, and the probe loop is driven by Tick — the background Start
// loop just calls Tick on a timer, while chaos tests call it directly so a
// seeded FaultPlan reproduces the same detection sequence every run.
package membership

import (
	"context"
	"math/rand"
	"sort"
	"sync"
	"time"

	"corec/internal/transport"
	"corec/internal/types"
)

// State is a member's liveness state in the SWIM state machine.
type State uint8

// Member states. Left is terminal (voluntary departure, no recovery needed);
// Dead is what triggers recovery.
const (
	StateAlive State = iota
	StateSuspect
	StateDead
	StateLeft
)

// String implements fmt.Stringer.
func (s State) String() string {
	switch s {
	case StateAlive:
		return "alive"
	case StateSuspect:
		return "suspect"
	case StateDead:
		return "dead"
	case StateLeft:
		return "left"
	default:
		return "unknown"
	}
}

// Update is one disseminated membership assertion: "server ID is in State at
// Incarnation". Domain and Addr ride along so joiners learn placement and
// dialing information from gossip alone.
type Update struct {
	ID          types.ServerID
	State       State
	Incarnation uint64
	Domain      int
	Addr        string
}

// EventKind enumerates membership events an Agent reports.
type EventKind int

// Event kinds.
const (
	// EventJoined fires when a previously unknown or dead member turns alive.
	EventJoined EventKind = iota
	// EventSuspected fires on an alive → suspect transition.
	EventSuspected
	// EventRefuted fires when a suspicion is cancelled by a fresher alive
	// assertion (on the suspect itself: when it bumps its incarnation).
	EventRefuted
	// EventDied fires on a transition to dead.
	EventDied
	// EventLeft fires on a voluntary departure.
	EventLeft
)

// String implements fmt.Stringer.
func (k EventKind) String() string {
	switch k {
	case EventJoined:
		return "joined"
	case EventSuspected:
		return "suspected"
	case EventRefuted:
		return "refuted"
	case EventDied:
		return "died"
	case EventLeft:
		return "left"
	default:
		return "unknown"
	}
}

// Event is one observed membership transition.
type Event struct {
	Kind        EventKind
	ID          types.ServerID
	Incarnation uint64
	Domain      int
	Addr        string
}

// Config tunes one Agent.
type Config struct {
	// ID is the local server; Domain its failure domain (cabinet); Addr its
	// dialable address on a TCP fabric ("" in-process).
	ID     types.ServerID
	Domain int
	Addr   string
	// Seed drives all agent randomness (probe-target shuffle, proxy choice).
	Seed int64
	// SuspicionTicks is how many ticks a suspect has to refute before it is
	// declared dead. Default 3.
	SuspicionTicks int
	// Incarnation seeds the local incarnation number. A replacement for a
	// previously-dead server must start above the dead record's incarnation
	// or its alive assertions lose to the tombstone.
	Incarnation uint64
	// OnEvent, when non-nil, receives membership transitions. Called without
	// internal locks held; may call back into the Agent.
	OnEvent func(Event)
	// OnDrain, when non-nil, handles an operator drain request received over
	// gossip (corec-cli drain). Invoked on its own goroutine.
	OnDrain func()
	// OnJoin, when non-nil, handles an operator scale-out request received
	// over gossip (corec-cli join): the host is asked to admit one fresh
	// server into the fleet. Invoked on its own goroutine.
	OnJoin func()
}

// The protocol's fixed timing and dissemination.
const (
	// ProbeInterval is the background loop's tick period.
	ProbeInterval = 25 * time.Millisecond
	// ProbeTimeout bounds each direct or indirect probe RPC.
	ProbeTimeout = 10 * time.Millisecond
	// IndirectProxies is SWIM's k: how many peers relay an indirect probe
	// after a direct probe fails.
	IndirectProxies = 2
	// PiggybackLimit caps updates carried per message.
	PiggybackLimit = 8
	// RetransmitMult scales per-update retransmissions: each update rides
	// RetransmitMult * ceil(log2(n+1)) messages.
	RetransmitMult = 3
)

func (c *Config) applyDefaults() {
	if c.SuspicionTicks <= 0 {
		c.SuspicionTicks = 3
	}
}

// Member is one entry in an Agent's membership view.
type Member struct {
	ID          types.ServerID
	State       State
	Incarnation uint64
	Domain      int
	Addr        string
}

// Stats reports an Agent's cumulative detector counters.
type Stats struct {
	// Probes and IndirectProbes count probe RPCs issued.
	Probes         int64
	IndirectProbes int64
	// Suspicions counts alive→suspect transitions observed (local or gossiped).
	Suspicions int64
	// Refutations counts incarnation bumps this agent performed to cancel a
	// suspicion of itself.
	Refutations int64
	// FalsePositives counts suspicions that were later refuted rather than
	// confirmed — each one is a peer we nearly evicted wrongly.
	FalsePositives int64
	// Version is the agent's membership view version (bumped on every
	// accepted update); the cluster ring epoch is derived from these.
	Version uint64
	// Alive/Suspect/Dead/Left are current state counts (including self).
	Alive, Suspect, Dead, Left int
}

type member struct {
	state       State
	incarnation uint64
	domain      int
	addr        string
	deadline    uint64 // tick at which a suspect is declared dead
}

type queued struct {
	u     Update
	sends int
}

// Agent is one server's membership detector. All methods are safe for
// concurrent use; network sends never happen under the internal lock.
type Agent struct {
	cfg Config
	net transport.Network

	mu         sync.Mutex
	rng        *rand.Rand
	members    map[types.ServerID]*member // includes self
	queue      []queued
	probeOrder []types.ServerID
	probeIdx   int
	tick       uint64
	version    uint64
	selfInc    uint64

	probes         int64
	indirect       int64
	suspicions     int64
	refutations    int64
	falsePositives int64

	cancel context.CancelFunc
	done   chan struct{}
}

// NewAgent builds an agent; it knows only itself until Bootstrap or gossip
// teaches it peers.
func NewAgent(cfg Config, net transport.Network) *Agent {
	cfg.applyDefaults()
	a := &Agent{
		cfg:     cfg,
		net:     net,
		rng:     rand.New(rand.NewSource(cfg.Seed)),
		members: make(map[types.ServerID]*member),
		selfInc: cfg.Incarnation,
	}
	a.members[cfg.ID] = &member{state: StateAlive, incarnation: cfg.Incarnation, domain: cfg.Domain, addr: cfg.Addr}
	return a
}

// ID returns the local server id.
func (a *Agent) ID() types.ServerID { return a.cfg.ID }

// Incarnation returns the local incarnation number.
func (a *Agent) Incarnation() uint64 {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.selfInc
}

// Version returns the membership view version.
func (a *Agent) Version() uint64 {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.version
}

// Bootstrap seeds the view with known-alive peers (the initial fleet, or a
// joiner's snapshot) without generating events or gossip traffic.
func (a *Agent) Bootstrap(peers []Update) {
	a.mu.Lock()
	defer a.mu.Unlock()
	for _, u := range peers {
		if u.ID < 0 || u.ID == a.cfg.ID {
			continue
		}
		if m, ok := a.members[u.ID]; ok {
			// Re-bootstrapping an already-known peer only fills in a missing
			// address (a TCP fleet learns listen addresses as servers come
			// up); state and incarnation stay gossip-owned.
			if m.addr == "" && u.Addr != "" {
				m.addr = u.Addr
			}
			continue
		}
		a.members[u.ID] = &member{state: u.State, incarnation: u.Incarnation, domain: u.Domain, addr: u.Addr}
	}
	a.probeOrder = nil
	a.version++
}

// Members returns the current view sorted by server id.
func (a *Agent) Members() []Member {
	a.mu.Lock()
	defer a.mu.Unlock()
	out := make([]Member, 0, len(a.members))
	for id, m := range a.members {
		out = append(out, Member{ID: id, State: m.state, Incarnation: m.incarnation, Domain: m.domain, Addr: m.addr})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

// State returns a member's current state.
func (a *Agent) State(id types.ServerID) (State, bool) {
	a.mu.Lock()
	defer a.mu.Unlock()
	m, ok := a.members[id]
	if !ok {
		return StateDead, false
	}
	return m.state, true
}

// Snapshot returns the full view as updates (sorted by id), suitable for
// answering a pull or bootstrapping a joiner.
func (a *Agent) Snapshot() []Update {
	a.mu.Lock()
	defer a.mu.Unlock()
	out := make([]Update, 0, len(a.members))
	for id, m := range a.members {
		out = append(out, Update{ID: id, State: m.state, Incarnation: m.incarnation, Domain: m.domain, Addr: m.addr})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

// Stats returns cumulative detector counters and current state counts.
func (a *Agent) Stats() Stats {
	a.mu.Lock()
	defer a.mu.Unlock()
	st := Stats{
		Probes:         a.probes,
		IndirectProbes: a.indirect,
		Suspicions:     a.suspicions,
		Refutations:    a.refutations,
		FalsePositives: a.falsePositives,
		Version:        a.version,
	}
	for _, m := range a.members {
		switch m.state {
		case StateAlive:
			st.Alive++
		case StateSuspect:
			st.Suspect++
		case StateDead:
			st.Dead++
		case StateLeft:
			st.Left++
		}
	}
	return st
}

// Start launches the background probe loop. Stop with Stop.
func (a *Agent) Start() {
	ctx, cancel := context.WithCancel(context.Background())
	a.cancel = cancel
	a.done = make(chan struct{})
	go func() {
		defer close(a.done)
		ticker := time.NewTicker(ProbeInterval)
		defer ticker.Stop()
		for {
			select {
			case <-ctx.Done():
				return
			case <-ticker.C:
				a.Tick(ctx)
			}
		}
	}()
}

// Stop terminates the background loop, if running, and waits for it.
func (a *Agent) Stop() {
	if a.cancel != nil {
		a.cancel()
		<-a.done
		a.cancel = nil
	}
}

// Tick runs one protocol round: expire overdue suspicions, then probe one
// peer (direct, falling back to k indirect proxies), suspecting it if every
// path fails. Chaos tests drive Tick directly for determinism.
func (a *Agent) Tick(ctx context.Context) {
	a.mu.Lock()
	a.tick++
	var events []Event
	// Expire suspicions whose refutation window closed, in id order for
	// deterministic event sequences.
	ids := make([]types.ServerID, 0, len(a.members))
	for id := range a.members {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	for _, id := range ids {
		m := a.members[id]
		if m.state == StateSuspect && a.tick >= m.deadline {
			m.state = StateDead
			a.version++
			a.queueLocked(Update{ID: id, State: StateDead, Incarnation: m.incarnation, Domain: m.domain, Addr: m.addr})
			events = append(events, Event{Kind: EventDied, ID: id, Incarnation: m.incarnation, Domain: m.domain, Addr: m.addr})
		}
	}
	target := a.nextTargetLocked()
	var pig []byte
	var proxies []types.ServerID
	if target >= 0 {
		pig = a.takePiggybackLocked()
		proxies = a.pickProxiesLocked(target)
	}
	a.mu.Unlock()
	a.emit(events)
	if target < 0 {
		return
	}
	if data, ok := a.probe(ctx, target, transport.MsgPing, 0, pig); ok {
		a.Apply(data)
		return
	}
	// Direct probe failed: ask k proxies to probe on our behalf. Any ack —
	// the proxy reached the target — clears the target.
	acked := false
	for _, p := range proxies {
		a.mu.Lock()
		pp := a.takePiggybackLocked()
		a.mu.Unlock()
		a.mu.Lock()
		a.indirect++
		a.mu.Unlock()
		resp, err := a.send(ctx, p, &transport.Message{Kind: transport.MsgPingReq, Num: int64(target), Data: pp})
		if err != nil || resp.Kind != transport.MsgOK {
			continue
		}
		a.Apply(resp.Data)
		if resp.Flag {
			acked = true
			break
		}
	}
	if acked {
		return
	}
	a.suspect(target)
}

// probe sends one ping and applies any piggybacked updates from the
// response. Returns the response payload and success.
func (a *Agent) probe(ctx context.Context, target types.ServerID, kind transport.Kind, num int64, pig []byte) ([]byte, bool) {
	a.mu.Lock()
	a.probes++
	a.mu.Unlock()
	resp, err := a.send(ctx, target, &transport.Message{Kind: kind, Num: num, Data: pig})
	if err != nil || resp.Kind != transport.MsgOK {
		return nil, false
	}
	return resp.Data, true
}

func (a *Agent) send(ctx context.Context, to types.ServerID, req *transport.Message) (*transport.Message, error) {
	sctx, cancel := context.WithTimeout(ctx, ProbeTimeout)
	defer cancel()
	return a.net.Send(sctx, a.cfg.ID, to, req)
}

// nextTargetLocked returns the next probe target in the shuffled round-robin
// order, rebuilding (and reshuffling) the order when exhausted. Returns -1
// when the agent knows no probe-worthy peer.
func (a *Agent) nextTargetLocked() types.ServerID {
	for attempts := 0; attempts < 2; attempts++ {
		for a.probeIdx < len(a.probeOrder) {
			id := a.probeOrder[a.probeIdx]
			a.probeIdx++
			if m, ok := a.members[id]; ok && (m.state == StateAlive || m.state == StateSuspect) {
				return id
			}
		}
		// Rebuild: alive and suspect peers, shuffled with the seeded rng so
		// every peer is probed once per round in random order (SWIM's
		// round-robin randomization bounds worst-case detection time).
		a.probeOrder = a.probeOrder[:0]
		ids := make([]types.ServerID, 0, len(a.members))
		for id, m := range a.members {
			if id == a.cfg.ID || (m.state != StateAlive && m.state != StateSuspect) {
				continue
			}
			ids = append(ids, id)
		}
		sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
		a.rng.Shuffle(len(ids), func(i, j int) { ids[i], ids[j] = ids[j], ids[i] })
		a.probeOrder = ids
		a.probeIdx = 0
		if len(ids) == 0 {
			return -1
		}
	}
	return -1
}

// pickProxiesLocked selects up to k alive peers other than self and target.
func (a *Agent) pickProxiesLocked(target types.ServerID) []types.ServerID {
	var cands []types.ServerID
	for id, m := range a.members {
		if id == a.cfg.ID || id == target || m.state != StateAlive {
			continue
		}
		cands = append(cands, id)
	}
	sort.Slice(cands, func(i, j int) bool { return cands[i] < cands[j] })
	a.rng.Shuffle(len(cands), func(i, j int) { cands[i], cands[j] = cands[j], cands[i] })
	if len(cands) > IndirectProxies {
		cands = cands[:IndirectProxies]
	}
	return cands
}

// suspect marks a peer suspected after all probe paths failed.
func (a *Agent) suspect(target types.ServerID) {
	a.mu.Lock()
	var events []Event
	if m, ok := a.members[target]; ok && m.state == StateAlive {
		m.state = StateSuspect
		m.deadline = a.tick + uint64(a.cfg.SuspicionTicks)
		a.suspicions++
		a.version++
		a.queueLocked(Update{ID: target, State: StateSuspect, Incarnation: m.incarnation, Domain: m.domain, Addr: m.addr})
		events = append(events, Event{Kind: EventSuspected, ID: target, Incarnation: m.incarnation, Domain: m.domain, Addr: m.addr})
	}
	a.mu.Unlock()
	a.emit(events)
}

// Apply decodes and applies a batch of gossiped updates (piggybacked on any
// message), emitting events for accepted transitions.
func (a *Agent) Apply(data []byte) {
	if len(data) == 0 {
		return
	}
	updates, err := DecodeUpdates(data)
	if err != nil {
		return
	}
	a.mu.Lock()
	var events []Event
	for _, u := range updates {
		events = append(events, a.applyLocked(u)...)
	}
	a.mu.Unlock()
	a.emit(events)
}

// applyLocked merges one update under SWIM precedence rules and returns any
// resulting events. Accepted updates are re-queued for further
// dissemination.
func (a *Agent) applyLocked(u Update) []Event {
	if u.ID < 0 {
		return nil
	}
	if u.ID == a.cfg.ID {
		// Someone thinks we are suspect or dead. Refute: bump our
		// incarnation past theirs and gossip a fresher alive assertion.
		if (u.State == StateSuspect || u.State == StateDead) && u.Incarnation >= a.selfInc {
			a.selfInc = u.Incarnation + 1
			self := a.members[a.cfg.ID]
			self.incarnation = a.selfInc
			self.state = StateAlive
			a.refutations++
			a.version++
			a.queueLocked(Update{ID: a.cfg.ID, State: StateAlive, Incarnation: a.selfInc, Domain: a.cfg.Domain, Addr: a.cfg.Addr})
			return []Event{{Kind: EventRefuted, ID: a.cfg.ID, Incarnation: a.selfInc, Domain: a.cfg.Domain, Addr: a.cfg.Addr}}
		}
		return nil
	}
	m, known := a.members[u.ID]
	if !known {
		a.members[u.ID] = &member{state: u.State, incarnation: u.Incarnation, domain: u.Domain, addr: u.Addr}
		a.probeOrder = nil // fold the newcomer into the probe rotation
		a.version++
		a.queueLocked(u)
		switch u.State {
		case StateAlive:
			return []Event{{Kind: EventJoined, ID: u.ID, Incarnation: u.Incarnation, Domain: u.Domain, Addr: u.Addr}}
		case StateDead:
			return []Event{{Kind: EventDied, ID: u.ID, Incarnation: u.Incarnation, Domain: u.Domain, Addr: u.Addr}}
		case StateLeft:
			return []Event{{Kind: EventLeft, ID: u.ID, Incarnation: u.Incarnation, Domain: u.Domain, Addr: u.Addr}}
		}
		return nil
	}
	switch u.State {
	case StateAlive:
		// Alive{inc} overrides any state with a strictly older incarnation —
		// including dead/left, which is how a replacement or rejoining server
		// (bootstrapped above the tombstone's incarnation) re-enters.
		if u.Incarnation <= m.incarnation {
			return nil
		}
		prev := m.state
		m.state = StateAlive
		m.incarnation = u.Incarnation
		m.domain = u.Domain
		if u.Addr != "" {
			m.addr = u.Addr
		}
		a.version++
		a.queueLocked(u)
		switch prev {
		case StateSuspect:
			// The suspicion was wrong: the member proved itself fresher.
			a.falsePositives++
			return []Event{{Kind: EventRefuted, ID: u.ID, Incarnation: u.Incarnation, Domain: u.Domain, Addr: u.Addr}}
		case StateDead, StateLeft:
			a.probeOrder = nil
			return []Event{{Kind: EventJoined, ID: u.ID, Incarnation: u.Incarnation, Domain: u.Domain, Addr: u.Addr}}
		default:
			return nil
		}
	case StateSuspect:
		// Suspect{inc} overrides alive{inc' <= inc} and refreshes an existing
		// suspicion's incarnation.
		if m.state == StateAlive && u.Incarnation >= m.incarnation {
			m.state = StateSuspect
			m.incarnation = u.Incarnation
			m.deadline = a.tick + uint64(a.cfg.SuspicionTicks)
			a.suspicions++
			a.version++
			a.queueLocked(u)
			return []Event{{Kind: EventSuspected, ID: u.ID, Incarnation: u.Incarnation, Domain: m.domain, Addr: m.addr}}
		}
		if m.state == StateSuspect && u.Incarnation > m.incarnation {
			m.incarnation = u.Incarnation
			a.queueLocked(u)
		}
		return nil
	case StateDead, StateLeft:
		// Dead/left override alive and suspect at the same or newer
		// incarnation; a fresher alive assertion can still revive later.
		if (m.state == StateDead || m.state == StateLeft) || u.Incarnation < m.incarnation {
			return nil
		}
		m.state = u.State
		m.incarnation = u.Incarnation
		a.version++
		a.queueLocked(u)
		kind := EventDied
		if u.State == StateLeft {
			kind = EventLeft
		}
		return []Event{{Kind: kind, ID: u.ID, Incarnation: u.Incarnation, Domain: m.domain, Addr: m.addr}}
	}
	return nil
}

// queueLocked enqueues an update for piggybacked dissemination, replacing
// any queued update about the same member (the newest assertion wins).
func (a *Agent) queueLocked(u Update) {
	for i := range a.queue {
		if a.queue[i].u.ID == u.ID {
			a.queue[i] = queued{u: u}
			return
		}
	}
	a.queue = append(a.queue, queued{u: u})
}

// maxSendsLocked is the per-update retransmit budget:
// RetransmitMult * ceil(log2(n+1)), SWIM's dissemination bound.
func (a *Agent) maxSendsLocked() int {
	n := len(a.members)
	lg := 0
	for v := n + 1; v > 1; v >>= 1 {
		lg++
	}
	if lg < 1 {
		lg = 1
	}
	return RetransmitMult * lg
}

// takePiggybackLocked selects up to PiggybackLimit queued updates (fewest
// sends first, so fresh news spreads fastest), charges their send counts,
// and drops exhausted entries. Returns the encoded batch, or nil.
func (a *Agent) takePiggybackLocked() []byte {
	if len(a.queue) == 0 {
		return nil
	}
	sort.SliceStable(a.queue, func(i, j int) bool {
		if a.queue[i].sends != a.queue[j].sends {
			return a.queue[i].sends < a.queue[j].sends
		}
		return a.queue[i].u.ID < a.queue[j].u.ID
	})
	n := len(a.queue)
	if n > PiggybackLimit {
		n = PiggybackLimit
	}
	batch := make([]Update, 0, n)
	for i := 0; i < n; i++ {
		batch = append(batch, a.queue[i].u)
		a.queue[i].sends++
	}
	max := a.maxSendsLocked()
	kept := a.queue[:0]
	for _, q := range a.queue {
		if q.sends < max {
			kept = append(kept, q)
		}
	}
	a.queue = kept
	if len(batch) == 0 {
		return nil
	}
	return EncodeUpdates(batch)
}

// Piggyback returns an encoded batch of pending updates for embedding in an
// outgoing message (charges retransmit counts).
func (a *Agent) Piggyback() []byte {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.takePiggybackLocked()
}

// HandleMessage processes one membership-plane request (MsgPing, MsgPingReq,
// MsgGossip) and returns the response. The server's dispatch loop routes
// these kinds here when an agent is attached.
func (a *Agent) HandleMessage(ctx context.Context, req *transport.Message) *transport.Message {
	switch req.Kind {
	case transport.MsgPing:
		a.Apply(req.Data)
		return &transport.Message{Kind: transport.MsgOK, Data: a.Piggyback(), Num: int64(a.Version())}
	case transport.MsgPingReq:
		// Probe the target on the requester's behalf; Flag reports whether
		// the target acked (our view of it, not the requester's).
		a.Apply(req.Data)
		target := types.ServerID(req.Num)
		pig := a.Piggyback()
		data, ok := a.probe(ctx, target, transport.MsgPing, 0, pig)
		if ok {
			a.Apply(data)
		}
		return &transport.Message{Kind: transport.MsgOK, Flag: ok, Data: a.Piggyback()}
	case transport.MsgGossip:
		if req.Key == "drain" {
			// Operator control plane: fence and hand off (corec-cli drain).
			if cb := a.cfg.OnDrain; cb != nil {
				go cb()
			}
			return transport.Ok()
		}
		if req.Key == "join" {
			// Operator control plane: admit one fresh server (corec-cli
			// join). Async like drain — the newcomer announces itself over
			// gossip once up, so the ack only means "accepted".
			if cb := a.cfg.OnJoin; cb != nil {
				go cb()
				return transport.Ok()
			}
			return transport.Errf("membership: host cannot scale out")
		}
		a.Apply(req.Data)
		if req.Flag {
			// Pull: return the full snapshot (anti-entropy sync for joiners
			// and the CLI members view).
			return &transport.Message{Kind: transport.MsgOK, Data: EncodeUpdates(a.Snapshot()), Num: int64(a.Version())}
		}
		return &transport.Message{Kind: transport.MsgOK, Data: a.Piggyback(), Num: int64(a.Version())}
	default:
		return transport.Errf("membership: unexpected kind %v", req.Kind)
	}
}

// JoinFleet announces this agent to the given peers and pulls their views:
// the join path for a server entering an established fleet. Best effort —
// one reachable peer suffices, gossip spreads the rest.
func (a *Agent) JoinFleet(ctx context.Context, peers []types.ServerID) int {
	a.mu.Lock()
	self := Update{ID: a.cfg.ID, State: StateAlive, Incarnation: a.selfInc, Domain: a.cfg.Domain, Addr: a.cfg.Addr}
	a.queueLocked(self)
	a.mu.Unlock()
	reached := 0
	for _, p := range peers {
		if p == a.cfg.ID {
			continue
		}
		resp, err := a.send(ctx, p, &transport.Message{
			Kind: transport.MsgGossip,
			Flag: true,
			Data: EncodeUpdates([]Update{self}),
		})
		if err != nil || resp.Kind != transport.MsgOK {
			continue
		}
		a.Apply(resp.Data)
		reached++
	}
	return reached
}

// Leave broadcasts a voluntary departure (terminal: peers mark us left, no
// recovery is triggered). Called at the end of a drain.
func (a *Agent) Leave(ctx context.Context) {
	a.mu.Lock()
	a.selfInc++
	self := a.members[a.cfg.ID]
	self.incarnation = a.selfInc
	self.state = StateLeft
	left := Update{ID: a.cfg.ID, State: StateLeft, Incarnation: a.selfInc, Domain: a.cfg.Domain, Addr: a.cfg.Addr}
	var peers []types.ServerID
	for id, m := range a.members {
		if id != a.cfg.ID && m.state == StateAlive {
			peers = append(peers, id)
		}
	}
	sort.Slice(peers, func(i, j int) bool { return peers[i] < peers[j] })
	a.mu.Unlock()
	data := EncodeUpdates([]Update{left})
	for _, p := range peers {
		// Best effort: unreachable peers learn of the departure via gossip
		// from the ones we did reach.
		_, _ = a.send(ctx, p, &transport.Message{Kind: transport.MsgGossip, Data: data})
	}
}

func (a *Agent) emit(events []Event) {
	if a.cfg.OnEvent == nil {
		return
	}
	for _, ev := range events {
		a.cfg.OnEvent(ev)
	}
}
