package corec

import (
	"context"
	"sort"
	"sync"
	"time"

	"corec/internal/metrics"
	"corec/internal/recovery"
	"corec/internal/transport"
	"corec/internal/types"
)

// Monitor is the cluster's System Status Monitor (Figure 7 of the paper):
// it heartbeats every staging server, detects fail-stop crashes, and —
// when auto-recovery is enabled — starts a replacement server and drives
// the configured recovery scheme, exactly as an operator (or the harness's
// scripted scheduler) would by hand.
type Monitor struct {
	cluster *Cluster
	cfg     MonitorConfig

	mu       sync.Mutex
	suspects map[types.ServerID]int
	dead     map[types.ServerID]bool
	events   []MonitorEvent
	cancel   context.CancelFunc
	done     chan struct{}
}

// MonitorConfig tunes detection and reaction.
type MonitorConfig struct {
	// Interval between heartbeat rounds, which is also how long each
	// heartbeat RPC may take. Default 50ms.
	Interval time.Duration
	// AutoRecover, when set, replaces dead servers and runs recovery in
	// the configured RecoveryMode automatically.
	AutoRecover bool
	// ScrubAfterRecovery, when set, runs one anti-entropy scrub pass on
	// each replacement server after its recovery and reroute
	// reconciliation finish, so repaired payloads are checksum-verified
	// before the server is declared healthy again.
	ScrubAfterRecovery bool
	// OnEvent, when non-nil, receives detection/recovery events.
	OnEvent func(MonitorEvent)
}

// suspectThreshold is how many consecutive missed heartbeats declare a
// server dead.
const suspectThreshold = 2

// MonitorEventKind enumerates monitor events.
type MonitorEventKind int

// Monitor event kinds.
const (
	// EventFailureDetected fires when a server is declared dead.
	EventFailureDetected MonitorEventKind = iota
	// EventRecoveryStarted fires when a replacement joins.
	EventRecoveryStarted
	// EventRecoveryFinished fires when the replacement's repair completes.
	EventRecoveryFinished
)

// String implements fmt.Stringer.
func (k MonitorEventKind) String() string {
	switch k {
	case EventRecoveryStarted:
		return "recovery-started"
	case EventRecoveryFinished:
		return "recovery-finished"
	default:
		return "failure-detected"
	}
}

// MonitorEvent records one detection or recovery action.
type MonitorEvent struct {
	Kind     MonitorEventKind
	Server   ServerID
	Time     time.Time
	Repaired int // objects repaired (EventRecoveryFinished only)
}

// StartMonitor begins heartbeating. Stop it with Monitor.Stop; it also
// stops when the cluster closes its last server (heartbeats simply find
// nothing to probe).
func (c *Cluster) StartMonitor(cfg MonitorConfig) *Monitor {
	if cfg.Interval <= 0 {
		cfg.Interval = 50 * time.Millisecond
	}
	ctx, cancel := context.WithCancel(context.Background())
	m := &Monitor{
		cluster:  c,
		cfg:      cfg,
		suspects: make(map[types.ServerID]int),
		dead:     make(map[types.ServerID]bool),
		cancel:   cancel,
		done:     make(chan struct{}),
	}
	if c.elastic != nil {
		// Elastic mode: gossip already detects failures fleet-wide; the
		// monitor keeps only its reaction role, consuming membership events
		// instead of running its own heartbeat sweep.
		go m.runElastic(ctx)
	} else {
		go m.run(ctx)
	}
	return m
}

// Stop terminates the heartbeat loop and waits for it to exit.
func (m *Monitor) Stop() {
	m.cancel()
	<-m.done
}

// Events returns a copy of the recorded events.
func (m *Monitor) Events() []MonitorEvent {
	m.mu.Lock()
	defer m.mu.Unlock()
	return append([]MonitorEvent(nil), m.events...)
}

// Dead returns the servers currently believed dead.
func (m *Monitor) Dead() []ServerID {
	m.mu.Lock()
	defer m.mu.Unlock()
	out := make([]ServerID, 0, len(m.dead))
	for id := range m.dead {
		out = append(out, ServerID(id))
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

func (m *Monitor) run(ctx context.Context) {
	defer close(m.done)
	ticker := time.NewTicker(m.cfg.Interval)
	defer ticker.Stop()
	for {
		select {
		case <-ctx.Done():
			return
		case <-ticker.C:
			m.probeAll(ctx)
		}
	}
}

func (m *Monitor) probeAll(ctx context.Context) {
	c := m.cluster
	for i := 0; i < c.cfg.Servers; i++ {
		id := types.ServerID(i)
		probeCtx, cancel := context.WithTimeout(ctx, m.cfg.Interval)
		resp, err := c.net.Send(probeCtx, -1, id, &transport.Message{Kind: transport.MsgPing})
		cancel()
		alive := err == nil && resp.Kind == transport.MsgOK
		m.mu.Lock()
		if alive {
			m.suspects[id] = 0
			if m.dead[id] {
				// A replacement joined outside the monitor (manual
				// Replace); clear the record.
				delete(m.dead, id)
			}
			m.mu.Unlock()
			continue
		}
		if m.dead[id] {
			m.mu.Unlock()
			continue
		}
		m.suspects[id]++
		declared := m.suspects[id] >= suspectThreshold
		if declared {
			m.dead[id] = true
		}
		m.mu.Unlock()
		if declared {
			m.emit(MonitorEvent{Kind: EventFailureDetected, Server: ServerID(id), Time: time.Now()})
			if m.cfg.AutoRecover {
				go m.recover(ctx, id)
			}
		}
	}
}

// runElastic is the membership-event consumer loop: deaths reported by the
// gossip fleet trigger the same detection event and (optional) recovery as
// a heartbeat verdict would; voluntary departures and refuted suspicions
// need no reaction beyond bookkeeping.
func (m *Monitor) runElastic(ctx context.Context) {
	defer close(m.done)
	events := m.cluster.MemberEvents()
	for {
		select {
		case <-ctx.Done():
			return
		case ev := <-events:
			m.handleMemberEvent(ctx, ev)
		}
	}
}

func (m *Monitor) handleMemberEvent(ctx context.Context, ev MembershipEvent) {
	id := ev.ID
	switch ev.Kind {
	case MemberDied:
		m.mu.Lock()
		already := m.dead[id]
		m.dead[id] = true
		m.mu.Unlock()
		if already {
			return
		}
		m.emit(MonitorEvent{Kind: EventFailureDetected, Server: ServerID(id), Time: time.Now()})
		if m.cfg.AutoRecover {
			go m.recover(ctx, id)
		}
	case MemberJoined, MemberRefuted:
		m.mu.Lock()
		delete(m.dead, id)
		m.suspects[id] = 0
		m.mu.Unlock()
	case MemberLeft:
		// Voluntary departure after a drain: data already moved, nothing to
		// recover. Clear any stale death record for the id.
		m.mu.Lock()
		delete(m.dead, id)
		m.mu.Unlock()
	}
}

func (m *Monitor) recover(ctx context.Context, id types.ServerID) {
	srv, err := m.cluster.Replace(ServerID(id))
	if err != nil {
		return
	}
	m.emit(MonitorEvent{Kind: EventRecoveryStarted, Server: ServerID(id), Time: time.Now()})
	mode := recovery.Lazy
	if m.cluster.cfg.RecoveryMode == RecoveryAggressive {
		mode = recovery.Aggressive
	}
	repaired, _ := srv.RunRecovery(ctx, mode)
	m.reconcileReroutes(ctx, id)
	if m.cfg.ScrubAfterRecovery {
		// Best-effort: a failed pass (context cancelled, fabric flapping)
		// leaves the payloads for the background scrubber's next cycle.
		_, _ = srv.ScrubOnce(ctx)
	}
	m.mu.Lock()
	delete(m.dead, id)
	m.suspects[id] = 0
	m.mu.Unlock()
	m.emit(MonitorEvent{Kind: EventRecoveryFinished, Server: ServerID(id), Time: time.Now(), Repaired: repaired})
}

// reconcileReroutes drains the write-failover log for the recovered
// server: every put that was rerouted away while it was down is replayed
// as a recover instruction, so the server re-fetches the object from its
// new primary and the directory's ownership view converges promptly
// instead of waiting for lazy on-access repair.
func (m *Monitor) reconcileReroutes(ctx context.Context, id types.ServerID) {
	c := m.cluster
	for _, r := range c.takeReroutesFrom(ServerID(id)) {
		resp, err := c.net.Send(ctx, -1, id, &transport.Message{Kind: transport.MsgRecover, Var: r.ID.Var, Box: r.ID.Box})
		if err != nil || resp.AsError() != nil {
			// The server went down again (or the fabric is misbehaving);
			// requeue the reroute so a later recovery retries it.
			c.recordRerouteQuiet(r)
			continue
		}
		c.col.AddCounter(metrics.ReconcileCount, 1)
	}
}

func (m *Monitor) emit(ev MonitorEvent) {
	m.mu.Lock()
	m.events = append(m.events, ev)
	m.mu.Unlock()
	if m.cfg.OnEvent != nil {
		m.cfg.OnEvent(ev)
	}
}
