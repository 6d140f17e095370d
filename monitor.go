package corec

import (
	"context"
	"sync"
	"time"

	"corec/internal/transport"
)

// Monitor is the cluster's System Status Monitor (Figure 7 of the paper):
// it heartbeats every staging server, detects fail-stop crashes, and —
// when auto-recovery is enabled — starts a replacement server and drives
// the configured recovery scheme, exactly as an operator (or the harness's
// scripted scheduler) would by hand.
//
// It keeps no liveness state of its own: a server is down exactly when the
// fabric's PeerHealth table says so, whether the mark came from the
// monitor's heartbeat, a client's send or a gossip death verdict.
type Monitor struct {
	cluster *Cluster
	cfg     MonitorConfig

	mu     sync.Mutex
	events []MonitorEvent
	cancel context.CancelFunc
	done   chan struct{}
}

// MonitorConfig tunes detection and reaction.
type MonitorConfig struct {
	// Interval between heartbeat rounds, which is also how long each
	// heartbeat RPC may take. Default 50ms.
	Interval time.Duration
	// AutoRecover, when set, replaces dead servers and runs recovery in
	// the configured RecoveryMode automatically.
	AutoRecover bool
	// ScrubAfterRecovery, when set, sweeps each replacement server
	// (Client.Scrub aimed at it) after its recovery finishes, so repaired
	// payloads are checksum-verified before the server is declared healthy
	// again.
	ScrubAfterRecovery bool
	// OnEvent, when non-nil, receives detection/recovery events.
	OnEvent func(MonitorEvent)
}

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
		cluster: c,
		cfg:     cfg,
		cancel:  cancel,
		done:    make(chan struct{}),
	}
	go m.run(ctx)
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

// Dead returns the servers currently marked down, in ID order.
func (m *Monitor) Dead() []ServerID {
	return m.cluster.health.DownPeers()
}

func (m *Monitor) run(ctx context.Context) {
	defer close(m.done)
	ticker := time.NewTicker(m.cfg.Interval)
	defer ticker.Stop()
	var reported map[ServerID]bool // down peers already acted on
	for {
		select {
		case <-ctx.Done():
			return
		case <-ticker.C:
			reported = m.round(ctx, reported)
		}
	}
}

// round heartbeats every member through the retry policy, so the standard
// rule marks a server that cannot be reached down and a message-level fault
// (drop, partition, timeout) marks nothing. It then acts once on each peer
// the table newly holds down, and returns the set it now holds down: a peer
// the table re-admitted drops out, so a later death is news again.
func (m *Monitor) round(ctx context.Context, reported map[ServerID]bool) map[ServerID]bool {
	c := m.cluster
	for _, id := range c.place.Members() {
		pctx, cancel := context.WithTimeout(ctx, m.cfg.Interval)
		// The verdict lands in the table; the reply itself says nothing more.
		_, _, _ = c.retry.Send(pctx, c.net, -1, id, &transport.Message{Kind: transport.MsgPing})
		cancel()
	}
	down := make(map[ServerID]bool)
	for _, id := range c.health.DownPeers() {
		down[id] = true
		if reported[id] {
			continue
		}
		m.emit(MonitorEvent{Kind: EventFailureDetected, Server: id, Time: time.Now()})
		if m.cfg.AutoRecover {
			go m.recover(ctx, id)
		}
	}
	return down
}

func (m *Monitor) recover(ctx context.Context, id ServerID) {
	c := m.cluster
	if _, err := c.Replace(id); err != nil {
		return
	}
	m.emit(MonitorEvent{Kind: EventRecoveryStarted, Server: id, Time: time.Now()})
	// The work list holds every record naming the server, writes that failed
	// over while it was down included.
	repaired, _ := c.ctl.RecoverServer(ctx, id, c.cfg.RecoveryMode)
	if m.cfg.ScrubAfterRecovery {
		// Best-effort: a failed pass (context cancelled, fabric flapping)
		// leaves the payloads for the background scrubber's next cycle.
		_, _ = c.ctl.Scrub(ctx, id)
	}
	m.emit(MonitorEvent{Kind: EventRecoveryFinished, Server: id, Time: time.Now(), Repaired: repaired})
}

func (m *Monitor) emit(ev MonitorEvent) {
	m.mu.Lock()
	m.events = append(m.events, ev)
	m.mu.Unlock()
	if m.cfg.OnEvent != nil {
		m.cfg.OnEvent(ev)
	}
}
