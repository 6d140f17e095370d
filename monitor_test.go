package corec

import (
	"bytes"
	"context"
	"fmt"
	"sync"
	"testing"
	"time"

	"corec/internal/failure"
	"corec/internal/types"
)

func waitForEvent(t *testing.T, m *Monitor, kind MonitorEventKind, server ServerID, timeout time.Duration) MonitorEvent {
	t.Helper()
	var found MonitorEvent
	waitUntil(t, timeout, fmt.Sprintf("event %v for server %d (events so far: %+v)", kind, server, m.Events()), func() bool {
		for _, ev := range m.Events() {
			if ev.Kind == kind && ev.Server == server {
				found = ev
				return true
			}
		}
		return false
	})
	return found
}

func TestMonitorDetectsFailure(t *testing.T) {
	c := testCluster(t, PolicyReplicate)
	m := c.StartMonitor(MonitorConfig{Interval: 10 * time.Millisecond})
	defer m.Stop()

	c.Kill(4)
	ev := waitForEvent(t, m, EventFailureDetected, 4, 3*time.Second)
	if ev.Server != 4 {
		t.Fatalf("wrong victim: %+v", ev)
	}
	dead := m.Dead()
	if len(dead) != 1 || dead[0] != 4 {
		t.Fatalf("Dead() = %v", dead)
	}
}

func TestMonitorAutoRecovery(t *testing.T) {
	cfg := DefaultConfig(8)
	cfg.Mode = PolicyErasure
	cfg.MTBF = 400 * time.Millisecond // lazy deadline 100ms: fast test
	c, err := NewCluster(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(c.Close)
	cl := c.NewClient()
	ctx := context.Background()
	var boxes []Box
	for i := int64(0); i < 8; i++ {
		b := Box3D(i*8, 0, 0, i*8+8, 8, 8)
		boxes = append(boxes, b)
		if err := cl.Put(ctx, "mon", b, 1, regionData(t, b, 8, 300+i)); err != nil {
			t.Fatal(err)
		}
	}

	var evMu sync.Mutex
	var events []MonitorEvent
	m := c.StartMonitor(MonitorConfig{
		Interval:    10 * time.Millisecond,
		AutoRecover: true,
		OnEvent: func(ev MonitorEvent) {
			evMu.Lock()
			events = append(events, ev)
			evMu.Unlock()
		},
	})
	defer m.Stop()

	c.Kill(2)
	fin := waitForEvent(t, m, EventRecoveryFinished, 2, 5*time.Second)
	if fin.Repaired == 0 {
		t.Fatal("auto recovery repaired nothing")
	}
	if !c.Alive(2) {
		t.Fatal("server 2 not alive after auto recovery")
	}
	if len(m.Dead()) != 0 {
		t.Fatalf("Dead() = %v after recovery", m.Dead())
	}
	// Data intact after the full detect->replace->repair cycle.
	for i, b := range boxes {
		got, err := cl.Get(ctx, "mon", b, 1)
		if err != nil {
			t.Fatalf("read %d: %v", i, err)
		}
		if !bytes.Equal(got, regionData(t, b, 8, 300+int64(i))) {
			t.Fatalf("read %d corrupted", i)
		}
	}
	// Callback saw the full event sequence.
	evMu.Lock()
	n := len(events)
	evMu.Unlock()
	if n < 3 {
		t.Fatalf("OnEvent saw %d events, want >= 3", n)
	}
}

func TestMonitorClearsManualReplacement(t *testing.T) {
	c := testCluster(t, PolicyReplicate)
	m := c.StartMonitor(MonitorConfig{Interval: 10 * time.Millisecond})
	defer m.Stop()
	c.Kill(1)
	waitForEvent(t, m, EventFailureDetected, 1, 3*time.Second)
	if _, err := c.Replace(1); err != nil {
		t.Fatal(err)
	}
	waitUntil(t, 2*time.Second, "monitor to clear the manually replaced server", func() bool {
		return len(m.Dead()) == 0
	})
}

// TestMonitorIgnoresMessageFaults: a partition between the monitor and a
// live server is a message-level fault, not a crash. However many
// heartbeats it eats, the server is never declared dead, so auto-recovery
// never tries to replace a server that is still running.
func TestMonitorIgnoresMessageFaults(t *testing.T) {
	cfg := DefaultConfig(8)
	cfg.Mode = PolicyReplicate
	cfg.FaultPlan = &failure.FaultPlan{} // quiet injector: manual partitions only
	c, err := NewCluster(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(c.Close)
	m := c.StartMonitor(MonitorConfig{Interval: 10 * time.Millisecond, AutoRecover: true})
	defer m.Stop()

	// Each round's heartbeat to server 5 spends the whole retry budget on
	// the partition; hold it for about 30 rounds.
	heal := c.Faults().Partition([]types.ServerID{-1}, []types.ServerID{5})
	refused := int64(30 * c.RetryPolicy().MaxAttempts)
	waitUntil(t, 10*time.Second, "30 rounds of partitioned heartbeats", func() bool {
		return c.Faults().Stats().Partitioned >= refused
	})
	heal()
	for _, ev := range m.Events() {
		if ev.Server == 5 {
			t.Fatalf("partitioned live server 5 got a monitor event: %+v", ev)
		}
	}
	if dead := m.Dead(); len(dead) != 0 {
		t.Fatalf("Dead() = %v after a partition", dead)
	}
}

func TestMonitorEventKindString(t *testing.T) {
	if EventFailureDetected.String() != "failure-detected" ||
		EventRecoveryStarted.String() != "recovery-started" ||
		EventRecoveryFinished.String() != "recovery-finished" {
		t.Fatal("event kind strings wrong")
	}
}

func TestMonitorStopTerminates(t *testing.T) {
	c := testCluster(t, PolicyNone)
	m := c.StartMonitor(MonitorConfig{Interval: 5 * time.Millisecond})
	done := make(chan struct{})
	go func() {
		m.Stop()
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(2 * time.Second):
		t.Fatal("Stop hung")
	}
}
