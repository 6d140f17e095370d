package failure

import (
	"testing"
	"time"

	"corec/internal/types"
)

// fakeCluster records injector actions.
type fakeCluster struct {
	dead      map[types.ServerID]bool
	kills     []types.ServerID
	recovers  []types.ServerID
	numTotals int
}

func newFakeCluster(n int) *fakeCluster {
	return &fakeCluster{dead: make(map[types.ServerID]bool), numTotals: n}
}

func (f *fakeCluster) Kill(id types.ServerID) {
	f.dead[id] = true
	f.kills = append(f.kills, id)
}

func (f *fakeCluster) Recover(id types.ServerID) {
	delete(f.dead, id)
	f.recovers = append(f.recovers, id)
}

func (f *fakeCluster) Alive(id types.ServerID) bool { return !f.dead[id] }

func TestScheduleFiresInOrder(t *testing.T) {
	c := newFakeCluster(8)
	s := NewSchedule([]Event{
		{TimeStep: 8, Kind: Recover, Server: 2},
		{TimeStep: 4, Kind: Kill, Server: 2},
	})
	if fired := s.Advance(3, c); len(fired) != 0 {
		t.Fatalf("events fired early: %v", fired)
	}
	if fired := s.Advance(4, c); len(fired) != 1 || fired[0].Kind != Kill {
		t.Fatalf("kill not fired at ts=4: %v", fired)
	}
	if c.Alive(2) {
		t.Fatal("server alive after kill")
	}
	if fired := s.Advance(10, c); len(fired) != 1 || fired[0].Kind != Recover {
		t.Fatalf("recover not fired: %v", fired)
	}
	if !c.Alive(2) {
		t.Fatal("server dead after recover")
	}
	if s.Remaining() != 0 {
		t.Fatal("events remaining after full advance")
	}
}

func TestScheduleIdempotentEvents(t *testing.T) {
	c := newFakeCluster(8)
	s := NewSchedule([]Event{
		{TimeStep: 1, Kind: Kill, Server: 3},
		{TimeStep: 2, Kind: Kill, Server: 3},    // already dead: no-op
		{TimeStep: 3, Kind: Recover, Server: 5}, // already alive: no-op
	})
	s.Advance(5, c)
	if len(c.kills) != 1 || len(c.recovers) != 0 {
		t.Fatalf("kills=%v recovers=%v", c.kills, c.recovers)
	}
}

func TestExponentialMeanRoughlyMTBF(t *testing.T) {
	e := NewExponential(time.Second, 1)
	var sum time.Duration
	const n = 20000
	for i := 0; i < n; i++ {
		sum += e.Next()
	}
	mean := sum / n
	if mean < 900*time.Millisecond || mean > 1100*time.Millisecond {
		t.Fatalf("exponential mean = %v, want ~1s", mean)
	}
}

func TestExponentialPositive(t *testing.T) {
	e := NewExponential(time.Millisecond, 2)
	for i := 0; i < 1000; i++ {
		if e.Next() <= 0 {
			t.Fatal("non-positive interval")
		}
	}
}

func TestExponentialPanicsOnBadMTBF(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("MTBF=0 accepted")
		}
	}()
	NewExponential(0, 1)
}

func TestPickVictimSkipsDead(t *testing.T) {
	c := newFakeCluster(4)
	c.dead[0], c.dead[1], c.dead[2] = true, true, true
	e := NewExponential(time.Second, 3)
	for i := 0; i < 10; i++ {
		if v := e.PickVictim(c, 4); v != 3 {
			t.Fatalf("picked dead server %d", v)
		}
	}
	c.dead[3] = true
	if v := e.PickVictim(c, 4); v != types.InvalidServer {
		t.Fatalf("picked %d from an all-dead cluster", v)
	}
}

func TestEventKindString(t *testing.T) {
	if Kill.String() != "kill" || Recover.String() != "recover" {
		t.Fatal("event kind strings wrong")
	}
}
