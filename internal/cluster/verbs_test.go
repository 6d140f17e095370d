package cluster

import (
	"bytes"
	"context"
	"testing"
	"time"

	"corec"
)

// verbFleet is one kind of staging fleet under the fleet-verb checks: the
// cluster handle the verbs are called on, and the fault injection and
// process lifecycle that stay outside the control plane.
type verbFleet struct {
	c       *corec.Cluster
	kill    func(t *testing.T, id corec.ServerID)
	restart func(t *testing.T, id corec.ServerID)
}

// TestFleetVerbsOnEveryFleet runs one table of fleet-verb checks against
// the three fleets the verbs serve: an in-process cluster, a single-process
// TCP cluster, and a multi-process fleet reached through a remote handle.
// Each verb is the same message path on all three, so each check holds on
// all three. Every fleet codes RS(3+1) with one replica, whose storage
// efficiency clears the default constraint S, so fresh writes stay
// replicated until a step boundary cools them.
func TestFleetVerbsOnEveryFleet(t *testing.T) {
	for _, fab := range []string{"inproc", "tcp"} {
		t.Run(fab, func(t *testing.T) {
			cfg := corec.DefaultConfig(8)
			cfg.Transport = fab
			cfg.ElemSize = 1
			c, err := corec.NewCluster(cfg)
			if err != nil {
				t.Fatal(err)
			}
			defer c.Close()
			checkFleetVerbs(t, verbFleet{
				c:    c,
				kill: func(t *testing.T, id corec.ServerID) { c.Kill(id) },
				restart: func(t *testing.T, id corec.ServerID) {
					if _, err := c.Replace(id); err != nil {
						t.Fatal(err)
					}
				},
			})
		})
	}
	t.Run("processes", func(t *testing.T) {
		if testing.Short() {
			t.Skip("spawns OS processes")
		}
		ctx, cancel := context.WithTimeout(context.Background(), 3*time.Minute)
		defer cancel()
		fleet, err := Start(ctx, Config{Servers: 4, Procs: 4, DataShards: 3})
		if err != nil {
			t.Fatal(err)
		}
		defer fleet.Stop()
		c, err := fleet.Client()
		if err != nil {
			t.Fatal(err)
		}
		defer c.Close()
		checkFleetVerbs(t, verbFleet{
			c: c,
			kill: func(t *testing.T, id corec.ServerID) {
				if err := fleet.Kill(fleet.ProcFor(id)); err != nil {
					t.Fatal(err)
				}
			},
			restart: func(t *testing.T, id corec.ServerID) {
				if err := fleet.Restart(ctx, fleet.ProcFor(id)); err != nil {
					t.Fatal(err)
				}
			},
		})
	})
}

// statusSum adds up the members' own status records the way StorageReport
// reports them, and returns each member's record; a member that does not
// answer fails the test.
func statusSum(t *testing.T, cl *corec.Client) (sum corec.StorageReport, members map[corec.ServerID]corec.ServerStatus) {
	t.Helper()
	members = make(map[corec.ServerID]corec.ServerStatus)
	for _, s := range cl.Status(context.Background()) {
		if !s.Alive {
			t.Fatalf("server %d did not answer its status poll", s.ID)
		}
		sum.ObjectBytes += s.Stats.ObjectBytes
		sum.ReplicaBytes += s.Stats.ReplicaBytes
		sum.ShardBytes += s.Stats.ShardBytes
		sum.Replicated += s.Stats.Replicated
		sum.Encoded += s.Stats.Encoded
		members[s.ID] = s
	}
	return sum, members
}

func checkFleetVerbs(t *testing.T, f verbFleet) {
	ctx := context.Background()
	cl := f.c.NewClient()
	const objects, size = 32, 4096
	box := func(i int64) corec.Box { return corec.Box{Lo: []int64{i * size}, Hi: []int64{(i + 1) * size}} }
	payload := func(i int64, v corec.Version) []byte { return Payload(opSeed("verbs", i, v), size) }
	putAll := func(v corec.Version) {
		t.Helper()
		for i := int64(0); i < objects; i++ {
			if err := cl.Put(ctx, "verbs", box(i), v, payload(i, v)); err != nil {
				t.Fatalf("put %d v%d: %v", i, v, err)
			}
		}
	}
	putAll(1)

	// Step boundaries, alternately through the cluster verb and the client
	// driver: their totals are the change the members' records show. The
	// first step drains the encodes the puts queued (a put is coded at once
	// while a server is below S), so it is the baseline.
	f.c.EndTimeStep(1)
	base, _ := statusSum(t, cl)
	var demoted, promoted int
	for ts := corec.Version(2); ts <= 6; ts++ {
		var d, p int
		if ts%2 == 1 {
			d, p = f.c.EndTimeStep(ts)
		} else {
			var err error
			if d, p, err = cl.EndTimeStepAll(ctx, ts); err != nil {
				t.Fatalf("EndTimeStepAll(%d): %v", ts, err)
			}
		}
		demoted += d
		promoted += p
	}
	sum, _ := statusSum(t, cl)
	if demoted == 0 || sum.Encoded-base.Encoded != demoted-promoted {
		t.Fatalf("steps demoted %d and promoted %d; the members' encoded objects went %d -> %d",
			demoted, promoted, base.Encoded, sum.Encoded)
	}

	// StorageReport is the members' status records, summed.
	rep := f.c.StorageReport()
	if rep.ObjectBytes != sum.ObjectBytes || rep.ReplicaBytes != sum.ReplicaBytes || rep.ShardBytes != sum.ShardBytes ||
		rep.Replicated != sum.Replicated || rep.Encoded != sum.Encoded {
		t.Fatalf("StorageReport %+v, status records sum to %+v", rep, sum)
	}

	// A sweep runs both of its phases on every member, and its report is
	// what the members recorded of it (no scrubber runs in the background,
	// so the sweep is all they recorded).
	swept, err := f.c.ScrubNow(ctx)
	if err != nil {
		t.Fatal(err)
	}
	_, after := statusSum(t, cl)
	var recorded corec.ScrubReport
	for id, s := range after {
		if s.Stats.ScrubPasses != 2 {
			t.Fatalf("server %d ran %d scrub passes in the sweep, want 2", id, s.Stats.ScrubPasses)
		}
		recorded.Add(s.Stats.Scrub)
	}
	if swept.Scanned == 0 || swept != recorded {
		t.Fatalf("sweep reported %+v, the members recorded %+v", swept, recorded)
	}

	// Kill a member, bring it back empty and recover it: the recovery
	// repairs what it lost and every object reads back. A fresh version
	// first, so the victim holds copies a crash loses.
	putAll(2)
	victim := corec.ServerID(1)
	f.kill(t, victim)
	f.restart(t, victim)
	recCtx, cancel := context.WithTimeout(ctx, 2*time.Minute)
	defer cancel()
	repaired, err := cl.RecoverServer(recCtx, victim, corec.RecoveryAggressive)
	if err != nil || repaired == 0 {
		t.Fatalf("recovery of server %d repaired %d objects: %v", victim, repaired, err)
	}
	for i := int64(0); i < objects; i++ {
		got, err := cl.Get(ctx, "verbs", box(i), 2)
		if err != nil || !bytes.Equal(got, payload(i, 2)) {
			t.Fatalf("object %d after recovery: %v", i, err)
		}
	}
}
