package cluster

import (
	"bytes"
	"context"
	"testing"
	"time"

	"corec"
)

// TestProcessRestartIsReadmitted checks the client fabric's peer-health
// table against a real process crash: the SIGKILLed server's refused dials
// mark it down, later gets fail fast instead of re-paying the retry budget,
// and when the process comes back on the same address a half-open trial —
// no operator action, no RecoverServer — re-admits it.
func TestProcessRestartIsReadmitted(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns OS processes")
	}
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()
	fleet, err := Start(ctx, Config{Servers: 3, Procs: 3, Mode: "replicate"})
	if err != nil {
		t.Fatal(err)
	}
	defer fleet.Stop()
	cl, err := fleet.Client()
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	client := cl.NewClient()

	box := corec.Box{Lo: []int64{0}, Hi: []int64{4096}}
	data := Payload(opSeed("readmit", 0, 1), 4096)
	if err := client.Put(ctx, "readmit", box, 1, data); err != nil {
		t.Fatal(err)
	}
	get := func(when string) {
		t.Helper()
		got, err := client.Get(ctx, "readmit", box, 1)
		if err != nil || !bytes.Equal(got, data) {
			t.Fatalf("%s: err=%v", when, err)
		}
	}
	get("healthy get")

	// A get naming its version asks one directory mirror and the object's
	// holders in order, so the process every get dials is the primary's.
	metas, err := client.Query(ctx, "readmit", box)
	if err != nil || len(metas) != 1 {
		t.Fatalf("query: %v (%d records)", err, len(metas))
	}
	victim := fleet.ProcFor(metas[0].Primary)
	if err := fleet.Kill(victim); err != nil {
		t.Fatal(err)
	}
	get("first get after the crash") // its copy fetch dials the dead process
	first := cl.FabricStatus()
	if first.Transport.PeersDown != 1 {
		t.Fatalf("PeersDown = %d after first contact with the dead process, want 1", first.Transport.PeersDown)
	}
	for i := 0; i < 50; i++ {
		get("get with the peer marked down")
	}
	after := cl.FabricStatus()
	if grew := after.Retries - first.Retries; grew > 3 {
		t.Fatalf("50 gets against a known-dead process paid %d retries", grew)
	}
	if after.Transport.FastFails == first.Transport.FastFails {
		t.Fatal("no send failed fast against the dead process")
	}

	if err := fleet.Restart(ctx, victim); err != nil {
		t.Fatal(err)
	}
	// Ordinary traffic carries the trial: at most MaxBackoff after the
	// process listens again one get's copy fetch is let through and succeeds.
	// The deadline is generous for loaded CI machines; the table's own bound
	// is cl.RetryPolicy().MaxBackoff.
	waitUntil(t, 20*cl.RetryPolicy().MaxBackoff, "half-open trial to re-admit the restarted process", func() bool {
		get("get after restart")
		return cl.FabricStatus().Transport.PeersDown == 0
	})
}
