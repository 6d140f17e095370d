package cluster

import (
	"context"
	"os/exec"
	"regexp"
	"strings"
	"testing"
	"time"
)

// TestCLIAgainstLiveFleet exercises the operator tooling end to end: every
// corec-cli invocation below is a real process talking to a real
// multi-process fleet purely over the wire. 4 servers so draining one
// leaves k+m=3 placement targets.
func TestCLIAgainstLiveFleet(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns OS processes")
	}
	ctx, cancel := context.WithTimeout(context.Background(), 4*time.Minute)
	defer cancel()
	fleet, err := Start(ctx, Config{Servers: 4, Procs: 4})
	if err != nil {
		t.Fatal(err)
	}
	defer fleet.Stop()
	addrFile, err := fleet.WriteAddrFile()
	if err != nil {
		t.Fatal(err)
	}

	// cli runs one corec-cli invocation with the connection flags matching
	// the fleet's geometry (codec parameters must agree with the service,
	// exactly as a real operator's would).
	cli := func(args ...string) (string, error) {
		full := append([]string{
			"-addr-file", addrFile,
			"-membership",
			"-k", "2",
			"-nlevel", "1",
		}, args...)
		out, err := exec.CommandContext(ctx, fleet.CLIBin(), full...).CombinedOutput()
		return string(out), err
	}
	mustCLI := func(args ...string) string {
		t.Helper()
		out, err := cli(args...)
		if err != nil {
			t.Fatalf("corec-cli %s: %v\n%s", strings.Join(args, " "), err, out)
		}
		return out
	}

	const payload = "hello from the operator cli"
	mustCLI("put", "-var", "cli", "-offset", "0", "-data", payload)
	if out := mustCLI("get", "-var", "cli", "-offset", "0", "-len", "27"); !strings.Contains(out, payload) {
		t.Fatalf("get did not return the staged payload:\n%s", out)
	}

	if out := mustCLI("members"); !strings.Contains(out, "4 members") {
		t.Fatalf("members does not show the full fleet:\n%s", out)
	}
	if out := mustCLI("status"); strings.Contains(out, "DOWN") {
		t.Fatalf("status reports a dead server on a healthy fleet:\n%s", out)
	}
	if out := mustCLI("endstep", "-version", "1"); !strings.Contains(out, "step 1 closed") {
		t.Fatalf("endstep did not close the step:\n%s", out)
	}
	out := mustCLI("scrub")
	if m := regexp.MustCompile(`scanned=(\d+)`).FindStringSubmatch(out); m == nil || m[1] == "0" {
		t.Fatalf("scrub swept nothing on a fleet holding a payload:\n%s", out)
	}

	// Drain server 3: it hands off its data and leaves via gossip. The CLI
	// only starts the drain, so poll members until the gossip view shows
	// the server in the left state (the view keeps departed members listed
	// so operators can see what happened to them).
	mustCLI("drain", "-server", "3")
	waitUntil(t, 60*time.Second, "drained server to leave the gossip view", func() bool {
		out, err := cli("members")
		return err == nil && strings.Contains(out, "server 3: left")
	})

	// The staged payload survived the handoff.
	if out := mustCLI("get", "-var", "cli", "-offset", "0", "-len", "27"); !strings.Contains(out, payload) {
		t.Fatalf("get after drain lost the payload:\n%s", out)
	}
}
