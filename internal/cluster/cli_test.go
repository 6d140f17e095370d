package cluster

import (
	"context"
	"fmt"
	"os/exec"
	"path/filepath"
	"regexp"
	"strconv"
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

	// cli runs one corec-cli invocation: the address map is all it is told,
	// and it asks the fleet for the rest.
	cli := func(args ...string) (string, error) {
		full := append([]string{"-addr-file", addrFile}, args...)
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

// TestToolsAgainstStaticFleet runs corec-cli and corec-loadgen against a
// static service: two corec-server processes hosting three of six servers
// each at k=2, without -membership. Neither tool is told the shape, which a
// default k=3 would not tile.
func TestToolsAgainstStaticFleet(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns OS processes")
	}
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()
	bin, err := BuildBinaries()
	if err != nil {
		t.Fatal(err)
	}
	const servers = 6
	base, err := FreePortBase(servers)
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	for i, local := range []string{"0,2,4", "1,3,5"} {
		cmd := exec.Command(filepath.Join(bin, "corec-server"),
			"-servers", strconv.Itoa(servers), "-k", "2",
			"-port-base", strconv.Itoa(base), "-local", local,
			"-addr-file", filepath.Join(dir, fmt.Sprintf("addrs-%d.json", i)))
		if err := cmd.Start(); err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() {
			_ = cmd.Process.Kill()
			_ = cmd.Wait() // exit status of a killed server is noise
		})
	}
	addrs := addrMap(base, servers)
	if err := awaitAll(ctx, addrs); err != nil {
		t.Fatal(err)
	}
	addrFile := filepath.Join(dir, "addrs.json")
	if err := writeAddrFile(addrFile, addrs); err != nil {
		t.Fatal(err)
	}
	run := func(tool string, args ...string) string {
		t.Helper()
		out, err := exec.CommandContext(ctx, filepath.Join(bin, tool), append([]string{"-addr-file", addrFile}, args...)...).CombinedOutput()
		if err != nil {
			t.Fatalf("%s %s: %v\n%s", tool, strings.Join(args, " "), err, out)
		}
		return string(out)
	}

	const payload = "hello from a static fleet"
	run("corec-cli", "put", "-var", "cli", "-data", payload)
	if out := run("corec-cli", "get", "-var", "cli", "-len", strconv.Itoa(len(payload))); !strings.Contains(out, payload) {
		t.Fatalf("get did not return the staged payload:\n%s", out)
	}
	if out := run("corec-cli", "status"); strings.Contains(out, "DOWN") || strings.Count(out, "server ") != servers {
		t.Fatalf("status does not show six live servers:\n%s", out)
	}
	out := run("corec-loadgen", "-rate", "100", "-duration", "1s", "-slots", "32")
	t.Log(out)
	if !strings.Contains(out, "on 6 servers") || !strings.Contains(out, ", 0 failed") || !strings.Contains(out, "lost=0 corrupt=0") {
		t.Fatalf("loadgen against the static fleet:\n%s", out)
	}
}
