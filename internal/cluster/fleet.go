// Package cluster is the multi-process test harness: it builds the real
// corec-server binary, spawns a fleet of OS processes that self-assemble
// into one logical staging service over the TCP+mux fabric and gossip
// membership, and drives them with an open-loop load generator whose
// latency recording is safe against coordinated omission.
//
// Every prior experiment in this repository ran the whole fleet inside one
// Go process, which can never observe a class of failures the paper's
// deployment model implies: a staging server process dying with its whole
// address space (not just a handler being unregistered), the disk tier
// being revalidated by a genuinely fresh process, operator tooling talking
// to the service purely over the wire. This package closes that gap.
//
// Topology: a Fleet of Config.Procs processes hosts Config.Servers logical
// servers. Ports are deterministic (PortBase+serverID), so every process
// computes every peer's address locally — no coordination round, no
// address files to merge. Each process gets the same -servers/-port-base
// and a disjoint -local list.
package cluster

import (
	"context"
	"encoding/json"
	"fmt"
	"net"
	"os"
	"os/exec"
	"path/filepath"
	"syscall"
	"time"

	"corec"
	"corec/internal/types"
)

// Config shapes a multi-process fleet.
type Config struct {
	// Servers is the logical fleet size; Procs the process count. Servers
	// are dealt to processes round-robin (server i lives in process
	// i%Procs).
	Servers, Procs int
	// NLevel and DataShards follow corec.Config.
	NLevel, DataShards int
	// Mode is the resilience policy ("corec" default; "erasure" encodes
	// on write, which tests use to fill the disk tier deterministically).
	Mode string
	// StorageMemMB bounds each server's L1 in MiB (0 = unbounded). A
	// small budget forces shards onto L2 disk segments, which is what the
	// process-restart revalidation test needs to find after a SIGKILL.
	StorageMemMB int64
	// PortBase pins server i to port PortBase+i; 0 picks a free base.
	PortBase int
	// Scrub starts the background anti-entropy scrubber in every process.
	Scrub bool
	// Dir is the fleet workspace (storage dirs, addr files, binaries).
	// Empty creates a temp dir owned by the fleet.
	Dir string
	// Stderr receives the processes' combined output; nil discards it.
	Stderr *os.File
}

func (c *Config) withDefaults() Config {
	out := *c
	if out.Servers == 0 {
		out.Servers = 3
	}
	if out.Procs == 0 {
		out.Procs = out.Servers
	}
	if out.Procs > out.Servers {
		out.Procs = out.Servers
	}
	if out.NLevel == 0 {
		out.NLevel = 1
	}
	if out.DataShards == 0 {
		out.DataShards = 2
	}
	if out.Mode == "" {
		out.Mode = "corec"
	}
	return out
}

// Proc is one corec-server OS process hosting a subset of the fleet.
type Proc struct {
	// Index is the process slot (stable across restarts).
	Index int
	// Servers are the logical server IDs this process hosts.
	Servers []corec.ServerID

	cmd *exec.Cmd
}

// Pid returns the OS process ID, or -1 when the process is not running.
func (p *Proc) Pid() int {
	if p.cmd == nil || p.cmd.Process == nil {
		return -1
	}
	return p.cmd.Process.Pid
}

// Fleet is a running multi-process staging service.
type Fleet struct {
	cfg      Config
	dir      string
	ownDir   bool   // remove dir on Stop (we created it)
	bin      string // directory holding the built binaries
	portBase int
	procs    []*Proc
}

// Start builds the corec-server binary (cached per workspace), spawns the
// fleet and blocks until every server answers a TCP dial. The fleet always
// runs elastic membership (-membership): gossip self-assembly is what lets
// the processes form one service without a coordinator, and it is the only
// mode whose placement tolerates fleet sizes the static placement's groups
// cannot tile.
func Start(ctx context.Context, cfg Config) (*Fleet, error) {
	cfg = cfg.withDefaults()
	f := &Fleet{cfg: cfg, dir: cfg.Dir}
	if f.dir == "" {
		d, err := os.MkdirTemp("", "corec-fleet-*")
		if err != nil {
			return nil, err
		}
		f.dir = d
		f.ownDir = true
	}
	var err error
	f.bin, err = BuildBinaries()
	if err != nil {
		f.cleanup()
		return nil, err
	}
	f.portBase = cfg.PortBase
	if f.portBase == 0 {
		f.portBase, err = FreePortBase(cfg.Servers)
		if err != nil {
			f.cleanup()
			return nil, err
		}
	}
	for i := 0; i < cfg.Procs; i++ {
		p := &Proc{Index: i}
		for s := 0; s < cfg.Servers; s++ {
			if s%cfg.Procs == i {
				p.Servers = append(p.Servers, corec.ServerID(s))
			}
		}
		f.procs = append(f.procs, p)
	}
	for _, p := range f.procs {
		if err := f.spawn(p); err != nil {
			f.Stop()
			return nil, err
		}
	}
	if err := f.AwaitReady(ctx); err != nil {
		f.Stop()
		return nil, err
	}
	return f, nil
}

// spawn launches (or relaunches) one process slot.
func (f *Fleet) spawn(p *Proc) error {
	local := ""
	for i, id := range p.Servers {
		if i > 0 {
			local += ","
		}
		local += fmt.Sprintf("%d", id)
	}
	args := []string{
		"-servers", fmt.Sprintf("%d", f.cfg.Servers),
		"-port-base", fmt.Sprintf("%d", f.portBase),
		"-local", local,
		"-membership",
		"-mode", f.cfg.Mode,
		"-nlevel", fmt.Sprintf("%d", f.cfg.NLevel),
		"-k", fmt.Sprintf("%d", f.cfg.DataShards),
		"-storage-dir", filepath.Join(f.dir, "storage"),
		"-addr-file", filepath.Join(f.dir, fmt.Sprintf("addrs-%d.json", p.Index)),
	}
	if f.cfg.StorageMemMB > 0 {
		args = append(args, "-storage-mem-mb", fmt.Sprintf("%d", f.cfg.StorageMemMB))
	}
	if f.cfg.Scrub {
		args = append(args, "-scrub")
	}
	cmd := exec.Command(filepath.Join(f.bin, "corec-server"), args...)
	if f.cfg.Stderr != nil {
		cmd.Stdout = f.cfg.Stderr
		cmd.Stderr = f.cfg.Stderr
	}
	if err := cmd.Start(); err != nil {
		return fmt.Errorf("cluster: spawning proc %d: %w", p.Index, err)
	}
	p.cmd = cmd
	return nil
}

// Addrs returns the full fleet address map, computed from the port base.
func (f *Fleet) Addrs() map[corec.ServerID]string { return addrMap(f.portBase, f.cfg.Servers) }

// addrMap is the address map of n servers listening at portBase+id.
func addrMap(portBase, n int) map[corec.ServerID]string {
	out := make(map[corec.ServerID]string, n)
	for i := 0; i < n; i++ {
		out[corec.ServerID(i)] = fmt.Sprintf("127.0.0.1:%d", portBase+i)
	}
	return out
}

// Procs returns the process slots.
func (f *Fleet) Procs() []*Proc { return f.procs }

// ProcFor returns the process slot hosting the server.
func (f *Fleet) ProcFor(id corec.ServerID) *Proc { return f.procs[int(id)%f.cfg.Procs] }

// Dir returns the fleet workspace directory.
func (f *Fleet) Dir() string { return f.dir }

// CLIBin returns the path of the corec-cli binary built alongside the
// fleet, for tests that exercise the operator tooling end to end.
func (f *Fleet) CLIBin() string { return filepath.Join(f.bin, "corec-cli") }

// WriteAddrFile writes the computed fleet address map as the JSON file
// corec-cli consumes and returns its path.
func (f *Fleet) WriteAddrFile() (string, error) {
	path := filepath.Join(f.dir, "addrs.json")
	return path, writeAddrFile(path, f.Addrs())
}

// writeAddrFile writes an address map in the layout corec-server writes.
func writeAddrFile(path string, addrs map[corec.ServerID]string) error {
	data, err := json.MarshalIndent(addrs, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}

// AwaitReady blocks until every fleet server accepts a TCP connection (a
// restarted process re-listens on its deterministic ports, so this also
// serves as the restart barrier).
func (f *Fleet) AwaitReady(ctx context.Context) error { return awaitAll(ctx, f.Addrs()) }

// awaitAll blocks until every address in the map accepts a TCP connection.
func awaitAll(ctx context.Context, addrs map[corec.ServerID]string) error {
	for id, addr := range addrs {
		if err := awaitListening(ctx, addr); err != nil {
			return fmt.Errorf("cluster: server %d (%s) never came up: %w", id, addr, err)
		}
	}
	return nil
}

func awaitListening(ctx context.Context, addr string) error {
	deadline := time.Now().Add(30 * time.Second)
	if d, ok := ctx.Deadline(); ok && d.Before(deadline) {
		deadline = d
	}
	for {
		c, err := net.DialTimeout("tcp", addr, time.Second)
		if err == nil {
			_ = c.Close()
			return nil
		}
		if time.Now().After(deadline) {
			return err
		}
		select {
		case <-ctx.Done():
			return ctx.Err()
		case <-time.After(20 * time.Millisecond):
		}
	}
}

// Client opens a remote-cluster handle onto the fleet (the caller owns
// Close). The handle asks the fleet for its shape and pulls a gossip
// snapshot, so it places on the same dynamic ring as the servers.
func (f *Fleet) Client() (*corec.Cluster, error) {
	return corec.NewRemoteCluster(corec.Config{ElemSize: 1}, f.Addrs())
}

// Kill SIGKILLs the process slot: its servers vanish mid-request with
// their entire address space, exactly like a node crash. The slot can be
// restarted with Restart.
func (f *Fleet) Kill(p *Proc) error {
	if p.cmd == nil || p.cmd.Process == nil {
		return fmt.Errorf("cluster: proc %d is not running", p.Index)
	}
	if err := p.cmd.Process.Kill(); err != nil {
		return err
	}
	_ = p.cmd.Wait() // reap; the kill error above is the one that matters
	p.cmd = nil
	return nil
}

// Restart relaunches a killed process slot with its original server set
// and storage directories, then waits until its servers listen again. The
// fresh process revalidates the L2 disk tier (memory contents are gone)
// and re-announces itself via gossip.
func (f *Fleet) Restart(ctx context.Context, p *Proc) error {
	if p.cmd != nil {
		return fmt.Errorf("cluster: proc %d is still running", p.Index)
	}
	if err := f.spawn(p); err != nil {
		return err
	}
	for _, id := range p.Servers {
		addr := fmt.Sprintf("127.0.0.1:%d", f.portBase+int(id))
		if err := awaitListening(ctx, addr); err != nil {
			return fmt.Errorf("cluster: restarted server %d never listened: %w", id, err)
		}
	}
	return nil
}

// Stop terminates every process (SIGTERM, then SIGKILL after a grace
// period) and removes the workspace if the fleet created it.
func (f *Fleet) Stop() {
	for _, p := range f.procs {
		if p.cmd == nil || p.cmd.Process == nil {
			continue
		}
		_ = p.cmd.Process.Signal(syscall.SIGTERM)
	}
	done := make(chan struct{})
	go func() {
		for _, p := range f.procs {
			if p.cmd != nil {
				_ = p.cmd.Wait() // exit status of a terminated fleet is noise
			}
		}
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		for _, p := range f.procs {
			if p.cmd != nil && p.cmd.Process != nil {
				_ = p.cmd.Process.Kill() // grace expired; hard kill
			}
		}
		<-done
	}
	for _, p := range f.procs {
		p.cmd = nil
	}
	f.cleanup()
}

func (f *Fleet) cleanup() {
	if f.ownDir && f.dir != "" {
		_ = os.RemoveAll(f.dir) // temp workspace; best effort
		f.dir = ""
	}
}

// sid is a shorthand conversion used across the package.
func sid(id corec.ServerID) types.ServerID { return types.ServerID(id) }
