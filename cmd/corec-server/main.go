// Command corec-server hosts a CoREC staging service over TCP: all staging
// servers run in this process, each on its own listener, and the address
// map is written to a JSON file that corec-cli (or any NewRemoteCluster
// embedder) consumes.
//
// Usage:
//
//	corec-server [-servers 8] [-mode corec] [-addr-file corec-addrs.json]
//	             [-host 127.0.0.1] [-nlevel 1] [-k 3] [-s 0.67]
//	             [-mux-conns 0] [-membership]
//	             [-port-base 0] [-local ""] [-scrub]
//	             [-storage-dir DIR] [-storage-mem-mb N] [-storage-disk-mb N]
//	             [-storage-remote] [-storage-remote-mbps 256]
//	             [-storage-prefetch]
//
// With -local and -port-base the process hosts only the listed server IDs
// of a larger fleet; every other ID is assumed to live in a sibling
// corec-server process at host:port-base+id. This is how the cluster
// harness (internal/cluster, corec-loadgen) runs one logical staging
// service as N OS processes: each process gets the same -servers and
// -port-base and a disjoint -local list, and no address coordination is
// needed because ports are deterministic.
//
// The -storage-* flags enable the tiered storage engine: erasure shards
// spill from memory (L1, -storage-mem-mb) to per-server append-only disk
// segments under -storage-dir (L2), and with -storage-remote on to a
// modeled shared object store (L3). A restarted service revalidates and
// re-indexes the disk tier from -storage-dir instead of losing it.
//
// -mux-conns sizes the multiplexed transport for the requests this process
// sends (connections per peer, each carrying up to
// transport.DefaultMaxInFlight requests at once); it is not protocol, so
// clients need not match it.
//
// -membership starts the fleet elastic: every server runs a SWIM gossip
// agent, placement uses the dynamic failure-domain ring, and the service
// accepts corec-cli members/join/drain control requests. The addr-file is
// rewritten whenever the fleet grows so external clients can pick up
// admitted servers.
package main

import (
	"encoding/json"
	"fmt"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"syscall"

	"flag"

	"corec"
	"corec/internal/policy"
)

func main() {
	servers := flag.Int("servers", 8, "number of staging servers")
	modeName := flag.String("mode", "corec", "resilience policy: none, replicate, erasure, hybrid, corec")
	addrFile := flag.String("addr-file", "corec-addrs.json", "where to write the server address map")
	host := flag.String("host", "127.0.0.1", "bind host")
	nlevel := flag.Int("nlevel", 1, "failures to tolerate")
	k := flag.Int("k", 3, "Reed-Solomon data shards")
	s := flag.Float64("s", 0.67, "storage efficiency constraint")
	muxConns := flag.Int("mux-conns", 0, "connections per peer for this process's outgoing requests (0 = default; sizing only, clients need not match)")
	elastic := flag.Bool("membership", false, "run elastic membership: SWIM gossip failure detection, dynamic ring, corec-cli join/drain control")
	portBase := flag.Int("port-base", 0, "pin server i's listener to port port-base+i (0 = ephemeral ports)")
	localList := flag.String("local", "", "comma-separated server IDs this process hosts (requires -port-base; empty = all)")
	scrubOn := flag.Bool("scrub", false, "run the background anti-entropy scrubber on every hosted server")
	storageDir := flag.String("storage-dir", "", "enable the tiered storage engine: per-server disk segments live under this directory")
	storageMemMB := flag.Int64("storage-mem-mb", 0, "L1 memory budget per server in MiB (0 = unbounded; requires -storage-dir to spill)")
	storageDiskMB := flag.Int64("storage-disk-mb", 0, "L2 disk budget per server in MiB before uploads to the remote tier (0 = unbounded)")
	storageRemote := flag.Bool("storage-remote", false, "enable the modeled L3 remote object store shared by the fleet")
	storageRemoteMBps := flag.Float64("storage-remote-mbps", 256, "remote tier aggregate bandwidth in MiB/s (with -storage-remote)")
	storagePrefetch := flag.Bool("storage-prefetch", false, "enable the next-time-step prefetch pipeline")
	flag.Parse()

	mode, err := policy.ParseMode(*modeName)
	if err != nil {
		fatal(err)
	}
	cfg := corec.DefaultConfig(*servers)
	cfg.Mode = mode
	cfg.NLevel = *nlevel
	cfg.DataShards = *k
	cfg.StorageEfficiencyMin = *s
	cfg.Transport = "tcp"
	cfg.ListenHost = *host
	cfg.MuxConnsPerPeer = *muxConns
	if *elastic {
		cfg.Membership = &corec.MembershipConfig{}
	}
	cfg.PortBase = *portBase
	if *localList != "" {
		ids, err := parseServerIDs(*localList)
		if err != nil {
			fatal(err)
		}
		cfg.LocalServers = ids
	}
	if *scrubOn {
		sc := corec.DefaultScrubConfig()
		cfg.Scrub = &sc
	}
	if *storageDir != "" || *storageMemMB > 0 {
		sc := corec.StorageConfig{
			MemBytes:  *storageMemMB << 20,
			Dir:       *storageDir,
			DiskBytes: *storageDiskMB << 20,
			Prefetch:  *storagePrefetch,
		}
		if *storageRemote {
			remote := corec.DefaultRemoteStoreConfig()
			remote.BytesPerSecond = *storageRemoteMBps * (1 << 20)
			sc.Remote = &remote
		}
		cfg.Storage = &sc
	}

	cluster, err := corec.NewCluster(cfg)
	if err != nil {
		fatal(err)
	}
	defer cluster.Close()

	writeAddrs := func() (map[corec.ServerID]string, error) {
		addrs := cluster.ServerAddrs()
		data, err := json.MarshalIndent(addrs, "", "  ")
		if err != nil {
			return nil, err
		}
		if err := os.WriteFile(*addrFile, data, 0o644); err != nil {
			return nil, err
		}
		return addrs, nil
	}
	addrs, err := writeAddrs()
	if err != nil {
		fatal(err)
	}
	hosted := *servers
	if cfg.LocalServers != nil {
		hosted = len(cfg.LocalServers)
	}
	fmt.Printf("corec-server: %d of %d servers up (%s policy); address map in %s\n",
		hosted, *servers, mode, *addrFile)
	for id, addr := range addrs {
		fmt.Printf("  server %d -> %s\n", id, addr)
	}
	if *elastic {
		fmt.Println("elastic membership on: corec-cli members|join|drain available")
		// Keep the published address map current as the fleet changes, so
		// external clients can re-read it after a join or drain.
		go func() {
			for ev := range cluster.MemberEvents() {
				fmt.Printf("membership: server %d %s (incarnation %d)\n",
					ev.ID, ev.Kind, ev.Incarnation)
				if _, err := writeAddrs(); err != nil {
					fmt.Fprintf(os.Stderr, "corec-server: rewriting %s: %v\n", *addrFile, err)
				}
			}
		}()
	}
	fmt.Println("press Ctrl-C to stop")

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, syscall.SIGINT, syscall.SIGTERM)
	<-sig
	fmt.Println("\nshutting down")
}

// parseServerIDs parses a comma-separated ID list ("0,3,5").
func parseServerIDs(s string) ([]corec.ServerID, error) {
	var out []corec.ServerID
	for _, part := range strings.Split(s, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		id, err := strconv.Atoi(part)
		if err != nil {
			return nil, fmt.Errorf("bad server id %q in -local", part)
		}
		out = append(out, corec.ServerID(id))
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("-local lists no server ids")
	}
	return out, nil
}

func fatal(err error) {
	fmt.Fprintf(os.Stderr, "corec-server: %v\n", err)
	os.Exit(1)
}
