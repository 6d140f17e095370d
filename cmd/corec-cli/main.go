// Command corec-cli is a small admin client for a TCP-hosted staging
// service (see corec-server): it stages byte payloads into 1-D regions and
// reads them back, exercising the full put/get path including erasure
// coding and degraded reads, across process boundaries.
//
// Usage:
//
//	corec-cli -addr-file corec-addrs.json put  -var demo -offset 0 -data "hello staging"
//	corec-cli -addr-file corec-addrs.json get  -var demo -offset 0 -len 13
//	corec-cli -addr-file corec-addrs.json query -var demo
//
// The CLI takes the service's shape (policy, NLevel, k, domain, fleet size)
// from the first server that answers, so it needs no flag to match the
// service. When the service runs elastic membership (corec-server
// -membership), data commands place on the fleet's dynamic ring, pulled as
// a gossip snapshot at startup, and the gossip control plane is reachable:
//
//	corec-cli -addr-file corec-addrs.json members
//	corec-cli -addr-file corec-addrs.json drain -server 3
//	corec-cli -addr-file corec-addrs.json join
//
// members pulls the fleet's gossip view; drain asks one server to hand off
// its data and leave; join asks the host to admit a fresh server. Servers
// admitted after startup gossip their addresses inside the host process —
// re-read the addr map (or use members) to see them from outside. The fleet
// verbs (endstep, recover, scrub) work against any service.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"sort"
	"strconv"

	"corec"
)

func main() {
	addrFile := flag.String("addr-file", "corec-addrs.json", "server address map written by corec-server")
	muxConns := flag.Int("mux-conns", 0, "connections per peer (0 = default; sizing only, need not match the server)")
	flag.Parse()
	args := flag.Args()
	if len(args) < 1 {
		usage()
	}

	data, err := os.ReadFile(*addrFile)
	if err != nil {
		fatal(err)
	}
	var addrs map[corec.ServerID]string
	if err := json.Unmarshal(data, &addrs); err != nil {
		fatal(err)
	}
	// Byte-addressed 1-D staging; the shape comes from the service.
	cfg := corec.Config{ElemSize: 1, MuxConnsPerPeer: *muxConns}
	cluster, err := corec.NewRemoteCluster(cfg, addrs)
	if err != nil {
		fatal(err)
	}
	defer cluster.Close()
	client := cluster.NewClient()
	ctx := context.Background()

	sub := flag.NewFlagSet(args[0], flag.ExitOnError)
	varName := sub.String("var", "demo", "variable name")
	offset := sub.Int64("offset", 0, "byte offset of the region")
	payload := sub.String("data", "", "payload for put")
	length := sub.Int64("len", 0, "length for get")
	version := sub.Int64("version", 1, "data version (time step): put stages at it; get accepts nothing older, and 0 names no version")
	drainID := sub.Int("server", -1, "target server (drain, recover)")
	_ = sub.Parse(args[1:]) // ExitOnError: Parse never returns an error

	switch args[0] {
	case "put":
		if *payload == "" {
			fatal(fmt.Errorf("put requires -data"))
		}
		box := corec.Box{Lo: []int64{*offset}, Hi: []int64{*offset + int64(len(*payload))}}
		if err := client.Put(ctx, *varName, box, corec.Version(*version), []byte(*payload)); err != nil {
			fatal(err)
		}
		fmt.Printf("staged %d bytes of %q at offset %d\n", len(*payload), *varName, *offset)
	case "get":
		if *length <= 0 {
			fatal(fmt.Errorf("get requires -len > 0"))
		}
		box := corec.Box{Lo: []int64{*offset}, Hi: []int64{*offset + *length}}
		got, err := client.Get(ctx, *varName, box, corec.Version(*version))
		if err != nil {
			fatal(err)
		}
		fmt.Printf("%s\n", strconv.Quote(string(got)))
	case "query":
		metas, err := client.Query(ctx, *varName, corec.Box{})
		if err != nil {
			fatal(err)
		}
		for _, m := range metas {
			fmt.Printf("%s v%d %dB state=%v primary=%d\n", m.ID, m.Version, m.Size, m.State, m.Primary)
		}
		fmt.Printf("%d objects\n", len(metas))
	case "members":
		updates, err := client.MemberSnapshot(ctx)
		if err != nil {
			fatal(err)
		}
		sort.Slice(updates, func(i, j int) bool { return updates[i].ID < updates[j].ID })
		for _, u := range updates {
			fmt.Printf("server %d: %s inc=%d domain=%d addr=%s\n",
				u.ID, u.State, u.Incarnation, u.Domain, u.Addr)
		}
		fmt.Printf("%d members\n", len(updates))
	case "drain":
		if *drainID < 0 {
			fatal(fmt.Errorf("drain requires -server <id>"))
		}
		if err := client.RequestDrain(ctx, corec.ServerID(*drainID)); err != nil {
			fatal(err)
		}
		fmt.Printf("drain of server %d started; it hands off its data and leaves via gossip\n", *drainID)
	case "join":
		if err := client.RequestJoin(ctx); err != nil {
			fatal(err)
		}
		fmt.Println("join accepted; the host is admitting a fresh server")
	case "endstep":
		d, p, err := client.EndTimeStepAll(ctx, corec.Version(*version))
		if err != nil {
			fatal(err)
		}
		fmt.Printf("step %d closed: %d demotions, %d promotions\n", *version, d, p)
	case "recover":
		if *drainID < 0 {
			fatal(fmt.Errorf("recover requires -server <id>"))
		}
		n, err := client.RecoverServer(ctx, corec.ServerID(*drainID), corec.RecoveryAggressive)
		if err != nil {
			fatal(err)
		}
		fmt.Printf("server %d recovered: %d objects repaired\n", *drainID, n)
	case "scrub":
		rep, err := client.Scrub(ctx)
		if err != nil {
			fatal(err)
		}
		fmt.Printf("sweep: %v\n", rep)
	case "status":
		// One poll of the fleet: each member's own report, then this
		// process's fabric view — its multiplexed connections, which peers
		// its retry layer fails fast against, how many of its region lookups
		// had to ask a second mirror, or the whole fleet, and how many of its
		// gets a primary answered or missed.
		fs := cluster.FabricStatus()
		for _, s := range fs.Servers {
			if !s.Alive {
				fmt.Printf("server %d: DOWN\n", s.ID)
				continue
			}
			st := s.Stats
			fmt.Printf("server %d: load=%d objects=%d replicas=%d shards=%d dir=%d eff=%.2f pendingEnc=%d pendingRepair=%d tokenless=%d\n",
				s.ID, st.Load, st.Objects, st.Replicas, st.Shards, st.DirEntries,
				st.Efficiency, st.PendingEncodes, st.PendingRepairs, st.TokenlessEncodes)
			fmt.Printf("  scrub: passes=%d scanned=%d corruptions=%d repairs=%d  tiers: mem=%d disk=%d remote=%d\n",
				st.ScrubPasses, st.Scrub.Scanned, st.Scrub.Corruptions, st.Scrub.Repairs,
				st.Storage.MemObjects, st.Storage.DiskObjects, st.Storage.RemoteObjects)
		}
		fmt.Printf("fabric: retries=%d muxRedials=%d peersDown=%d fastFails=%d dir_second_asks=%d dir_fallbacks=%d primary_reads=%d primary_misses=%d tokenless_encodes=%d\n",
			fs.Retries, fs.Transport.MuxRedials, fs.Transport.PeersDown, fs.Transport.FastFails, fs.DirSecondAsks, fs.DirFallbacks, fs.PrimaryReads, fs.PrimaryMisses, fs.Encoding.TokenlessEncodes)
	default:
		usage()
	}
}

func usage() {
	fmt.Fprintln(os.Stderr, "usage: corec-cli [-addr-file f] put|get|query|status|scrub|members|join|drain|endstep|recover [sub-flags]")
	os.Exit(2)
}

func fatal(err error) {
	fmt.Fprintf(os.Stderr, "corec-cli: %v\n", err)
	os.Exit(1)
}
