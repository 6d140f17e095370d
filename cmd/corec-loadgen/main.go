// Command corec-loadgen offers open-loop load to a staging service and
// reports coordinated-omission-safe latency SLOs.
//
// Two modes:
//
// Self-spawned fleet (default): the harness builds corec-server, spawns a
// multi-process fleet, offers one load under a fault arm, and prints the
// SLO row:
//
//	corec-loadgen -scenario small-churn -arm kill-restart -servers 3 -procs 3
//
// -scenario is a label, not a preset: it names the staged variable and
// seeds the payloads. The load's shape comes from -rate, -duration,
// -object-bytes, -slots, -get-fraction and -poisson.
//
// External service: point -addr-file at a running corec-server deployment
// (started with -membership) and offer a custom open-loop load to it;
// nothing is killed:
//
//	corec-loadgen -addr-file corec-addrs.json -rate 500 -duration 10s \
//	              -object-bytes 4096 -get-fraction 0.5
//
// The generator is open-loop: operation start times come from the arrival
// process (constant or Poisson), never from service responsiveness, and
// latency is recorded against the intended start so a stalled service
// shows up in the tail instead of silently slowing the schedule.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"time"

	"corec"
	"corec/internal/cluster"
)

func main() {
	scenario := flag.String("scenario", "small-churn", "run label: names the staged variable and seeds its payloads (the load's shape comes from the other flags)")
	arm := flag.String("arm", "none", "fault arm for self-spawned fleets: none, kill-restart")
	servers := flag.Int("servers", 3, "fleet size (self-spawned mode)")
	procs := flag.Int("procs", 3, "process count (self-spawned mode)")
	addrFile := flag.String("addr-file", "", "address map of an external service (skips fleet spawning)")
	rate := flag.Float64("rate", 200, "offered ops/sec")
	duration := flag.Duration("duration", 5*time.Second, "offered load window")
	objectBytes := flag.Int("object-bytes", 1<<10, "payload size")
	slots := flag.Int("slots", 256, "keyspace width (distinct regions)")
	getFraction := flag.Float64("get-fraction", 0.3, "fraction of reads in the mix")
	poisson := flag.Bool("poisson", false, "Poisson arrivals instead of constant spacing")
	nlevel := flag.Int("nlevel", 1, "service NLevel (external mode)")
	k := flag.Int("k", 3, "service Reed-Solomon data shards (external mode)")
	muxConns := flag.Int("mux-conns", 0, "connections per peer (0 = default; sizing only)")
	jsonOut := flag.Bool("json", false, "print the SLO row as JSON")
	flag.Parse()

	ctx := context.Background()
	arrival := cluster.ArrivalConstant
	if *poisson {
		arrival = cluster.ArrivalPoisson
	}
	sc := cluster.Scenario{
		Name:        *scenario,
		Servers:     *servers,
		Procs:       *procs,
		Rate:        *rate,
		Duration:    *duration,
		Arrival:     arrival,
		ObjectBytes: *objectBytes,
		Slots:       *slots,
		GetFraction: *getFraction,
	}

	if *addrFile != "" {
		if err := runExternal(ctx, *addrFile, sc, *nlevel, *k, *muxConns, *jsonOut); err != nil {
			fatal(err)
		}
		return
	}

	row, err := cluster.RunScenario(ctx, sc, cluster.FaultArm(*arm))
	if err != nil {
		fatal(err)
	}
	printRow(row, *jsonOut)
}

// runExternal offers load to an already-running service; fault arms are
// unavailable (we do not own its processes).
func runExternal(ctx context.Context, addrFile string, sc cluster.Scenario, nlevel, k, muxConns int, jsonOut bool) error {
	data, err := os.ReadFile(addrFile)
	if err != nil {
		return err
	}
	var addrs map[corec.ServerID]string
	if err := json.Unmarshal(data, &addrs); err != nil {
		return err
	}
	cfg := corec.DefaultConfig(len(addrs))
	cfg.NLevel = nlevel
	cfg.DataShards = k
	cfg.ElemSize = 1
	cfg.MuxConnsPerPeer = muxConns
	cfg.Membership = &corec.MembershipConfig{}
	cl, err := corec.NewRemoteCluster(cfg, addrs)
	if err != nil {
		return err
	}
	defer cl.Close()

	ledger := cluster.NewLedger()
	if err := sc.Preload(ctx, cl, ledger); err != nil {
		return err
	}
	res := cluster.RunLoad(ctx, cl, cluster.LoadConfig{
		Rate:     sc.Rate,
		Duration: sc.Duration,
		Arrival:  sc.Arrival,
		Workers:  32,
		Seed:     1,
		NextOp:   sc.NextOp,
	}, ledger)
	lost, corrupt, err := cluster.VerifyLedger(ctx, cl, ledger)
	if err != nil {
		return err
	}
	row := &cluster.RunReport{
		Scenario:       sc.Name,
		Arm:            string(cluster.FaultNone),
		Servers:        len(addrs),
		OfferedOps:     res.Offered,
		CompletedOps:   res.Completed,
		FailedOps:      res.Failed,
		OfferedRate:    res.OfferedRate(),
		AchievedRate:   res.AchievedRate(),
		P50Ms:          cluster.Quantile(res.Lat, 0.50),
		P99Ms:          cluster.Quantile(res.Lat, 0.99),
		P999Ms:         cluster.Quantile(res.Lat, 0.999),
		MaxMs:          cluster.Quantile(res.Lat, 1),
		AckedWrites:    ledger.Len(),
		LostObjects:    lost,
		CorruptObjects: corrupt,
	}
	printRow(row, jsonOut)
	return nil
}

func printRow(row *cluster.RunReport, jsonOut bool) {
	if jsonOut {
		data, _ := json.MarshalIndent(row, "", "  ")
		fmt.Println(string(data))
		return
	}
	fmt.Printf("%s/%s on %d servers (%d procs)\n", row.Scenario, row.Arm, row.Servers, row.Procs)
	fmt.Printf("  offered %.1f ops/s (%d ops), achieved %.1f ops/s, %d failed\n",
		row.OfferedRate, row.OfferedOps, row.AchievedRate, row.FailedOps)
	fmt.Printf("  latency p50=%.2fms p99=%.2fms p999=%.2fms max=%.2fms (CO-safe)\n",
		row.P50Ms, row.P99Ms, row.P999Ms, row.MaxMs)
	fmt.Printf("  acked=%d lost=%d corrupt=%d\n", row.AckedWrites, row.LostObjects, row.CorruptObjects)
	if row.Arm == string(cluster.FaultKillRestart) {
		fmt.Printf("  killed=%v repaired=%d degraded reads=%d p99=%.2fms\n",
			row.KilledServers, row.RepairedObjects, row.DegradedReads, row.DegradedP99Ms)
	}
}

func fatal(err error) {
	fmt.Fprintf(os.Stderr, "corec-loadgen: %v\n", err)
	os.Exit(1)
}
