package main

import (
	"context"
	"fmt"
	"math"
	"path/filepath"
	"runtime"
	"time"

	"corec"
	"corec/internal/classifier"
	"corec/internal/erasure"
	"corec/internal/geometry"
	"corec/internal/gf256"
	"corec/internal/matrix"
	"corec/internal/metrics"
	"corec/internal/placement"
	"corec/internal/policy"
	"corec/internal/storage"
	"corec/internal/transport"
	"corec/internal/types"
)

// prober times calls into one layer's public functions from outside the
// program. Each probe runs until it has probeCalls samples or has used its
// slice of the probe time, and reports the median with the sample count.
type prober struct {
	r     *runner
	calls int
	slice time.Duration
	out   map[string]measured
}

const (
	probeCalls  = 1000
	probeSlices = 24 // the probe share of the run is split evenly over this many probes
)

// sample calls f, which returns the duration of one call, until the probe
// has its calls or has used its time slice.
func (p *prober) sample(f func() time.Duration) []float64 {
	var samples []float64
	start := time.Now()
	for len(samples) < p.calls && (len(samples) < 5 || time.Since(start) < p.slice) {
		samples = append(samples, float64(f()))
	}
	return samples
}

// run stores the median call time under name in units of unitNs
// nanoseconds, and returns it in nanoseconds.
func (p *prober) run(name, unit string, unitNs float64, f func() time.Duration) float64 {
	samples := p.sample(f)
	p.out[name] = measured{Value: median(samples) / unitNs, Unit: unit, IQR: iqr(samples) / unitNs, Samples: int64(len(samples))}
	return median(samples)
}

// rate stores bytes over the median call time under name, in MB/s.
func (p *prober) rate(name string, bytes int, f func() time.Duration) {
	samples := p.sample(f)
	p.set(name, "MB/s", ratio(float64(bytes)/1e6, median(samples)/1e9), int64(len(samples)))
}

func timed(f func()) time.Duration {
	t0 := time.Now()
	f()
	return time.Since(t0)
}

// batched times n back-to-back calls and returns the mean of the batch, for
// calls too short for the clock.
func batched(n int, f func()) func() time.Duration {
	return func() time.Duration {
		t0 := time.Now()
		for i := 0; i < n; i++ {
			f()
		}
		return time.Since(t0) / time.Duration(n)
	}
}

func (p *prober) set(name, unit string, v float64, samples int64) {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		v = 0
	}
	p.out[name] = measured{Value: v, Unit: unit, Samples: samples}
}

// perLayerMetrics derives the per-layer table of a traced run: the p99s,
// the counter deltas over the measured windows, and the layer probes.
func perLayerMetrics(r *runner, ws []windowStats, d counterDelta, e2e map[string]measured, budget time.Duration, o options) map[string]measured {
	p := &prober{r: r, calls: probeCalls, slice: budget / probeSlices, out: make(map[string]measured)}
	if o.quick {
		p.calls = 40
	}
	s := r.spec

	// Pooled samples and window tallies.
	var pooled [numKinds][]float64
	var steps, degraded, mainGets int64
	var ops float64
	var closeMs, dirEntries, encoded, repaired, repairMBps, tracedOps, untracedOps []float64
	var demoted, promoted int
	for i := range ws {
		w := &ws[i]
		for k := range pooled {
			pooled[k] = append(pooled[k], w.lat[k]...)
		}
		steps += int64(w.steps)
		degraded += int64(len(w.lat[kindDegradedGet]))
		mainGets += int64(len(w.lat[kindGet]))
		ops += float64(w.ops) + float64(len(w.lat[kindDegradedGet]))
		closeMs = append(closeMs, w.closeMs...)
		dirEntries = append(dirEntries, float64(w.dirEntries))
		encoded = append(encoded, w.encoded)
		repaired = append(repaired, float64(w.repaired))
		repairMBps = append(repairMBps, ratio(float64(w.repairBytes)/1e6, w.recoverS))
		demoted += w.demoted
		promoted += w.promoted
		rate := float64(w.ops) / w.mainWall.Seconds()
		if w.traced {
			tracedOps = append(tracedOps, rate)
		} else {
			untracedOps = append(untracedOps, rate)
		}
	}
	p99 := func(name string, kind int) {
		p.set(name, "ms", percentile(sortedCopy(pooled[kind]), 0.99), int64(len(pooled[kind])))
	}
	p99("put_p99_ms", kindPut)
	p99("get_p99_ms", kindGet)
	p99("degraded_get_p99_ms", kindDegradedGet)
	p.out["recover_s"] = windowMedian(ws, "s", func(w *windowStats) (float64, int) { return w.recoverS, 1 })

	// Deltas of counters the program already keeps.
	p.set("corec.step_close_ms", "ms", median(closeMs), int64(len(closeMs)))
	p.set("corec.retries_per_kop", "count", ratio(float64(d.retries)*1000, ops), int64(ops))
	p.set("corec.failovers", "count", float64(d.failovers), 1)
	p.set("transport.phase_ms_per_op", "ms", ratio(ms(d.phase[metrics.Transport]), ops), int64(ops))
	p.set("transport.pool_hit_rate", "ratio", ratio(float64(d.poolHits), float64(d.poolHits+d.poolMiss)), d.poolHits+d.poolMiss)
	p.set("transport.mux_redials", "count", float64(d.muxRedials), 1)
	p.set("server.metadata_phase_ms_per_op", "ms", ratio(ms(d.phase[metrics.Metadata]), ops), int64(ops))
	p.set("server.dir_entries", "count", median(dirEntries), int64(len(dirEntries)))
	p.set("server.pending_encodes_max", "count", float64(r.pending), steps/2)
	p.set("server.demotions_per_step", "count", ratio(float64(demoted), float64(steps)), steps)
	p.set("server.promotions_per_step", "count", ratio(float64(promoted), float64(steps)), steps)
	p.set("server.encoded_share", "ratio", median(encoded), int64(len(encoded)))
	p.set("classifier.phase_ms_per_step", "ms", ratio(ms(d.phase[metrics.Classify]), float64(steps)), steps)
	var predictions, hits int64
	for _, srv := range r.servers() {
		if cls := srv.Classifier(); cls != nil {
			pr, h := cls.Stats()
			predictions += pr
			hits += h
		}
	}
	p.set("classifier.prediction_hit_rate", "ratio", ratio(float64(hits), float64(predictions)), predictions)
	p.set("erasure.encode_phase_ms_per_step", "ms", ratio(ms(d.phase[metrics.Encode]), float64(steps)), steps)
	p.set("erasure.decode_phase_ms_per_op", "ms", ratio(ms(d.phase[metrics.Decode]), float64(degraded)), degraded)
	p.set("erasure.decode_cache_hit_rate", "ratio", ratio(float64(d.cacheHits), float64(d.cacheHits+d.cacheMis)), d.cacheHits+d.cacheMis)
	st := &r.storage
	shardReads := float64(mainGets) * 3 // every get of an encoded object reads k = 3 data shards
	p.set("storage.cold_reads_share", "ratio", ratio(float64(st.coldReads), shardReads), int64(shardReads))
	p.set("storage.prefetch_hit_rate", "ratio", ratio(float64(st.prefetchHits), float64(st.coldReads+st.prefetchHits)), st.coldReads+st.prefetchHits)
	p.set("storage.seq_get_p50_us", "us", median(pooled[kindSeqGet])*1000, int64(len(pooled[kindSeqGet])))
	p.set("storage.rand_get_p50_us", "us", median(pooled[kindRandGet])*1000, int64(len(pooled[kindRandGet])))
	p.set("storage.spills", "count", float64(st.spills), 1)
	p.set("storage.backpressure_stalls", "count", float64(st.stalls), 1)
	p.set("storage.compactions", "count", float64(st.compactions), 1)
	p.set("storage.disk_bytes_per_user_byte", "ratio", ratio(float64(st.diskBytes), float64(r.liveBytes())), 1)
	p.set("recovery.objects_repaired", "count", median(repaired), int64(len(repaired)))
	p.set("recovery.repair_MBps", "MB/s", median(repairMBps), int64(len(repairMBps)))
	p.set("runtime.cpu_us_per_op", "us", ratio(float64(d.cpu.Microseconds()), ops), int64(ops))
	p.set("runtime.cpu_util", "ratio", ratio(d.cpu.Seconds(), d.wall.Seconds()*float64(runtime.NumCPU())), 1)
	p.set("runtime.allocs_per_op", "count", ratio(float64(d.mallocs), ops), int64(ops))
	p.set("runtime.alloc_bytes_per_op", "count", ratio(float64(d.allocBytes), ops), int64(ops))
	p.set("runtime.gc_pause_ms", "ms", ms(d.gcPause), int64(d.gcCycles))
	p.set("runtime.gc_cycles", "count", float64(d.gcCycles), 1)

	// Trust in the numbers above.
	p.set("bench.trace_overhead_pct", "%", (1-ratio(median(tracedOps), median(untracedOps)))*100, int64(len(tracedOps)))
	widest, fewest := 0.0, int64(math.MaxInt64)
	all := endToEndMetrics(ws, nil) // every measured window, traced ones too
	for _, name := range []string{"put_p50_ms", "get_p50_ms", "degraded_get_p50_ms", "ops_per_s", "goodput_MBps", "step_ms"} {
		widest = math.Max(widest, ratio(all[name].IQR, all[name].Value)*100)
	}
	for _, name := range []string{"put_p50_ms", "get_p50_ms", "degraded_get_p50_ms"} {
		if n := e2e[name].Samples; n < fewest {
			fewest = n
		}
	}
	p.set("bench.window_iqr_pct", "%", widest, int64(len(ws)))
	p.set("bench.samples_per_window", "count", float64(fewest), 1)

	// Probes: calls into each layer, on this workload's sizes and key counts.
	// A get fetches the whole object from a replica holder, or k shards of a
	// third each when the object is encoded; the probes follow whichever
	// state most objects were in.
	mostlyEncoded := median(encoded) >= 0.5
	fetch := s.objBytes
	if mostlyEncoded {
		fetch = shardBytes(s.objBytes)
	}
	p.pureLayers(s)
	rt := p.transportLayer(s, fetch)
	handle := p.serverLayer(s)
	p.stepClose()
	p.storageLayer(s)

	// What the outside view explains of a put and a get. A put is one round
	// trip carrying the object plus the primary's handler. A get is the
	// directory fan-out and then the fetch. The fan-out is a small round trip
	// to each of the 8 shards in parallel, but their 8 scans share this
	// machine's processors, so it costs 8/nproc scans, not one. For an
	// encoded object the fetch is a stripe lookup and k parallel shard reads
	// of a third of the object each.
	putUs := e2e["put_p50_ms"].Value * 1000
	getUs := e2e["get_p50_ms"].Value * 1000
	scans := math.Max(1, float64(numServers)/float64(runtime.NumCPU()))
	putLayers := (rt.put + handle.put) / 1e3
	getLayers := (rt.small + scans*handle.metaQuery + rt.get + handle.get) / 1e3
	if mostlyEncoded {
		getLayers += rt.small / 1e3
	}
	p.set("corec.put_self_us", "us", putUs-putLayers, 1)
	p.set("corec.get_self_us", "us", getUs-getLayers, 1)
	p.set("bench.put_layer_sum_ratio", "ratio", ratio(putLayers, putUs), 1)
	p.set("bench.get_layer_sum_ratio", "ratio", ratio(getLayers, getUs), 1)
	return p.out
}

// shardBytes is the size of one of an object's k = 3 data shards.
func shardBytes(objBytes int) int { return (objBytes + 2) / 3 }

// pureLayers probes the layers that need no fleet: geometry, placement,
// classifier, policy, erasure, matrix and gf256.
func (p *prober) pureLayers(s *spec) {
	ids := make([]types.ObjectID, len(s.keys))
	for i, k := range s.keys {
		ids[i] = types.ObjectID{Var: k.name, Box: k.box}
	}
	n, i := len(ids), 0
	next := func() types.ObjectID { i++; return ids[i%n] }

	maxCells := int64((4 << 20) / 8)
	p.run("geometry.fitpartition_us", "us", 1e3, batched(16, func() { _, _ = geometry.FitPartition(next().Box, maxCells) }))
	hash := placement.NewHash(numServers)
	p.run("placement.primary_ns", "ns", 1, batched(64, func() { hash.Primary(next()) }))
	p.run("placement.dirshard_ns", "ns", 1, batched(64, func() { hash.DirectoryShard(next().Key()) }))

	cls := classifier.New(classifier.DefaultConfig(s.domain))
	for _, id := range ids {
		cls.RecordWrite(id, 1)
	}
	ts := types.Version(2)
	p.run("classifier.recordwrite_ns", "ns", 1, batched(64, func() { cls.RecordWrite(next(), ts) }))
	p.run("classifier.classify_ns", "ns", 1, batched(64, func() { cls.Classify(next()) }))
	p.run("classifier.advance_us", "us", 1e3, func() time.Duration {
		ts++
		return timed(func() { cls.AdvanceTo(ts) })
	})
	decider, err := policy.NewDecider(policy.Config{Mode: policy.CoREC, NLevel: 1, K: 3, M: 1, StorageEfficiencyMin: 0.67}, cls)
	if err == nil {
		p.run("policy.onput_ns", "ns", 1, batched(64, func() { decider.OnPut(next(), ts, 0.7) }))
	}

	data := make([]byte, s.objBytes)
	p.r.oracle.fill(data, 1, 1)
	codec, err := erasure.New(3, 1)
	if err == nil {
		codec = codec.WithWorkers(0).WithDecodeCache(0)
		p.rate("erasure.encode_MBps", s.objBytes, func() time.Duration {
			return timed(func() {
				shards, _ := codec.Split(data)
				_ = codec.Encode(shards)
			})
		})
		full, _ := codec.Split(data)
		_ = codec.Encode(full)
		p.rate("erasure.reconstruct_MBps", s.objBytes, func() time.Duration {
			lost := [][]byte{nil, full[1], full[2], full[3]}
			return timed(func() { _ = codec.ReconstructData(lost) })
		})
	}
	if gen, err := matrix.RSGenerator(3, 1); err == nil {
		sub := gen.SelectRows([]int{1, 2, 3})
		p.run("matrix.invert_us", "us", 1e3, batched(16, func() { _, _ = sub.Invert() }))
	}
	src, dst := make([]byte, 64<<10), make([]byte, 64<<10)
	copy(src, data)
	p.rate("gf256.muladd_MBps", len(src), batched(8, func() { gf256.MulAddSlice(0x57, src, dst) }))
}

// roundTrips are median nanoseconds over the loopback mux.
type roundTrips struct{ put, get, small float64 }

// transportLayer probes the frame codec and a loopback mux connection of
// the benchmark's own, to an ack/echo handler registered here.
func (p *prober) transportLayer(s *spec, fetch int) roundTrips {
	k := s.keys[0]
	data := make([]byte, s.objBytes)
	p.r.oracle.fill(data, k.hash, 1)
	put := &transport.Message{Kind: transport.MsgPut, Var: k.name, Box: k.box, Version: 1, Data: data}
	var frame []byte
	p.run("transport.encode_us", "us", 1e3, func() time.Duration {
		return timed(func() { frame = transport.Encode(put, frame[:0]) })
	})
	p.run("transport.decode_us", "us", 1e3, func() time.Duration {
		return timed(func() { _, _ = transport.Decode(frame) })
	})

	tn := transport.NewTCPNetwork("127.0.0.1")
	tn.ConfigureMux(1, 0)
	defer tn.Close()
	echo := make([]byte, fetch)
	copy(echo, data)
	tn.Register(0, func(_ context.Context, req *transport.Message) *transport.Message {
		if req.Kind == transport.MsgGet {
			return &transport.Message{Kind: transport.MsgGetBytes, Flag: true, Data: echo}
		}
		return transport.Ok()
	})
	send := func(m *transport.Message) func() time.Duration {
		return func() time.Duration {
			return timed(func() {
				if _, err := tn.Send(p.r.ctx, -1, 0, m); err != nil {
					p.r.fail("transport probe: %v", err)
				}
			})
		}
	}
	var rt roundTrips
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	rt.put = p.run("transport.put_roundtrip_us", "us", 1e3, send(put))
	runtime.ReadMemStats(&after)
	calls := p.out["transport.put_roundtrip_us"].Samples
	p.set("transport.allocs_per_roundtrip", "count", ratio(float64(after.Mallocs-before.Mallocs), float64(calls)), calls)
	p.set("transport.loopback_MBps", "MB/s", ratio(float64(s.objBytes)/1e6, rt.put/1e9), calls)
	rt.get = p.run("transport.get_roundtrip_us", "us", 1e3, send(&transport.Message{Kind: transport.MsgGet, Key: k.name + "@" + k.box.Key()}))
	rt.small = p.run("transport.small_roundtrip_us", "us", 1e3, send(&transport.Message{Kind: transport.MsgMetaQuery, Var: k.name, Box: k.box}))
	return rt
}

// handlerTimes are median nanoseconds of Server.Handle on a live member.
type handlerTimes struct{ put, get, metaQuery float64 }

// serverLayer calls a live fleet member's handler directly, bypassing the
// wire: a put of a probe object on its placed primary, the data fetch a get
// of that object makes, and a directory scan on every shard in turn.
func (p *prober) serverLayer(s *spec) handlerTimes {
	r := p.r
	hash := placement.NewHash(numServers)
	n := len(s.keys)
	if n > 64 {
		n = 64
	}
	type probeKey struct {
		id      types.ObjectID
		hash    uint64
		primary types.ServerID
	}
	keys := make([]probeKey, n)
	for i := range keys {
		id := types.ObjectID{Var: "probe", Box: s.keys[i].box}
		keys[i] = probeKey{id: id, hash: keyHash(id.Var, id.Box.Key()), primary: hash.Primary(id)}
	}
	var h handlerTimes
	i, version := 0, 0
	h.put = p.run("server.handle_put_us", "us", 1e3, func() time.Duration {
		if i%n == 0 {
			version++
		}
		k := keys[i%n]
		i++
		// The handler keeps the buffer it is given, so each call gets its own.
		buf := make([]byte, s.objBytes)
		r.oracle.fill(buf, k.hash, version)
		msg := &transport.Message{Kind: transport.MsgPut, Var: k.id.Var, Box: k.id.Box, Version: types.Version(version), Data: buf}
		return timed(func() {
			if err := r.handle(k.primary, msg).AsError(); err != nil {
				r.fail("handle put probe: %v", err)
			}
		})
	})
	r.waitIdle()

	// The fetch a get of each probe object would make, by its current state.
	type fetch struct {
		to  types.ServerID
		msg *transport.Message
	}
	var fetches []fetch
	metas, err := r.clients[0].cl.Query(p.r.ctx, "probe", corec.Box{})
	if err != nil {
		r.fail("handle get probe: query: %v", err)
	}
	for i := range metas {
		m := &metas[i]
		if m.State != types.StateEncoded {
			fetches = append(fetches, fetch{m.Primary, &transport.Message{Kind: transport.MsgGet, Key: m.ID.Key()}})
			continue
		}
		shard := hash.DirectoryShard(m.Stripe.String())
		resp := r.handle(shard, &transport.Message{Kind: transport.MsgStripeLookup, Stripe: m.Stripe})
		if resp.StripeInfo == nil {
			continue
		}
		if member, ok := resp.StripeInfo.MemberFor(0); ok {
			fetches = append(fetches, fetch{member.Server, &transport.Message{Kind: transport.MsgShardGet, Stripe: m.Stripe, ShardIndex: 0}})
		}
	}
	if len(fetches) > 0 {
		j := 0
		h.get = p.run("server.handle_get_us", "us", 1e3, func() time.Duration {
			f := fetches[j%len(fetches)]
			j++
			return timed(func() {
				if resp := r.handle(f.to, f.msg); !resp.Flag {
					r.fail("handle get probe: %v not found", f.msg.Kind)
				}
			})
		})
	}
	j := 0
	h.metaQuery = p.run("server.handle_metaquery_us", "us", 1e3, func() time.Duration {
		k := s.keys[j%len(s.keys)]
		to := types.ServerID(j % numServers)
		j++
		return timed(func() { r.handle(to, &transport.Message{Kind: transport.MsgMetaQuery, Var: k.name, Box: k.box}) })
	})
	return h
}

// handle calls a live fleet member's handler directly, bypassing the wire.
func (r *runner) handle(id types.ServerID, m *transport.Message) *transport.Message {
	srv := r.cluster.Server(id)
	if srv == nil {
		return transport.Errf("bench: server %d is not running", id)
	}
	return srv.Handle(r.ctx, m)
}

// stepClose runs a few more steps of the workload and closes each by hand,
// one server at a time, to time Server.EndTimeStep and the wait for the
// encode queue that Cluster.EndTimeStep hides inside one call.
func (p *prober) stepClose() {
	r := p.r
	var endstep, drain []float64
	for n := 0; n < 3; n++ {
		r.parallel(func(c *client) {
			c.parent = 0
			r.spec.step(c, r.step)
		})
		for _, srv := range r.servers() {
			endstep = append(endstep, ms(timed(func() { srv.EndTimeStep(p.r.ctx, corec.Version(r.step)) })))
		}
		drain = append(drain, ms(timed(func() {
			for _, srv := range r.servers() {
				srv.WaitEncodeIdle()
			}
		})))
		r.step++
	}
	p.out["server.endstep_ms"] = measured{Value: median(endstep), Unit: "ms", IQR: iqr(endstep), Samples: int64(len(endstep))}
	p.out["server.encode_drain_ms"] = measured{Value: median(drain), Unit: "ms", IQR: iqr(drain), Samples: int64(len(drain))}
}

// storageLayer probes a stand-alone storage engine with the workload's
// budgets and shard size: memory only for the in-RAM workloads, L1 plus a
// disk tier for tiered-scan.
func (p *prober) storageLayer(s *spec) {
	cfg := storage.Config{}
	if s.memBytes > 0 {
		cfg = storage.Config{MemBytes: s.memBytes, Dir: filepath.Join(p.r.tmp, "probe-engine")}
	}
	eng, err := storage.Open(cfg, nil, "")
	if err != nil {
		p.r.fail("storage probe: %v", err)
		return
	}
	defer eng.Close()
	shard := shardBytes(s.objBytes)
	nKeys := 64
	if s.memBytes > 0 {
		nKeys = int(4*s.memBytes) / shard
	}
	i := 0
	p.run("storage.put_us", "us", 1e3, func() time.Duration {
		buf := make([]byte, shard) // the engine keeps the slice
		buf[0] = byte(i)
		key := fmt.Sprintf("probe-%d", i%nKeys)
		i++
		return timed(func() { eng.Put(key, buf) })
	})
	eng.WaitIdle()
	// Cold reads first: a disk read promotes the key to L1, so each cold key
	// is read once, and the memory probe then reads what L1 holds.
	tierKeys := func(want storage.Tier) []string {
		var out []string
		for _, k := range eng.Keys() {
			if t, ok := eng.TierOf(k); ok && t == want {
				out = append(out, k)
			}
		}
		return out
	}
	p.set("storage.get_disk_us", "us", 0, 0)
	p.set("storage.get_mem_us", "us", 0, 0)
	if onDisk := tierKeys(storage.TierDisk); len(onDisk) > 0 {
		var samples []float64
		for _, k := range onDisk {
			samples = append(samples, float64(timed(func() { eng.Get(k) })))
		}
		p.out["storage.get_disk_us"] = measured{Value: median(samples) / 1e3, Unit: "us", IQR: iqr(samples) / 1e3, Samples: int64(len(samples))}
	}
	if inMem := tierKeys(storage.TierMem); len(inMem) > 0 {
		j := 0
		p.run("storage.get_mem_us", "us", 1e3, batched(8, func() { eng.Get(inMem[j%len(inMem)]); j++ }))
	}
}
