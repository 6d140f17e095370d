package main

import (
	"context"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"time"

	"corec"
	"corec/internal/server"
)

// numServers is the fleet size: two RS(3+1) coding groups.
const numServers = 8

// numClients is C, the closed-loop client goroutines: two, and never more
// than the machine has processors.
func numClients() int {
	if runtime.NumCPU() < 2 {
		return 1
	}
	return 2
}

// Sample kinds. The tiered-scan scan and random reads are gets too and are
// recorded under both their own kind and kindGet.
const (
	kindPut = iota
	kindGet
	kindDegradedGet
	kindSeqGet
	kindRandGet
	kindVerify // end-of-run read-back; checked, not timed
	numKinds
)

// client is one closed-loop caller: it issues its next put or get only
// after the previous one returned. It is used from one goroutine at a time.
type client struct {
	r      *runner
	cl     *corec.Client
	rng    *rand.Rand
	own    []int // indices of the keys this client writes and reads
	sweep  []int // own in a seeded order, for the degraded gets
	swept  int
	buf    []byte
	tr     *tracer
	parent int64 // span the current ops hang off

	lat               [numKinds][]float64 // ms, since the window began
	ops, bytes        int64               // completed puts+gets since the phase began
	attempted, failed int64
}

// runner owns one fleet and the state the oracle needs to check it.
type runner struct {
	spec    *spec
	ctx     context.Context
	cluster *corec.Cluster
	clients []*client
	oracle  *oracle
	acked   []int // last acknowledged version per key; written by the key's owner only
	tr      *tracer
	tmp     string
	step    int
	window  int
	// traceRun marks the traced invocation: counters are snapshotted around
	// each main phase and the encode queue is sampled in traced windows.
	traceRun bool
	storage  storageDelta
	pending  int // largest encode-queue depth sampled before a step closed
	// cycles and cyclesFailed count failure cycles as ops of their own: a
	// Replace or RunRecovery that errors fails the run like a bad get does.
	cycles, cyclesFailed int64

	failMu   sync.Mutex
	failures []string
}

func (s *spec) config(tmp string) corec.Config {
	cfg := corec.DefaultConfig(numServers)
	cfg.Mode = s.mode
	cfg.Domain = s.domain
	cfg.Transport = "tcp"
	cfg.MuxConnsPerPeer = 1
	if s.memBytes > 0 {
		cfg.Storage = &corec.StorageConfig{MemBytes: s.memBytes, Dir: tmp, Prefetch: true}
	}
	return cfg
}

// newRunner starts a fleet, stages every key at its preload version and
// returns once every server's background work has drained: the set-up whose
// wall time is setup_s.
func newRunner(ctx context.Context, s *spec, seed int64, tmpRoot string, epoch time.Time) (*runner, error) {
	r := &runner{
		spec:   s,
		ctx:    ctx,
		oracle: newOracle(s.objBytes),
		acked:  make([]int, len(s.keys)),
		tr:     newTracer(epoch, 0),
		step:   s.firstStep,
	}
	if s.memBytes > 0 {
		tmp, err := os.MkdirTemp(tmpRoot, "l2-")
		if err != nil {
			return nil, err
		}
		r.tmp = tmp
	}
	cluster, err := corec.NewCluster(s.config(r.tmp))
	if err != nil {
		r.removeTmp()
		return nil, err
	}
	r.cluster = cluster
	c := numClients()
	for i := 0; i < c; i++ {
		cl := &client{
			r:   r,
			cl:  cluster.NewClient(),
			rng: rand.New(rand.NewSource(seed*1000003 + int64(i))),
			buf: make([]byte, s.objBytes),
			tr:  newTracer(epoch, i+1),
		}
		for k := range s.keys {
			if k%c == i {
				cl.own = append(cl.own, k)
			}
		}
		cl.sweep = append([]int(nil), cl.own...)
		cl.rng.Shuffle(len(cl.sweep), func(a, b int) { cl.sweep[a], cl.sweep[b] = cl.sweep[b], cl.sweep[a] })
		r.clients = append(r.clients, cl)
	}
	r.parallel(func(c *client) {
		for _, k := range c.own {
			c.put(k, s.preloadVersion(k))
		}
	})
	r.cluster.EndTimeStep(corec.Version(s.firstStep - 1))
	r.waitIdle()
	return r, nil
}

func (r *runner) close() {
	r.cluster.Close()
	r.removeTmp()
}

func (r *runner) removeTmp() {
	if r.tmp != "" {
		os.RemoveAll(r.tmp)
	}
}

func (r *runner) servers() []*server.Server {
	var out []*server.Server
	for i := 0; i < numServers; i++ {
		if s := r.cluster.Server(corec.ServerID(i)); s != nil {
			out = append(out, s)
		}
	}
	return out
}

func (r *runner) waitIdle() {
	for _, s := range r.servers() {
		s.WaitEncodeIdle()
		if r.spec.memBytes > 0 {
			s.WaitStorageIdle()
		}
	}
}

// parallel runs f once per client, each on its own goroutine, and waits.
func (r *runner) parallel(f func(c *client)) {
	var wg sync.WaitGroup
	for _, c := range r.clients {
		wg.Add(1)
		go func(c *client) {
			defer wg.Done()
			f(c)
		}(c)
	}
	wg.Wait()
}

func (r *runner) fail(format string, args ...any) {
	r.failMu.Lock()
	defer r.failMu.Unlock()
	if len(r.failures) < 8 {
		r.failures = append(r.failures, fmt.Sprintf(format, args...))
	}
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// put stages key k at version and records the call's latency.
func (c *client) put(k, version int) {
	key := &c.r.spec.keys[k]
	c.r.oracle.fill(c.buf, key.hash, version)
	sp := c.tr.begin("put", c.parent, 0)
	t0 := time.Now()
	err := c.cl.Put(c.r.ctx, key.name, key.box, corec.Version(version), c.buf)
	d := time.Since(t0)
	c.tr.end(sp)
	c.attempted++
	if err != nil {
		c.failed++
		c.r.fail("put %s v%d: %v", key.name+"@"+key.box.Key(), version, err)
		return
	}
	c.r.acked[k] = version
	c.lat[kindPut] = append(c.lat[kindPut], ms(d))
	c.ops++
	c.bytes += int64(len(c.buf))
}

// get reads key k and checks every byte against the oracle; the latency
// recorded runs from the call to verified bytes.
func (c *client) get(k, kind int) {
	key := &c.r.spec.keys[k]
	version := c.r.acked[k]
	name := "get"
	if kind == kindDegradedGet {
		name = "degraded_get"
	}
	sp := c.tr.begin(name, c.parent, 0)
	t0 := time.Now()
	data, err := c.cl.Get(c.r.ctx, key.name, key.box, corec.Version(version))
	ok := err == nil && c.r.oracle.check(data, key.hash, version)
	d := time.Since(t0)
	c.tr.end(sp)
	c.attempted++
	if !ok {
		c.failed++
		if err == nil {
			err = fmt.Errorf("bytes differ from the payload of version %d (%s)", version, c.r.oracle.describe(data, key.hash, version))
		}
		c.r.fail("%s %s: %v", name, key.name+"@"+key.box.Key(), err)
		return
	}
	switch kind {
	case kindVerify:
		return
	case kindSeqGet, kindRandGet:
		c.lat[kindGet] = append(c.lat[kindGet], ms(d))
	}
	c.lat[kind] = append(c.lat[kind], ms(d))
	c.ops++
	c.bytes += int64(len(data))
}

// windowStats is what one window measured.
type windowStats struct {
	traced bool
	// lat holds the window's latency samples by kind, in ms.
	lat [numKinds][]float64
	// Main phase: healthy steps until the phase's time share is used.
	steps      int
	ops, bytes int64
	mainWall   time.Duration
	stepMs     []float64
	closeMs    []float64
	demoted    int
	promoted   int
	overhead   float64
	encoded    float64 // share of primary objects in encoded state
	dirEntries int
	// Failure cycle.
	recoverS    float64
	repaired    int
	repairBytes int64
}

// storageDelta accumulates the tiered engines' counters over main phases.
// A killed server takes its counters with it, so deltas are taken only
// across spans in which no server is replaced.
type storageDelta struct {
	spills, stalls, compactions int64
	coldReads, prefetchHits     int64
	diskBytes                   int64 // live disk bytes after the last main phase
}

func (r *runner) setTracing(on bool) {
	r.tr.on = on
	for _, c := range r.clients {
		c.tr.on = on
	}
}

// runWindow runs one window: healthy time steps for the main share of
// budget, then one failure cycle — kill a server, read degraded for the
// degraded share, replace it and recover.
func (r *runner) runWindow(budget time.Duration, traced bool) windowStats {
	w := windowStats{traced: traced}
	r.setTracing(traced)
	win := r.tr.begin("window", 0, 0)
	for _, c := range r.clients {
		for k := range c.lat {
			c.lat[k] = c.lat[k][:0]
		}
		c.ops, c.bytes = 0, 0
	}
	var before corec.StorageStatus
	if r.traceRun {
		before = r.cluster.FabricStatus().Storage
	}

	mainBudget := time.Duration(float64(budget) * r.spec.mainShare)
	start := time.Now()
	for w.steps == 0 || time.Since(start) < mainBudget {
		r.runStep(&w, win, traced)
	}
	w.mainWall = time.Since(start)
	for _, c := range r.clients {
		w.ops += c.ops
		w.bytes += c.bytes
	}

	rep := r.cluster.StorageReport()
	w.overhead = ratio(float64(rep.ObjectBytes+rep.ReplicaBytes+rep.ShardBytes), float64(r.liveBytes()))
	w.encoded = ratio(float64(rep.Encoded), float64(rep.Encoded+rep.Replicated))
	if r.traceRun {
		after := r.cluster.FabricStatus().Storage
		r.storage.spills += after.Spills - before.Spills
		r.storage.stalls += after.BackpressureStalls - before.BackpressureStalls
		r.storage.compactions += after.Compactions - before.Compactions
		r.storage.coldReads += after.ColdReads - before.ColdReads
		r.storage.prefetchHits += after.PrefetchHits - before.PrefetchHits
		r.storage.diskBytes = after.DiskBytes
		for _, s := range r.servers() {
			w.dirEntries += s.CollectStats().DirEntries
		}
	}

	r.failureCycle(&w, win, time.Duration(float64(budget)*r.spec.degradedShare))

	for _, c := range r.clients {
		for k := range c.lat {
			w.lat[k] = append(w.lat[k], c.lat[k]...)
		}
	}
	r.tr.end(win)
	r.window++
	return w
}

// runStep runs one time step: every client's share of the step's puts and
// gets, then the step closes on every server.
func (r *runner) runStep(w *windowStats, parent int64, traced bool) {
	sp := r.tr.begin("step", parent, 0)
	t0 := time.Now()
	r.parallel(func(c *client) {
		c.parent = sp
		r.spec.step(c, r.step)
	})
	if traced {
		for _, s := range r.servers() {
			if n := s.CollectStats().PendingEncodes; n > r.pending {
				r.pending = n
			}
		}
	}
	cs := r.tr.begin("endstep", sp, sp)
	tc := time.Now()
	d, p := r.cluster.EndTimeStep(corec.Version(r.step))
	w.closeMs = append(w.closeMs, ms(time.Since(tc)))
	r.tr.end(cs)
	w.stepMs = append(w.stepMs, ms(time.Since(t0)))
	r.tr.end(sp)
	w.demoted += d
	w.promoted += p
	w.steps++
	r.step++
}

// failureCycle kills one server, reads with it dead, then replaces it and
// runs aggressive recovery. recover_s is Replace plus RunRecovery. The
// victim rotates over the fleet, so over stripe positions, on a schedule
// that does not depend on the seed: key placement does not either, so every
// run recovers the same amounts of data in the same order.
func (r *runner) failureCycle(w *windowStats, parent int64, degraded time.Duration) {
	victim := corec.ServerID(r.window % numServers)
	r.cycles++
	fc := r.tr.begin("failure_cycle", parent, 0)
	sp := r.tr.begin("kill", fc, fc)
	r.cluster.Kill(victim)
	r.tr.end(sp)

	// Degraded gets sweep each client's keys in a seeded order instead of
	// drawing them: whether a get must reconstruct depends on the key, and a
	// sweep keeps the share that does the same in every window.
	deadline := time.Now().Add(degraded)
	r.parallel(func(c *client) {
		c.parent = fc
		for n := 0; n < 8 || time.Now().Before(deadline); n++ {
			c.get(c.sweep[c.swept%len(c.sweep)], kindDegradedGet)
			c.swept++
		}
	})

	if r.tmp != "" {
		// The replacement is a fresh node with an empty disk (Section III-D),
		// not a restart over the victim's segments: see README, "Found while
		// building this".
		os.RemoveAll(filepath.Join(r.tmp, fmt.Sprintf("server-%03d", victim)))
	}
	t0 := time.Now()
	sp = r.tr.begin("replace", fc, fc)
	srv, err := r.cluster.Replace(victim)
	r.tr.end(sp)
	if err != nil {
		r.cyclesFailed++
		r.fail("replace server %d: %v", victim, err)
		r.tr.end(fc)
		return
	}
	sp = r.tr.begin("recover", fc, fc)
	w.repaired, err = srv.RunRecovery(r.ctx, corec.RecoveryAggressive)
	r.tr.end(sp)
	w.recoverS = time.Since(t0).Seconds()
	if err != nil {
		r.cyclesFailed++
		r.fail("recover server %d: %v", victim, err)
	}
	o, rep, sh := srv.StorageUsage()
	w.repairBytes = o + rep + sh
	sp = r.tr.begin("wait_encode_idle", fc, fc)
	r.waitIdle()
	r.tr.end(sp)
	r.tr.end(fc)
}

// liveBytes is the user data currently staged: every key holds one object.
func (r *runner) liveBytes() int64 {
	var n int64
	for _, v := range r.acked {
		if v > 0 {
			n += int64(r.spec.objBytes)
		}
	}
	return n
}

// verifyAll reads back every acknowledged write.
func (r *runner) verifyAll() {
	r.setTracing(false)
	r.parallel(func(c *client) {
		for _, k := range c.own {
			if r.acked[k] > 0 {
				c.get(k, kindVerify)
			}
		}
	})
}

func (r *runner) tally() (attempted, failed int64) {
	attempted, failed = r.cycles, r.cyclesFailed
	for _, c := range r.clients {
		attempted += c.attempted
		failed += c.failed
	}
	return
}
