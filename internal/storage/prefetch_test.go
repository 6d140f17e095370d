package storage

import (
	"bytes"
	"fmt"
	"sort"
	"testing"
	"time"
)

func TestSequentialReadsArmPrefetcher(t *testing.T) {
	e, err := Open(Config{
		Dir:           t.TempDir(),
		MemBytes:      2048,
		Prefetch:      true,
		prefetchDepth: 4,
		prefetchMBps:  4096, // effectively unpaced: the test exercises staging, not pacing
	}, nil, "")
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = e.Close() }()

	// Two sequential time steps, all spilled cold.
	const perEpoch = 16
	key := func(ep, i int) string { return fmt.Sprintf("e%d-k%02d", ep, i) }
	for ep := 0; ep < 2; ep++ {
		for i := 0; i < perEpoch; i++ {
			e.PutTagged(key(ep, i), payload(ep*perEpoch+i, 256), int64(ep))
		}
	}
	e.WaitIdle()

	// Replay the epoch-0 reads in arrival order. The second in-order read
	// arms the detector; from there the pipeline stages ahead of the scan.
	for i := 0; i < perEpoch; i++ {
		got, ok := e.Get(key(0, i))
		if !ok || !bytes.Equal(got, payload(i, 256)) {
			t.Fatalf("epoch-0 read %d failed: ok=%v", i, ok)
		}
		// Let staging land so later reads can hit it — the test wants
		// deterministic hit counts, not a race with the worker.
		e.WaitIdle()
	}
	st := e.Stats()
	if st.PrefetchIssued == 0 {
		t.Fatalf("sequential scan never staged anything: %+v", st)
	}
	if st.PrefetchHits == 0 {
		t.Fatalf("staged keys never hit: %+v", st)
	}
	// Sequential time-step detection: the epoch-0 scan must also have
	// staged the head of epoch 1 before any epoch-1 read happened.
	e.mu.Lock()
	headStaged := e.entries[key(1, 0)].tier == TierMem
	e.mu.Unlock()
	if !headStaged {
		t.Fatal("next time step's head was not staged ahead of access")
	}
	hits0 := st.PrefetchHits
	for i := 0; i < perEpoch; i++ {
		if got, ok := e.Get(key(1, i)); !ok || !bytes.Equal(got, payload(perEpoch+i, 256)) {
			t.Fatalf("epoch-1 read %d failed: ok=%v", i, ok)
		}
		e.WaitIdle()
	}
	if got := e.Stats().PrefetchHits; got <= hits0 {
		t.Fatalf("epoch-1 scan gained no prefetch hits: %d -> %d", hits0, got)
	}
}

func TestRandomReadsDoNotArmPrefetcher(t *testing.T) {
	e, err := Open(Config{
		Dir:      t.TempDir(),
		MemBytes: 1024,
		Prefetch: true,
	}, nil, "")
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = e.Close() }()
	const n = 16
	for i := 0; i < n; i++ {
		e.PutTagged(fmt.Sprintf("k%02d", i), payload(i, 256), 0)
	}
	e.WaitIdle()
	// A strided scan never produces two consecutive in-order reads.
	for i := 0; i < n; i += 5 {
		if _, ok := e.Get(fmt.Sprintf("k%02d", i)); !ok {
			t.Fatalf("read %d failed", i)
		}
	}
	e.WaitIdle()
	if st := e.Stats(); st.PrefetchIssued != 0 {
		t.Fatalf("random access pattern triggered prefetch: %+v", st)
	}
}

// TestPrefetchCarriesTimedScan stages a working set ten times the L1 budget
// (disk holds half of it, a modeled remote the rest) and reads it back epoch
// by epoch, spending a fixed compute time after each block as an analysis
// pass does: that window is what the prefetcher overlaps with, and only the
// get itself is timed. An unbounded all-in-memory engine and the same tiers
// with prefetch off run the identical workload. Every read must be served,
// the memory arm must never leave L1, and the prefetcher must carry the
// scan: all but a handful of reads (the detector needs the first reads of
// the scan to arm) found staged, which puts the median an order of magnitude
// under the no-prefetch arm's cold-read median.
func TestPrefetchCarriesTimedScan(t *testing.T) {
	if testing.Short() {
		t.Skip("times real disk I/O")
	}
	const (
		epochs, keys, objBytes = 6, 16, 32 << 10
		setBytes               = epochs * keys * objBytes
		compute                = 300 * time.Microsecond
	)
	key := func(ep, k int) string { return fmt.Sprintf("e%03d/k%04d", ep, k) }
	// scan runs one arm (memBytes 0 = unbounded, no lower tiers) and
	// returns the engine's counters and the median get latency.
	scan := func(memBytes int64, prefetch bool) (Stats, time.Duration) {
		cfg := Config{MemBytes: memBytes}
		var remote *RemoteStore
		if memBytes > 0 {
			remoteCfg := RemoteConfig{OpenLatency: 200 * time.Microsecond, BytesPerSecond: 1 << 30}
			cfg.Dir = t.TempDir()
			cfg.DiskBytes = setBytes / 2
			cfg.Remote = &remoteCfg
			remote = NewRemoteStore(remoteCfg)
			cfg.Prefetch = prefetch
			cfg.prefetchDepth = keys // stage a whole next epoch per observation
			cfg.prefetchMBps = 4096
		}
		e, err := Open(cfg, remote, "scan/")
		if err != nil {
			t.Fatal(err)
		}
		defer func() { _ = e.Close() }()
		for ep := 0; ep < epochs; ep++ {
			for k := 0; k < keys; k++ {
				e.PutTagged(key(ep, k), payload(ep*keys+k, objBytes), int64(ep+1))
			}
		}
		e.WaitIdle()
		lat := make([]time.Duration, 0, epochs*keys)
		for ep := 0; ep < epochs; ep++ {
			for k := 0; k < keys; k++ {
				t0 := time.Now()
				if _, ok := e.Get(key(ep, k)); !ok {
					t.Fatalf("memBytes %d, prefetch %v: %s not served", memBytes, prefetch, key(ep, k))
				}
				lat = append(lat, time.Since(t0))
				time.Sleep(compute)
			}
		}
		sort.Slice(lat, func(i, j int) bool { return lat[i] < lat[j] })
		return e.Stats(), lat[len(lat)/2]
	}

	mem, _ := scan(0, false)
	tiered, tieredP50 := scan(setBytes/10, true)
	np, npP50 := scan(setBytes/10, false)
	var hitRate float64
	if total := tiered.ColdReads + tiered.PrefetchHits; total > 0 {
		hitRate = float64(tiered.PrefetchHits) / float64(total)
	}
	t.Logf("tiered: p50 %v, %d spills, %d cold reads, %d prefetch hits (rate %.2f); no-prefetch: p50 %v, %d cold reads",
		tieredP50, tiered.Spills, tiered.ColdReads, tiered.PrefetchHits, hitRate, npP50, np.ColdReads)

	if mem.Spills != 0 || mem.ColdReads != 0 {
		t.Fatalf("mem arm touched lower tiers: %+v", mem)
	}
	if tiered.Spills == 0 || tiered.ColdReads+tiered.PrefetchHits == 0 {
		t.Fatalf("tiered arm never left L1: %+v", tiered)
	}
	if np.PrefetchIssued != 0 {
		t.Fatalf("no-prefetch arm issued prefetches: %+v", np)
	}
	if tiered.PrefetchIssued == 0 {
		t.Fatalf("tiered arm never prefetched: %+v", tiered)
	}
	if tiered.ColdReads > 8 || hitRate < 0.9 {
		t.Fatalf("prefetcher lost the sequential scan: %d cold reads, hit rate %.2f (want <= 8, >= 0.9): %+v",
			tiered.ColdReads, hitRate, tiered)
	}
	if tieredP50 > npP50/10 {
		t.Fatalf("tiered p50 %v not 10x under no-prefetch p50 %v", tieredP50, npP50)
	}
}
