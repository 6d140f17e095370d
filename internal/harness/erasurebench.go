package harness

import (
	"fmt"
	"io"
	"math"
	"math/rand"
	"runtime"
	"time"

	"corec/internal/erasure"
	"corec/internal/gf256"
	"corec/internal/scrub"
)

// Erasure-engine benchmark regression harness: measures the encode path of
// the parallel chunked-fused engine (platform-default kernels, SIMD where
// registered) against the fixed baseline — the seed's serial row-major
// loop pinned to the scalar table kernel — and degraded reconstruction
// with a cold decode matrix against the LRU-cached one, at the
// paper-typical RS geometries, plus the at-rest digest's throughput.
// Pinning the baseline's kernel keeps the workers=1 line constant as
// kernels improve, so the engine line tracks cumulative progress PR over
// PR; each row records which kernel it ran. `make bench` serializes the
// report to BENCH_erasure.json so perf regressions show up as diffs in
// review.

// EncodeBenchRow is one encode measurement.
type EncodeBenchRow struct {
	// Geometry is the RS shape, e.g. "8+3".
	Geometry string `json:"geometry"`
	// Workers is the engine's range-parallelism bound for this row.
	Workers int `json:"workers"`
	// Kernel is the gf256 kernel the row ran: the workers=1 baseline is
	// pinned to "table" (the seed implementation); engine rows use the
	// platform default ("simd" where the CPU supports it).
	Kernel string `json:"kernel"`
	// StripeBytes is the data volume encoded per operation (k * shard).
	StripeBytes int `json:"stripe_bytes"`
	// NsPerByte is encode cost per data byte.
	NsPerByte float64 `json:"ns_per_byte"`
	// SpeedupVsWorkers1 is the workers=1 row's NsPerByte divided by this
	// row's (1.0 on the baseline row itself).
	SpeedupVsWorkers1 float64 `json:"speedup_vs_workers1"`
}

// ReconstructBenchRow is one degraded-reconstruction measurement: a fixed
// erasure pattern of weight m applied repeatedly, with and without the
// decode-matrix cache.
type ReconstructBenchRow struct {
	Geometry string `json:"geometry"`
	// ShardBytes is the size of each shard; small shards make the Gaussian
	// elimination the dominant per-read cost, which is the cache's target.
	ShardBytes int `json:"shard_bytes"`
	// Erased is the number of shards lost per operation (m: the worst case).
	Erased int `json:"erased"`
	// ColdNsPerOp re-derives the decode matrix on every reconstruction.
	ColdNsPerOp float64 `json:"cold_ns_per_op"`
	// CachedNsPerOp hits the LRU after the first reconstruction.
	CachedNsPerOp float64 `json:"cached_ns_per_op"`
	// CachedSpeedup is ColdNsPerOp / CachedNsPerOp.
	CachedSpeedup float64 `json:"cached_speedup"`
}

// DigestBenchRow is one at-rest digest measurement: scrub.Checksum over a
// payload of the given size. Every stored payload (primary copy, replica,
// shard, segment record) pays this once, so it sits beside the encode rows
// as the other per-byte cost of resilience bookkeeping.
type DigestBenchRow struct {
	PayloadBytes int     `json:"payload_bytes"`
	MBps         float64 `json:"MBps"`
}

// ErasureBenchReport is the full harness output, serialized to
// BENCH_erasure.json by `make bench`.
type ErasureBenchReport struct {
	// GOMAXPROCS records the parallelism available when the numbers were
	// taken; workers>1 speedups combine the fused-kernel win (present even
	// on one core) with core scaling (absent on one core).
	GOMAXPROCS int `json:"gomaxprocs"`
	// Quick marks reduced-size smoke runs (not comparable to full runs).
	Quick       bool                  `json:"quick"`
	Encode      []EncodeBenchRow      `json:"encode"`
	Reconstruct []ReconstructBenchRow `json:"reconstruct"`
	Digest      []DigestBenchRow      `json:"digest"`
}

// digestBenchSizes are the payload sizes the digest rows track: the
// small-object regime, a shard of a staged block, and the paper's S3D block.
var digestBenchSizes = []int{1 << 10, 256 << 10, 2 << 20}

// erasureBenchGeometries are the RS shapes the regression tracks: the
// paper's Table I default and the wider stripe common in production EC.
var erasureBenchGeometries = [][2]int{{4, 2}, {8, 3}}

// benchRound times op for one batch of at least batch wall time and returns
// the batch's average ns per operation.
func benchRound(batch time.Duration, op func()) float64 {
	runtime.GC()
	var elapsed time.Duration
	iters := 0
	for elapsed < batch || iters < 2 {
		t0 := time.Now()
		op()
		elapsed += time.Since(t0)
		iters++
	}
	return float64(elapsed.Nanoseconds()) / float64(iters)
}

// benchPair times two competing implementations in alternating rounds and
// returns each arm's best (minimum) round average. Interleaving means host
// noise episodes — GC, scheduler stalls, frequency shifts, noisy neighbors
// on shared machines — hit both arms alike instead of skewing whichever arm
// happened to run during one, and min-of-rounds then discards the disturbed
// windows. The reported A/B ratios are far more reproducible than timing
// each arm in its own block.
func benchPair(batch time.Duration, rounds int, opA, opB func()) (nsA, nsB float64) {
	opA() // warm caches, pools, and lazy allocations outside the clock
	opB()
	nsA, nsB = math.MaxFloat64, math.MaxFloat64
	for r := 0; r < rounds; r++ {
		if a := benchRound(batch, opA); a < nsA {
			nsA = a
		}
		if b := benchRound(batch, opB); b < nsB {
			nsB = b
		}
	}
	return nsA, nsB
}

// RunErasureBench measures encode and degraded-reconstruct costs. quick
// shrinks the stripe from 64 MiB to 8 MiB and the timing floor, for CI
// smoke runs.
func RunErasureBench(quick bool) (*ErasureBenchReport, error) {
	stripeBytes := 64 << 20
	batch, rounds := 150*time.Millisecond, 4
	if quick {
		stripeBytes = 8 << 20
		batch, rounds = 40*time.Millisecond, 2
	}
	workersN := erasure.DefaultWorkers()
	if workersN < 2 {
		// Even on one core the workers>1 arm selects the chunked fused
		// engine, which is the regression being tracked.
		workersN = 2
	}
	rep := &ErasureBenchReport{GOMAXPROCS: runtime.GOMAXPROCS(0), Quick: quick}
	rng := rand.New(rand.NewSource(11))
	// Encode working sets for every geometry are allocated up front, before
	// any benchmarking, for two reasons. First, several independently
	// allocated stripes per geometry, rotated through by both arms:
	// large-buffer throughput varies tens of percent with page/cache layout
	// luck, so a single allocation can flatter (or sandbag) either arm;
	// rotating makes both arms see the same layout mix. Second, fresh
	// mappings for every geometry: allocating one geometry's stripes out of
	// spans another geometry just freed hands the bandwidth-bound serial arm
	// pre-warmed pages the first geometry paid for, skewing its ratio
	// relative to a cold run.
	const stripeSets = 3
	geomSets := make([][][][]byte, len(erasureBenchGeometries))
	for g, geom := range erasureBenchGeometries {
		k, m := geom[0], geom[1]
		shardBytes := stripeBytes / k
		geomSets[g] = make([][][]byte, stripeSets)
		for s := range geomSets[g] {
			geomSets[g][s] = make([][]byte, k+m)
			for i := range geomSets[g][s] {
				geomSets[g][s][i] = make([]byte, shardBytes)
				if i < k {
					rng.Read(geomSets[g][s][i])
				}
			}
		}
	}
	for g, geom := range erasureBenchGeometries {
		k, m := geom[0], geom[1]
		base, err := erasure.New(k, m)
		if err != nil {
			return nil, err
		}
		shardBytes := stripeBytes / k
		sets := geomSets[g]
		encodeOp := func(codec *erasure.Codec) func() {
			return func() {
				for _, shards := range sets {
					if err := codec.Encode(shards); err != nil {
						panic(err)
					}
				}
			}
		}
		serialEncode := encodeOp(base.WithWorkers(1))
		baselineOp := func() {
			// The baseline arm is the seed implementation: row-major loop
			// on the scalar table kernel. SelectKernel is safe here — the
			// serial path runs on this goroutine only, and the flip happens
			// between ops, never during one.
			restore := gf256.SelectKernel(gf256.KernelTable)
			defer restore()
			serialEncode()
		}
		serialNs, engineNs := benchPair(batch, rounds,
			baselineOp, encodeOp(base.WithWorkers(workersN)))
		stripe := k * shardBytes
		perOpBytes := float64(stripeSets * stripe)
		rep.Encode = append(rep.Encode,
			EncodeBenchRow{
				Geometry: fmt.Sprintf("%d+%d", k, m), Workers: 1, Kernel: gf256.KernelTable.String(),
				StripeBytes: stripe,
				NsPerByte:   serialNs / perOpBytes, SpeedupVsWorkers1: 1,
			},
			EncodeBenchRow{
				Geometry: fmt.Sprintf("%d+%d", k, m), Workers: workersN, Kernel: gf256.Kernel().String(),
				StripeBytes: stripe,
				NsPerByte:   engineNs / perOpBytes, SpeedupVsWorkers1: serialNs / engineNs,
			})
	}
	// Drop the stripe-sized encode buffers before the fine-grained
	// reconstruct timings so their collection is not charged to them.
	geomSets = nil
	runtime.GC()
	for _, geom := range erasureBenchGeometries {
		k, m := geom[0], geom[1]
		base, err := erasure.New(k, m)
		if err != nil {
			return nil, err
		}
		// Reconstruct: repeat one worst-case loss pattern (the first m
		// shards). Small shards put the Gauss-Jordan inversion on the
		// critical path — exactly what the decode-matrix cache removes; the
		// 4 KiB row documents where kernel work takes over again.
		for _, reconShard := range []int{256, 4 << 10} {
			orig := make([][]byte, k+m)
			for i := range orig {
				orig[i] = make([]byte, reconShard)
				if i < k {
					rng.Read(orig[i])
				}
			}
			if err := base.Encode(orig); err != nil {
				return nil, err
			}
			work := make([][]byte, k+m)
			reconstructOnce := func(codec *erasure.Codec) {
				copy(work, orig)
				for e := 0; e < m; e++ {
					work[e] = nil
				}
				if err := codec.ReconstructData(work); err != nil {
					panic(err)
				}
			}
			cached := base.WithDecodeCache(erasure.DefaultDecodeCacheEntries)
			cold, warm := benchPair(batch/5, rounds+2,
				func() { reconstructOnce(base) }, func() { reconstructOnce(cached) })
			rep.Reconstruct = append(rep.Reconstruct, ReconstructBenchRow{
				Geometry:      fmt.Sprintf("%d+%d", k, m),
				ShardBytes:    reconShard,
				Erased:        m,
				ColdNsPerOp:   cold,
				CachedNsPerOp: warm,
				CachedSpeedup: cold / warm,
			})
		}
	}
	for _, n := range digestBenchSizes {
		data := make([]byte, n)
		rng.Read(data)
		// 2 MiB of digest work per op at every size, so the clock reads do
		// not dominate the 1 KiB row.
		passes := (2 << 20) / n
		var sink uint64
		op := func() {
			for i := 0; i < passes; i++ {
				sink += scrub.Checksum(data)
			}
		}
		op()
		best := math.MaxFloat64
		for r := 0; r < rounds+2; r++ {
			best = math.Min(best, benchRound(batch/5, op))
		}
		_ = sink
		rep.Digest = append(rep.Digest, DigestBenchRow{
			PayloadBytes: n,
			MBps:         float64(passes*n) / 1e6 / (best / 1e9),
		})
	}
	return rep, nil
}

// WriteErasureBench renders the report as the human-readable companion to
// the JSON artifact.
func WriteErasureBench(w io.Writer, rep *ErasureBenchReport) {
	fmt.Fprintf(w, "Erasure engine benchmarks (GOMAXPROCS=%d, quick=%v)\n", rep.GOMAXPROCS, rep.Quick)
	fmt.Fprintf(w, "%-9s %-8s %-8s %-12s %-10s %s\n", "geometry", "workers", "kernel", "stripe", "ns/byte", "speedup vs workers=1")
	for _, r := range rep.Encode {
		fmt.Fprintf(w, "%-9s %-8d %-8s %-12s %-10.3f %.2fx\n",
			r.Geometry, r.Workers, r.Kernel, fmtBytes(r.StripeBytes), r.NsPerByte, r.SpeedupVsWorkers1)
	}
	fmt.Fprintf(w, "\n%-9s %-10s %-8s %-14s %-14s %s\n", "geometry", "shard", "erased", "cold ns/op", "cached ns/op", "cached speedup")
	for _, r := range rep.Reconstruct {
		fmt.Fprintf(w, "%-9s %-10s %-8d %-14.0f %-14.0f %.2fx\n",
			r.Geometry, fmtBytes(r.ShardBytes), r.Erased, r.ColdNsPerOp, r.CachedNsPerOp, r.CachedSpeedup)
	}
	fmt.Fprintf(w, "\n%-10s %s\n", "payload", "at-rest digest MB/s")
	for _, r := range rep.Digest {
		fmt.Fprintf(w, "%-10s %.0f\n", fmtBytes(r.PayloadBytes), r.MBps)
	}
}

func fmtBytes(n int) string {
	switch {
	case n >= 1<<20 && n%(1<<20) == 0:
		return fmt.Sprintf("%dMiB", n>>20)
	case n >= 1<<10 && n%(1<<10) == 0:
		return fmt.Sprintf("%dKiB", n>>10)
	}
	return fmt.Sprintf("%dB", n)
}
