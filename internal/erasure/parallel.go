package erasure

// The erasure engine: a bounded worker pool that shards Encode, Verify and
// Reconstruct across disjoint byte-ranges of the stripe, plus the fused,
// cache-blocked inner loops it runs on each range. It is the codec's only
// arithmetic path; a one-worker codec runs the whole stripe as one range.
//
// Two independent effects make this path fast:
//
//   - Fused kernels. Row-major encoding makes k read-modify-write passes
//     over every parity shard. The range engine instead walks the stripe in
//     chunkBytes blocks and, per block, accumulates four data sources at a
//     time into the parity chunk (gf256.MulAddSlice4), so the destination
//     chunk is written once per group of four sources and stays resident in
//     L1/L2 across the whole generator row. On a single core this alone
//     measures ~3x over the row-major loop on stripe-sized data.
//   - Range parallelism. Byte-ranges of a stripe are independent, so they
//     are fanned out to a pool of at most GOMAXPROCS goroutines. Ranges are
//     disjoint and each range's output depends only on the immutable inputs,
//     so the result is byte-identical regardless of scheduling — the package
//     stays deterministic (detrand-clean: no clocks, no randomness).
//
// The pool is package-level and lazy: goroutines are spawned on demand, and
// the whole fleet is bounded by GOMAXPROCS at spawn time. Submission never
// blocks — if no worker is free the caller runs the range inline, which also
// keeps the pool deadlock-free without needing queue depth tuning.

import (
	"runtime"
	"sync"

	"corec/internal/gf256"
	"corec/internal/matrix"
)

// chunkBytes is the cache block the fused inner loops walk the stripe in.
// 32 KiB keeps a data chunk plus a parity chunk comfortably inside L1/L2
// while amortizing loop overhead; measured best among 8..256 KiB.
const chunkBytes = 32 << 10

// DefaultWorkers returns the default parallelism for the encode engine:
// GOMAXPROCS, the most goroutines that can make simultaneous progress.
func DefaultWorkers() int { return runtime.GOMAXPROCS(0) }

// --- bounded worker pool ---

var (
	poolMu      sync.Mutex
	poolWorkers int
	poolTasks   = make(chan func())
)

func poolWorker() {
	for fn := range poolTasks {
		fn()
	}
}

// trySubmit hands fn to an idle pool worker, spawning one if the fleet is
// below GOMAXPROCS. It reports false — without blocking — when every worker
// is busy, in which case the caller runs fn itself.
func trySubmit(fn func()) bool {
	select {
	case poolTasks <- fn:
		return true
	default:
	}
	poolMu.Lock()
	if poolWorkers < runtime.GOMAXPROCS(0) {
		poolWorkers++
		go poolWorker()
	}
	poolMu.Unlock()
	// The fresh worker may not be receiving yet; fall back inline if not.
	select {
	case poolTasks <- fn:
		return true
	default:
		return false
	}
}

// run partitions [0, size) into up to parts chunk-aligned ranges and invokes
// fn on each, using pool workers for all but the last range, which the
// caller runs itself instead of idling. It returns when every range is done.
func run(size, parts int, fn func(lo, hi int)) {
	per := (size + parts - 1) / parts
	if rem := per % chunkBytes; rem != 0 {
		per += chunkBytes - rem
	}
	if per >= size {
		fn(0, size)
		return
	}
	var wg sync.WaitGroup
	lo := 0
	for ; lo+per < size; lo += per {
		lo, hi := lo, lo+per
		wg.Add(1)
		task := func() {
			defer wg.Done()
			fn(lo, hi)
		}
		if !trySubmit(task) {
			task()
		}
	}
	fn(lo, size)
	wg.Wait()
}

// mulRowChunk sets out to the sum of row[j] * srcs[j][lo:hi] over every j,
// fusing four sources per pass. The first group uses the "set" kernels, so
// out needs no pre-clear and its bytes are written (not read-modified) on
// the opening pass; the remaining groups accumulate. out must already be
// the [lo:hi] window of its shard.
func mulRowChunk(out []byte, row []byte, srcs [][]byte, lo, hi int) {
	var j int
	switch {
	case len(srcs) >= 4:
		gf256.MulSlice4(row[0], row[1], row[2], row[3],
			srcs[0][lo:hi], srcs[1][lo:hi], srcs[2][lo:hi], srcs[3][lo:hi], out)
		j = 4
	case len(srcs) >= 2:
		gf256.MulSlice2(row[0], row[1], srcs[0][lo:hi], srcs[1][lo:hi], out)
		j = 2
	default:
		gf256.MulSlice(row[0], srcs[0][lo:hi], out)
		j = 1
	}
	for ; j+4 <= len(srcs); j += 4 {
		gf256.MulAddSlice4(row[j], row[j+1], row[j+2], row[j+3],
			srcs[j][lo:hi], srcs[j+1][lo:hi], srcs[j+2][lo:hi], srcs[j+3][lo:hi], out)
	}
	if j+2 <= len(srcs) {
		gf256.MulAddSlice2(row[j], row[j+1], srcs[j][lo:hi], srcs[j+1][lo:hi], out)
		j += 2
	}
	if j < len(srcs) {
		gf256.MulAddSlice(row[j], srcs[j][lo:hi], out)
	}
}

// encodeRange computes every parity shard's [lo:hi] window from the data
// shards' same window, walking in cache-sized blocks so the data chunks are
// reused across all m generator rows while still hot.
func (c *Codec) encodeRange(shards [][]byte, lo, hi int) {
	data := shards[:c.k]
	for clo := lo; clo < hi; clo += chunkBytes {
		chi := min(clo+chunkBytes, hi)
		for p := 0; p < c.m; p++ {
			mulRowChunk(shards[c.k+p][clo:chi], c.gen.Row(c.k+p), data, clo, chi)
		}
	}
}

// reconstructRange recovers the [lo:hi] window of every missing shard.
// Within each cache block the missing data windows are recovered from the
// survivors first, then any missing parity windows are re-encoded from the
// (now complete for this block) data view — so a single pass needs no
// cross-range coordination.
func (c *Codec) reconstructRange(newBufs [][]byte, survivors, dataView [][]byte, dec *matrix.Matrix, missing []int, dataOnly bool, lo, hi int) {
	for clo := lo; clo < hi; clo += chunkBytes {
		chi := min(clo+chunkBytes, hi)
		for _, idx := range missing {
			if idx >= c.k {
				continue
			}
			mulRowChunk(newBufs[idx][clo:chi], dec.Row(idx), survivors, clo, chi)
		}
		if dataOnly {
			continue
		}
		for _, idx := range missing {
			if idx < c.k {
				continue
			}
			mulRowChunk(newBufs[idx][clo:chi], c.gen.Row(idx), dataView, clo, chi)
		}
	}
}
