package metrics

import (
	"math/bits"
	"sync"
	"time"
)

// Histogram is an HDR-style latency histogram: durations are bucketed by
// (power-of-two magnitude, linear sub-bucket), giving a bounded relative
// error of 1/hdrSubBuckets (~1.6%) across the whole range with fixed
// memory — no reservoir sampling, so tail quantiles (p999 and beyond) are
// exact to bucket resolution no matter how many observations arrive.
//
// The load generator records *intended-start* latency into it: the time
// from when an open-loop arrival process scheduled an operation to when
// the operation completed, not from when a free worker got around to
// sending it. That is the coordinated-omission-safe measurement — a stalled
// server inflates every queued operation's latency instead of silently
// pausing the clock (Tene's "How NOT to Measure Latency").
type Histogram struct {
	mu sync.Mutex
	// counts[m*hdrSubBuckets+s] holds observations whose value has
	// magnitude m (top bit position) and linear sub-bucket s.
	counts [hdrMagnitudes * hdrSubBuckets]int64
	total  int64
	max    int64
	min    int64
}

const (
	// hdrSubBits is log2 of the linear sub-buckets per magnitude.
	hdrSubBits    = 6
	hdrSubBuckets = 1 << hdrSubBits
	// hdrMagnitudes covers int64 nanoseconds: values up to ~292 years.
	hdrMagnitudes = 64 - hdrSubBits
)

// NewHistogram returns an empty histogram.
func NewHistogram() *Histogram { return &Histogram{min: -1} }

// hdrIndex maps a non-negative value to its bucket index.
func hdrIndex(v int64) int {
	if v < hdrSubBuckets {
		// Values below one full sub-bucket range are exact.
		return int(v)
	}
	mag := bits.Len64(uint64(v)) - 1 - hdrSubBits // ≥ 0 here
	sub := int(v>>uint(mag)) & (hdrSubBuckets - 1)
	return (mag+1)*hdrSubBuckets + sub
}

// hdrValue returns the representative (midpoint) value of a bucket index —
// the inverse of hdrIndex up to bucket resolution.
func hdrValue(idx int) int64 {
	if idx < hdrSubBuckets {
		return int64(idx)
	}
	mag := idx/hdrSubBuckets - 1
	sub := int64(idx % hdrSubBuckets)
	base := (int64(hdrSubBuckets) + sub) << uint(mag)
	half := int64(1) << uint(mag) / 2
	return base + half
}

// Record adds one observation. Negative durations clamp to zero (the
// scheduler can complete an op marginally before its intended start when
// arrival dispatch runs ahead; that is a zero-latency observation).
func (h *Histogram) Record(d time.Duration) {
	v := int64(d)
	if v < 0 {
		v = 0
	}
	idx := hdrIndex(v)
	h.mu.Lock()
	h.counts[idx]++
	h.total++
	if v > h.max {
		h.max = v
	}
	if h.min < 0 || v < h.min {
		h.min = v
	}
	h.mu.Unlock()
}

// Count returns the number of observations.
func (h *Histogram) Count() int64 {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.total
}

// Max returns the largest recorded value (0 when empty).
func (h *Histogram) Max() time.Duration {
	h.mu.Lock()
	defer h.mu.Unlock()
	return time.Duration(h.max)
}

// Quantile returns the value at quantile q in [0,1]: the representative
// value of the bucket containing the q-th ordered observation. q=1 returns
// the exact recorded maximum.
func (h *Histogram) Quantile(q float64) time.Duration {
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.total == 0 {
		return 0
	}
	if q >= 1 {
		return time.Duration(h.max)
	}
	if q < 0 {
		q = 0
	}
	rank := int64(q * float64(h.total))
	if rank >= h.total {
		rank = h.total - 1
	}
	var seen int64
	for i, c := range h.counts {
		seen += c
		if seen > rank {
			v := hdrValue(i)
			if v > h.max {
				v = h.max // midpoint estimate never exceeds the true max
			}
			return time.Duration(v)
		}
	}
	return time.Duration(h.max)
}

// Merge folds other's observations into h (other is left unchanged).
func (h *Histogram) Merge(other *Histogram) {
	other.mu.Lock()
	counts := other.counts
	total, max, min := other.total, other.max, other.min
	other.mu.Unlock()
	h.mu.Lock()
	for i, c := range counts {
		h.counts[i] += c
	}
	h.total += total
	if max > h.max {
		h.max = max
	}
	if min >= 0 && (h.min < 0 || min < h.min) {
		h.min = min
	}
	h.mu.Unlock()
}
