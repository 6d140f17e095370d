package erasure

import (
	"bytes"
	"math/rand"
	"testing"
)

// Fuzz-style sweep of Codec.Reconstruct/ReconstructData in the transport
// fuzz_test.go spirit: seeded randomness, recover() guards, and exhaustive
// pattern enumeration where the space is small. The properties under test:
//
//  1. any erasure pattern of weight <= m round-trips byte-exact, and
//  2. any pattern of weight > m returns an error and never panics,
//
// both through a one-worker codec and a pooled one with a decode cache.

// enumeratePatterns calls fn with every subset of {0..n-1} of size exactly w.
func enumeratePatterns(n, w int, fn func(pattern []int)) {
	pattern := make([]int, w)
	var rec func(start, depth int)
	rec = func(start, depth int) {
		if depth == w {
			fn(pattern)
			return
		}
		for i := start; i < n; i++ {
			pattern[depth] = i
			rec(i+1, depth+1)
		}
	}
	rec(0, 0)
}

func mustNotPanic(t *testing.T, ctx string, fn func() error) (err error) {
	t.Helper()
	defer func() {
		if r := recover(); r != nil {
			t.Fatalf("%s: panic: %v", ctx, r)
		}
	}()
	return fn()
}

// TestFuzzReconstructAllPatterns enumerates EVERY erasure pattern — all
// weights 1..m and, beyond the recoverable boundary, all weights m+1 — for a
// set of geometries including the paper-typical 8+3, under both the
// one-worker codec and the pooled, cached one. The stripe's parity is the
// reference encoder's (refEncode), so every round trip is compared byte for
// byte against it.
func TestFuzzReconstructAllPatterns(t *testing.T) {
	geoms := [][2]int{{2, 1}, {3, 2}, {4, 2}, {8, 3}}
	for _, geom := range geoms {
		k, m := geom[0], geom[1]
		serial, err := New(k, m)
		if err != nil {
			t.Fatal(err)
		}
		par := serial.WithWorkers(3).WithDecodeCache(16)
		size := 257 // odd, forces unaligned kernel tails
		orig := makeStripe(t, serial, size, int64(1000*k+m))
		for _, codec := range []*Codec{serial, par} {
			for w := 1; w <= m; w++ {
				enumeratePatterns(k+m, w, func(pattern []int) {
					stripe := cloneStripe(orig)
					for _, e := range pattern {
						stripe[e] = nil
					}
					ctx := codecCtx(codec, k, m, pattern)
					if err := mustNotPanic(t, ctx+" Reconstruct", func() error { return codec.Reconstruct(stripe) }); err != nil {
						t.Fatalf("%s: %v", ctx, err)
					}
					for i := range orig {
						if !bytes.Equal(stripe[i], orig[i]) {
							t.Fatalf("%s: shard %d not byte-exact", ctx, i)
						}
					}
					// Degraded-read arm: data must round-trip; parity may
					// stay missing.
					stripe = cloneStripe(orig)
					for _, e := range pattern {
						stripe[e] = nil
					}
					if err := mustNotPanic(t, ctx+" ReconstructData", func() error { return codec.ReconstructData(stripe) }); err != nil {
						t.Fatalf("%s data: %v", ctx, err)
					}
					for i := 0; i < k; i++ {
						if !bytes.Equal(stripe[i], orig[i]) {
							t.Fatalf("%s: data shard %d not byte-exact", ctx, i)
						}
					}
				})
			}
			// One past the MDS bound: every weight-(m+1) pattern must fail
			// cleanly.
			enumeratePatterns(k+m, m+1, func(pattern []int) {
				stripe := cloneStripe(orig)
				for _, e := range pattern {
					stripe[e] = nil
				}
				ctx := codecCtx(codec, k, m, pattern)
				if err := mustNotPanic(t, ctx, func() error { return codec.Reconstruct(stripe) }); err == nil {
					t.Fatalf("%s: overweight pattern reconstructed", ctx)
				}
				if err := mustNotPanic(t, ctx, func() error { return codec.ReconstructData(stripe) }); err == nil {
					t.Fatalf("%s: overweight pattern data-reconstructed", ctx)
				}
			})
		}
	}
}

func codecCtx(c *Codec, k, m int, pattern []int) string {
	mode := "serial"
	if c.Workers() > 1 {
		mode = "parallel"
	}
	return mode + " RS(" + itoa(k) + "+" + itoa(m) + ") erased " + patternString(pattern)
}

func itoa(n int) string {
	if n == 0 {
		return "0"
	}
	var b [8]byte
	i := len(b)
	for n > 0 {
		i--
		b[i] = byte('0' + n%10)
		n /= 10
	}
	return string(b[i:])
}

func patternString(p []int) string {
	s := "{"
	for i, v := range p {
		if i > 0 {
			s += ","
		}
		s += itoa(v)
	}
	return s + "}"
}

// TestFuzzReconstructRandomOverweight drives random >m erasure patterns
// (weights m+1 .. k+m) with varied shard sizes: always an error, never a
// panic, and surviving shards untouched.
func TestFuzzReconstructRandomOverweight(t *testing.T) {
	rng := rand.New(rand.NewSource(83))
	serial, err := New(6, 2)
	if err != nil {
		t.Fatal(err)
	}
	par := serial.WithWorkers(4).WithDecodeCache(4)
	for trial := 0; trial < 200; trial++ {
		size := 1 + rng.Intn(700)
		orig := makeStripe(t, serial, size, int64(trial))
		codec := serial
		if trial%2 == 1 {
			codec = par
		}
		lost := 3 + rng.Intn(6) // weight in [m+1, k+m]
		stripe := cloneStripe(orig)
		for _, e := range rng.Perm(8)[:lost] {
			stripe[e] = nil
		}
		before := cloneStripe(stripe)
		err := mustNotPanic(t, "overweight", func() error { return codec.Reconstruct(stripe) })
		if err == nil {
			t.Fatalf("trial %d: %d losses reconstructed", trial, lost)
		}
		for i := range stripe {
			if (stripe[i] == nil) != (before[i] == nil) || !bytes.Equal(stripe[i], before[i]) {
				t.Fatalf("trial %d: shard %d mutated by failed reconstruct", trial, i)
			}
		}
	}
}

// TestFuzzReconstructRandomRecoverable drives random <=m patterns across
// random sizes, on one worker and on five; every trial must round-trip
// byte-exact against the reference stripe.
func TestFuzzReconstructRandomRecoverable(t *testing.T) {
	rng := rand.New(rand.NewSource(89))
	serial, err := New(8, 3)
	if err != nil {
		t.Fatal(err)
	}
	par := serial.WithWorkers(5).WithDecodeCache(32)
	for trial := 0; trial < 120; trial++ {
		size := 1 + rng.Intn(2000)
		orig := makeStripe(t, serial, size, int64(5000+trial))
		codec := serial
		if trial%2 == 1 {
			codec = par
		}
		lost := 1 + rng.Intn(3)
		stripe := cloneStripe(orig)
		for _, e := range rng.Perm(11)[:lost] {
			stripe[e] = nil
		}
		if err := mustNotPanic(t, "recoverable", func() error { return codec.Reconstruct(stripe) }); err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		for i := range orig {
			if !bytes.Equal(stripe[i], orig[i]) {
				t.Fatalf("trial %d: shard %d differs", trial, i)
			}
		}
	}
}
