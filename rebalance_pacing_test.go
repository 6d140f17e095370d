package corec

import (
	"context"
	"slices"
	"sort"
	"sync/atomic"
	"testing"
	"time"
)

// sampleGets runs n foreground reads over the staged objects and returns
// their per-op latencies.
func sampleGets(t *testing.T, cl *Client, name string, objects, n int) []time.Duration {
	t.Helper()
	ctx := context.Background()
	lat := make([]time.Duration, 0, n)
	for i := 0; i < n; i++ {
		obj := i % objects
		start := time.Now()
		if _, err := cl.Get(ctx, name, churnBox(obj), 1); err != nil {
			t.Fatalf("foreground get %d: %v", i, err)
		}
		lat = append(lat, time.Since(start))
	}
	return lat
}

// p99 returns the 99th-percentile latency.
func p99(lat []time.Duration) time.Duration {
	lat = slices.Clone(lat)
	slices.Sort(lat)
	return lat[len(lat)*99/100]
}

// TestRebalancePacingBoundsForeground is the migration-pacing acceptance
// gate: foreground read p99 while a token-bucket-paced rebalance runs must
// stay within a fixed factor (2x) of the churn-free baseline. A small
// absolute floor absorbs scheduler noise on loaded CI machines — the test
// is about the pacing discipline, not microsecond determinism.
func TestRebalancePacingBoundsForeground(t *testing.T) {
	if testing.Short() {
		t.Skip("pacing measurement skipped in -short mode")
	}
	cfg := elasticConfig(8)
	// Pace tightly so the migration genuinely overlaps the sample window: at
	// 1/8 MiB/s the bucket holds its 64 KiB floor, and the pass's directory
	// sweep over this many objects charges well past it.
	cfg.rebalanceMBps = 0.125
	c := elasticCluster(t, cfg)
	cl := c.NewClient()
	ctx := context.Background()

	const objects = 64
	committed := seedChurnObjects(t, c, cl, "paced", objects)

	const samples = 400
	// Warm the path, then measure the churn-free baseline.
	sampleGets(t, cl, "paced", objects, 100)
	base99 := p99(sampleGets(t, cl, "paced", objects, samples))

	// Scale out and rebalance in the background while sampling again.
	if _, err := c.JoinNew(); err != nil {
		t.Fatalf("join: %v", err)
	}
	for i := 0; i < 4; i++ {
		c.TickMembership(ctx)
	}
	var done atomic.Bool
	errCh := make(chan error, 1)
	go func() {
		_, err := c.Rebalance(ctx)
		done.Store(true)
		errCh <- err
	}()
	churn := sampleGets(t, cl, "paced", objects, samples/2)
	if done.Load() {
		t.Fatal("rebalance finished within the first half of the samples: the pass was not paced")
	}
	churn = append(churn, sampleGets(t, cl, "paced", objects, samples/2)...)
	churn99 := p99(churn)
	if err := <-errCh; err != nil {
		t.Fatalf("rebalance: %v", err)
	}
	if !done.Load() {
		t.Fatalf("rebalance goroutine not finished")
	}

	floor := 2 * time.Millisecond
	if raceEnabled {
		// Race instrumentation multiplies every op's cost and compresses
		// the baseline/churn gap; keep the bound meaningful, not flaky.
		floor = 10 * time.Millisecond
	}
	limit := 2 * base99
	if limit < floor {
		limit = floor
	}
	if churn99 > limit {
		t.Fatalf("foreground p99 under rebalance %v exceeds 2x baseline %v (limit %v)",
			churn99, base99, limit)
	}
	// Zero-loss check after the dust settles.
	verifyChurnObjects(t, cl, "paced", committed, nil, "post-paced-rebalance")
}

// BenchmarkForegroundWithRebalance mirrors the scrubber benchmark: the
// put/get foreground path measured with live rebalancing off and on,
// reporting p50/p99 per-op latency. The membership subsystem's acceptance
// bar is the two runs' p99 staying in the same band — migration work is
// paid by the migrator's token bucket, not the request path.
func BenchmarkForegroundWithRebalance(b *testing.B) {
	for _, bc := range []struct {
		name      string
		rebalance bool
	}{
		{"rebalance-off", false},
		{"rebalance-on", true},
	} {
		b.Run(bc.name, func(b *testing.B) {
			cfg := DefaultConfig(8)
			cfg.Mode = PolicyCoREC
			cfg.Seed = 7
			cfg.Membership = &MembershipConfig{Manual: true}
			cfg.rebalanceMBps = 8
			c, err := NewCluster(cfg)
			if err != nil {
				b.Fatal(err)
			}
			defer c.Close()
			cl := c.NewClient()
			ctx := context.Background()
			box := Box3D(0, 0, 0, 8, 8, 8)
			data := make([]byte, box.Volume()*8)
			for i := int64(0); i < 16; i++ {
				bg := Box3D(64+i*8, 0, 0, 64+i*8+8, 8, 8)
				bgData := make([]byte, bg.Volume()*8)
				if err := cl.Put(ctx, "cold", bg, 1, bgData); err != nil {
					b.Fatal(err)
				}
			}
			c.EndTimeStep(1)

			stop := make(chan struct{})
			if bc.rebalance {
				if _, err := c.JoinNew(); err != nil {
					b.Fatal(err)
				}
				go func() {
					for {
						select {
						case <-stop:
							return
						default:
						}
						if _, err := c.Rebalance(ctx); err != nil {
							return
						}
					}
				}()
			}

			lat := make([]time.Duration, 0, b.N)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				v := Version(i + 2)
				start := time.Now()
				if err := cl.Put(ctx, "hot", box, v, data); err != nil {
					b.Fatal(err)
				}
				if _, err := cl.Get(ctx, "hot", box, v); err != nil {
					b.Fatal(err)
				}
				lat = append(lat, time.Since(start))
			}
			b.StopTimer()
			close(stop)
			sort.Slice(lat, func(i, j int) bool { return lat[i] < lat[j] })
			if len(lat) > 0 {
				b.ReportMetric(float64(lat[len(lat)/2].Nanoseconds()), "p50-ns")
				b.ReportMetric(float64(lat[len(lat)*99/100].Nanoseconds()), "p99-ns")
			}
		})
	}
}
