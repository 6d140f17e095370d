package scrub

import (
	"context"
	"testing"
	"time"
)

// fakeClock drives a token bucket deterministically: sleeps advance the
// clock instead of blocking, and the total slept time is recorded.
type fakeClock struct {
	t     time.Time
	slept time.Duration
}

func newFakeBucket(rate, burst float64) (*TokenBucket, *fakeClock) {
	c := &fakeClock{t: time.Unix(0, 0)}
	b := newTokenBucketAt(rate, burst, func() time.Time { return c.t })
	b.sleep = func(_ context.Context, d time.Duration) error {
		c.t = c.t.Add(d)
		c.slept += d
		return nil
	}
	return b, c
}

func TestTokenBucketPacesToRate(t *testing.T) {
	// 1000 tokens/sec, burst 100: taking 1100 tokens must take ~1s of
	// (virtual) waiting beyond the initial burst.
	b, c := newFakeBucket(1000, 100)
	ctx := context.Background()
	var taken int64
	for taken < 1100 {
		if err := b.Take(ctx, 50); err != nil {
			t.Fatal(err)
		}
		taken += 50
	}
	if c.slept < 900*time.Millisecond || c.slept > 1100*time.Millisecond {
		t.Fatalf("slept %v for 1100 tokens at 1000/s with burst 100", c.slept)
	}
}

func TestTokenBucketBurstIsFree(t *testing.T) {
	b, c := newFakeBucket(10, 500)
	if err := b.Take(context.Background(), 500); err != nil {
		t.Fatal(err)
	}
	if c.slept != 0 {
		t.Fatalf("burst-sized take slept %v", c.slept)
	}
}

func TestTokenBucketOversizedTakeDoesNotWedge(t *testing.T) {
	// A take larger than the burst drains the bucket negative and waits the
	// deficit out rather than blocking forever.
	b, c := newFakeBucket(100, 10)
	if err := b.Take(context.Background(), 210); err != nil {
		t.Fatal(err)
	}
	if c.slept < 1900*time.Millisecond || c.slept > 2100*time.Millisecond {
		t.Fatalf("oversized take slept %v, want ~2s", c.slept)
	}
}

func TestTokenBucketUnlimited(t *testing.T) {
	var b *TokenBucket // nil bucket: no pacing at all
	if err := b.Take(context.Background(), 1<<40); err != nil {
		t.Fatal(err)
	}
	b2 := NewTokenBucket(0, 0) // zero rate: pacing disabled
	if err := b2.Take(context.Background(), 1<<40); err != nil {
		t.Fatal(err)
	}
}

func TestTokenBucketHonorsCancellation(t *testing.T) {
	b := NewTokenBucket(1, 1) // 1 token/sec: the second take must wait
	ctx, cancel := context.WithCancel(context.Background())
	if err := b.Take(ctx, 1); err != nil {
		t.Fatal(err)
	}
	cancel()
	if err := b.Take(ctx, 10); err == nil {
		t.Fatal("cancelled take returned nil")
	}
}

func TestConfigDefaultsAndValidate(t *testing.T) {
	cfg := DefaultConfig()
	if err := cfg.Validate(); err != nil {
		t.Fatal(err)
	}
	if cfg.Depth != DepthStripe {
		t.Fatalf("default depth %v, want stripe", cfg.Depth)
	}
	bad := Config{BytesPerSec: -1}
	if err := bad.Validate(); err == nil {
		t.Fatal("negative budget validated")
	}
	bad = Config{Depth: Depth(9)}
	if err := bad.Validate(); err == nil {
		t.Fatal("unknown depth validated")
	}
}

func TestByteBucketBurstRule(t *testing.T) {
	if b := NewByteBucket(0); b != nil {
		t.Fatal("zero rate built a bucket; want nil (unpaced)")
	}
	if b := NewByteBucket(-1); b != nil {
		t.Fatal("negative rate built a bucket; want nil (unpaced)")
	}
	for _, c := range []struct{ rate, burst float64 }{
		{1 << 10, 64 << 10},   // trickle: the floor
		{256 << 10, 64 << 10}, // where the two meet
		{64 << 20, 16 << 20},  // 64 MiB/s: a quarter second
	} {
		if got := ByteBurst(c.rate); got != c.burst {
			t.Fatalf("ByteBurst(%v) = %v, want %v", c.rate, got, c.burst)
		}
		b := NewByteBucket(c.rate)
		if b.rate != c.rate || b.burst != c.burst || b.tokens != c.burst {
			t.Fatalf("NewByteBucket(%v): rate %v burst %v tokens %v, want burst %v, starting full",
				c.rate, b.rate, b.burst, b.tokens, c.burst)
		}
	}
}

func TestReportAddAndString(t *testing.T) {
	var r Report
	r.Add(Report{Scanned: 2, Bytes: 10, Corruptions: 1, Repairs: 1})
	r.Add(Report{Scanned: 3, Divergent: 1, Reencodes: 2, Backfills: 4, Skipped: 5, Unrepaired: 1})
	if r.Scanned != 5 || r.Bytes != 10 || r.Corruptions != 1 || r.Repairs != 1 ||
		r.Divergent != 1 || r.Reencodes != 2 || r.Backfills != 4 || r.Skipped != 5 || r.Unrepaired != 1 {
		t.Fatalf("merge wrong: %+v", r)
	}
	if r.String() == "" {
		t.Fatal("empty String()")
	}
	for d, want := range map[Depth]string{DepthLocal: "local", DepthReplica: "replica", DepthStripe: "stripe", Depth(7): "Depth(7)"} {
		if d.String() != want {
			t.Fatalf("Depth(%d).String() = %q", int(d), d.String())
		}
	}
}
