// Package scrub is the anti-entropy subsystem's decision layer: content
// checksums for data at rest, the token bucket that paces background work
// so foreground put/get latency is unaffected, and the
// configuration and accounting types the staging server's scrubber engine
// executes against.
//
// PR 1 protected data in flight (CRC32 wire frames, retries, failover);
// this package protects data at rest. A bit flip in staging memory, a
// partially applied failover write, or a divergent mirror would otherwise
// sit undetected until a get or a recovery silently returned bad bytes —
// the lazy-recovery design (Section III-D) assumes surviving copies are
// correct, and scrubbing is what makes that assumption hold.
//
// The package is deliberately free of transport and server dependencies so
// the pacing and accounting logic stays pure and unit-testable; the
// execution engine lives in internal/server (scrub.go) and is wired into
// the cluster and monitor layers by the corec package.
package scrub

import (
	"context"
	"fmt"
	"hash/crc32"
	"time"
)

// castagnoli is the CRC-32C table; with crc32.IEEETable it selects hash/crc32's
// two hardware kernels (SSE4.2 CRC32 and PCLMULQDQ folding on amd64, the CRC32
// extension on arm64). That is what makes the digest cheap enough to take on
// every put: ~10 GB/s on the development VM, where a plain copy runs at
// ~11 GB/s and a table-driven CRC (CRC64-ECMA, slicing-by-8) at 1.6 GB/s.
var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// checksumBlock is how much of the payload both CRCs consume before moving
// on: small enough that the second polynomial reads the block from L1
// instead of streaming the payload from memory twice.
const checksumBlock = 32 << 10

// Checksum returns the 64-bit content digest of a payload: CRC-32C
// (Castagnoli) in the high word, CRC-32 (IEEE) in the low word. Two
// independent polynomials keep the digest 64 bits wide — every wire and
// record field that carries it stays as it is. The high word doubles as the
// wire check of the payload segment of a transport frame (see WireCheck), so
// a payload is read once per polynomial per hop, not once for the wire and
// twice more for storage: a server's frame reader takes the whole digest as
// the bytes land (Digest), the server keeps what it computed, and a sender
// that holds the digest attaches it instead of reading the bytes. A keyed
// hash is unnecessary because the threat model is bit rot, not an adversary.
// The zero value is reserved to mean "no checksum recorded" (a shard
// re-indexed from a restarted disk tier, pending backfill), so the rare
// genuine zero digest — the empty payload's, for one — is folded onto 1.
func Checksum(data []byte) uint64 {
	var d Digest
	d.Write(data)
	return d.Sum()
}

// Digest is Checksum taken incrementally, over a payload fed to Write in
// pieces — by a frame reader, each piece right after the read that filled
// it, while its bytes are still in cache. The zero value is the digest of no
// bytes.
type Digest struct{ c, e uint32 }

// Write adds p to the digest.
func (d *Digest) Write(p []byte) {
	for len(p) > 0 {
		b := p[:min(len(p), checksumBlock)]
		d.c = crc32.Update(d.c, castagnoli, b)
		d.e = crc32.Update(d.e, crc32.IEEETable, b)
		p = p[len(b):]
	}
}

// CRC32C returns the CRC-32C half of the bytes written so far: their wire
// check.
func (d *Digest) CRC32C() uint32 { return d.c }

// Sum returns Checksum of the bytes written so far.
func (d *Digest) Sum() uint64 {
	s := uint64(d.c)<<32 | uint64(d.e)
	if s == 0 {
		s = 1
	}
	return s
}

// CRC32C continues a CRC-32C over data (crc 0 starts one): the check a
// transport frame carries for its payload, and the high word of Checksum.
func CRC32C(crc uint32, data []byte) uint32 { return crc32.Update(crc, castagnoli, data) }

// WireCheck returns the half of a recorded digest that is the payload's wire
// check — its CRC-32C — so a sender that holds the digest makes no pass over
// the bytes. ok is false for 0, "no checksum recorded".
func WireCheck(sum uint64) (crc32c uint32, ok bool) { return uint32(sum >> 32), sum != 0 }

// Depth selects how far a scrub pass reaches beyond this server's memory.
type Depth int

// Verify depths, cumulative: each level includes the previous ones.
const (
	// DepthLocal verifies locally stored bytes (primary copies, replicas,
	// shards) against their recorded checksums. No network traffic.
	DepthLocal Depth = iota
	// DepthReplica additionally checks replication groups: the primary asks
	// each mirror to recover a missing, older or divergent copy.
	DepthReplica
	// DepthStripe additionally verifies coded stripes: one round gathers
	// every shard, a member whose shard did not arrive is asked to recover
	// it, and a full stripe is spot-decoded.
	DepthStripe
)

// String implements fmt.Stringer.
func (d Depth) String() string {
	switch d {
	case DepthLocal:
		return "local"
	case DepthReplica:
		return "replica"
	case DepthStripe:
		return "stripe"
	default:
		return fmt.Sprintf("Depth(%d)", int(d))
	}
}

// Config tunes one server's scrubber. The zero value runs no background
// pass, reads unpaced and verifies at DepthLocal; DefaultConfig is the
// stock tuning.
type Config struct {
	// Interval is the gap between background scrub passes; 0 runs none.
	Interval time.Duration
	// BytesPerSec caps the scan's read bandwidth (payload bytes checksummed
	// or fetched per second), paced by NewByteBucket. 0 means unlimited.
	BytesPerSec int64
	// Depth selects the verify depth.
	Depth Depth
}

// DefaultConfig returns the full-depth scrubber configuration used when a
// cluster enables scrubbing without tuning it.
func DefaultConfig() Config {
	return Config{
		Interval:    2 * time.Second,
		BytesPerSec: 64 << 20, // 64 MiB/s: background-class bandwidth
		Depth:       DepthStripe,
	}
}

// Validate rejects nonsensical budgets.
func (c Config) Validate() error {
	if c.BytesPerSec < 0 {
		return fmt.Errorf("scrub: negative budget")
	}
	if c.Interval < 0 {
		return fmt.Errorf("scrub: negative interval")
	}
	if c.Depth < DepthLocal || c.Depth > DepthStripe {
		return fmt.Errorf("scrub: unknown depth %d", int(c.Depth))
	}
	return nil
}

// TokenBucket is a classic token bucket: rate tokens accrue per second up
// to burst; Take blocks until the requested tokens are available. It is the
// one pacer of background work: the scrubber, the rebalancer and the
// prefetcher take bytes from one, the lazy-recovery drain takes one token
// per repair. It is safe for use by one consumer goroutine; the clock is
// injectable for deterministic tests.
type TokenBucket struct {
	rate   float64 // tokens per second; <= 0 disables pacing
	burst  float64
	tokens float64
	last   time.Time
	now    func() time.Time
	sleep  func(context.Context, time.Duration) error
}

// NewTokenBucket builds a bucket accruing rate tokens/sec with the given
// capacity. A non-positive rate disables pacing (Take never blocks). The
// bucket starts full, so a scan's first burst proceeds immediately.
func NewTokenBucket(rate, burst float64) *TokenBucket {
	return newTokenBucketAt(rate, burst, nil)
}

// ByteBurst is the one burst rule of a byte pacer: a quarter second's worth
// of bytes, and no less than 64 KiB, so one modest object passes without a
// wait even at a trickle rate.
func ByteBurst(bytesPerSec float64) float64 { return max(bytesPerSec/4, 64<<10) }

// NewByteBucket builds the pacer of a background byte stream: bytesPerSec
// tokens a second with a burst of ByteBurst. A non-positive rate returns nil,
// which never blocks.
func NewByteBucket(bytesPerSec float64) *TokenBucket {
	if bytesPerSec <= 0 {
		return nil
	}
	return NewTokenBucket(bytesPerSec, ByteBurst(bytesPerSec))
}

func newTokenBucketAt(rate, burst float64, now func() time.Time) *TokenBucket {
	if now == nil {
		now = time.Now
	}
	if burst < 1 {
		burst = 1
	}
	b := &TokenBucket{rate: rate, burst: burst, tokens: burst, now: now}
	b.last = now()
	b.sleep = func(ctx context.Context, d time.Duration) error {
		t := time.NewTimer(d)
		defer t.Stop()
		select {
		case <-ctx.Done():
			return ctx.Err()
		case <-t.C:
			return nil
		}
	}
	return b
}

// refill credits tokens accrued since the last call.
func (b *TokenBucket) refill() {
	t := b.now()
	if el := t.Sub(b.last); el > 0 {
		b.tokens += el.Seconds() * b.rate
		if b.tokens > b.burst {
			b.tokens = b.burst
		}
	}
	b.last = t
}

// Take blocks until n tokens are available, then consumes them. Requests
// larger than the burst are allowed (they drain the bucket and wait out the
// deficit) so one oversized object cannot wedge the scan. Returns early
// with the context's error on cancellation.
func (b *TokenBucket) Take(ctx context.Context, n int64) error {
	if b == nil || b.rate <= 0 || n <= 0 {
		return nil
	}
	b.refill()
	b.tokens -= float64(n)
	if b.tokens >= 0 {
		return nil
	}
	// Sleep off the deficit; tokens stay negative so subsequent Takes keep
	// paying for the overdraft (long-run rate holds even with n > burst).
	wait := time.Duration(-b.tokens / b.rate * float64(time.Second))
	return b.sleep(ctx, wait)
}

// Report tallies the outcomes of one or more scrub passes. All fields are
// monotonic counts; Add merges another report in.
type Report struct {
	// Scanned is the number of locally stored items (primary copies,
	// replicas, shards) whose bytes were verified.
	Scanned int64
	// Bytes is the total payload bytes read by the scan (local verifies
	// plus fetched shards and copies).
	Bytes int64
	// Corruptions is the number of items whose stored bytes failed their
	// checksum (at-rest rot detected).
	Corruptions int64
	// Repairs is the number of corrupt, missing or divergent pieces restored
	// from a healthy copy or by stripe reconstruction.
	Repairs int64
	// Divergent is the number of mirror copies restored because they were
	// missing, older than the object's record, or of its version under
	// another digest.
	Divergent int64
	// Reencodes is the number of stripe shards a member restored when
	// asked: one it had lost, or one the stripe check found inconsistent.
	Reencodes int64
	// Backfills is the number of shards whose checksum was computed and
	// recorded for the first time: shards re-indexed from a restarted disk
	// tier, whose digest died with the previous incarnation.
	Backfills int64
	// Skipped is the number of checks abandoned because a peer was
	// unreachable (a dead server is not corruption; recovery owns it), or
	// because a shard found on a restarted disk tier has not had its stripe's
	// layout restored yet (recovery owns that too).
	Skipped int64
	// Unrepaired is the number of detected corruptions that could not be
	// repaired (no healthy copy; StateNone objects).
	Unrepaired int64
}

// Add merges o into r.
func (r *Report) Add(o Report) {
	r.Scanned += o.Scanned
	r.Bytes += o.Bytes
	r.Corruptions += o.Corruptions
	r.Repairs += o.Repairs
	r.Divergent += o.Divergent
	r.Reencodes += o.Reencodes
	r.Backfills += o.Backfills
	r.Skipped += o.Skipped
	r.Unrepaired += o.Unrepaired
}

// String implements fmt.Stringer for log-friendly summaries.
func (r Report) String() string {
	return fmt.Sprintf("scanned=%d bytes=%d corrupt=%d repaired=%d divergent=%d reencoded=%d backfilled=%d skipped=%d unrepaired=%d",
		r.Scanned, r.Bytes, r.Corruptions, r.Repairs, r.Divergent, r.Reencodes, r.Backfills, r.Skipped, r.Unrepaired)
}
