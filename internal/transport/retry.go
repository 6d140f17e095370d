package transport

import (
	"context"
	"errors"
	"io"
	"math/rand/v2"
	"net"
	"time"

	"corec/internal/metrics"
	"corec/internal/types"
)

// RetryPolicy governs client-side resend of staging RPCs. Every protocol
// request is idempotent — puts overwrite the same key/version, reads and
// directory operations are pure — so resending on a transient fabric
// failure is always safe. Backoff is capped exponential with jitter so a
// thundering herd of retries cannot keep a recovering link saturated.
type RetryPolicy struct {
	// MaxAttempts is the total number of attempts (first try included).
	// Values below 1 are treated as 1, i.e. retries disabled.
	MaxAttempts int
	// PerAttemptTimeout bounds each individual attempt, so a dropped
	// message turns into a timely retry rather than waiting out the whole
	// caller deadline. Zero inherits the caller's context only.
	PerAttemptTimeout time.Duration
	// BaseBackoff is the delay before the first retry; it doubles each
	// further retry. Zero retries immediately.
	BaseBackoff time.Duration
	// MaxBackoff caps the exponential growth. Zero means uncapped.
	MaxBackoff time.Duration
	// JitterFrac randomizes each backoff within ±(JitterFrac/2)·delay,
	// de-synchronizing concurrent retriers. Typical value 0.5.
	JitterFrac float64
	// Budget caps the total time spent across all attempts (backoffs
	// included). Zero means no budget; the context still applies.
	Budget time.Duration
}

// DefaultRetryPolicy returns the policy the staging client uses unless
// configured otherwise: four attempts, sub-millisecond initial backoff
// (matched to the in-process fabric's microsecond latencies), 50ms cap.
// The 0.5+1+2 ms of backoff is paid against a dead peer once per fabric,
// not once per request: the send that exhausts it marks the peer in the
// fabric's PeerHealth table and later sends fail fast, a half-open trial
// going through every 0.5 ms doubling to the 50 ms cap — which is also the
// longest a peer restarted on the same address waits to be re-admitted.
func DefaultRetryPolicy() RetryPolicy {
	return RetryPolicy{
		MaxAttempts: 4,
		BaseBackoff: 500 * time.Microsecond,
		MaxBackoff:  50 * time.Millisecond,
		JitterFrac:  0.5,
	}
}

// Enabled reports whether the policy performs any retries at all.
func (p RetryPolicy) Enabled() bool { return p.MaxAttempts > 1 }

// IsRetryable classifies an error as a transient fabric failure worth
// resending, as opposed to a terminal application error. Unreachable
// destinations count as retryable: under transient partitions and server
// restarts the next attempt may well succeed, and the write path's
// failover handles the persistent case.
func IsRetryable(err error) bool {
	if err == nil {
		return false
	}
	switch {
	case errors.Is(err, ErrUnreachable),
		errors.Is(err, ErrDropped),
		errors.Is(err, ErrPartitioned),
		errors.Is(err, ErrCorruptFrame),
		errors.Is(err, ErrRemoteRetryable),
		errors.Is(err, ErrConnBroken),
		errors.Is(err, context.DeadlineExceeded),
		errors.Is(err, io.EOF),
		errors.Is(err, io.ErrUnexpectedEOF):
		return true
	}
	var ne net.Error
	if errors.As(err, &ne) && ne.Timeout() {
		return true
	}
	return false
}

// jitter de-synchronizes backoff delays across goroutines. It draws from
// math/rand/v2's lock-free per-thread source: the offsets need not be
// reproducible (fault injection has its own seeded stream), and concurrent
// retriers must not serialise on a shared generator.
func jitter(d time.Duration, frac float64) time.Duration {
	if d <= 0 || frac <= 0 {
		return d
	}
	span := float64(d) * frac
	off := rand.Float64()*span - span/2
	out := time.Duration(float64(d) + off)
	if out < 0 {
		out = 0
	}
	return out
}

// backoffFor returns the delay before retry number retry (0-based).
func (p RetryPolicy) backoffFor(retry int) time.Duration {
	d := p.BaseBackoff
	for i := 0; i < retry && d < p.MaxBackoff; i++ {
		d *= 2
	}
	if p.MaxBackoff > 0 && d > p.MaxBackoff {
		d = p.MaxBackoff
	}
	return jitter(d, p.JitterFrac)
}

// Send delivers the request under the retry policy. It returns the
// response, the number of attempts made, and the final error. Responses
// carrying a retryable remote error (see Message.AsError) are retried like
// transport failures; other application errors are returned to the caller
// untouched inside the response.
//
// When the fabric keeps a PeerHealth table, Send feeds and obeys it: a send
// whose budget runs out on ErrUnreachable marks the destination down, sends
// to a marked destination fail fast with ErrPeerDown (reported as one
// attempt, no backoff), a send caught mid-budget when the mark lands stops
// after its current attempt, and the one trial admitted per interval makes a
// single attempt that either re-admits the peer or re-arms the interval.
func (p RetryPolicy) Send(ctx context.Context, n Network, from, to types.ServerID, req *Message) (*Message, int, error) {
	health := HealthOf(n)
	adm, gen := health.admit(to)
	if adm == admitDenied {
		return nil, 1, ErrPeerDown
	}
	attempts := p.MaxAttempts
	if attempts < 1 {
		attempts = 1
	}
	start := time.Now()
	var lastErr error
	for a := 0; ; a++ {
		actx, cancel := ctx, context.CancelFunc(func() {})
		if p.PerAttemptTimeout > 0 {
			actx, cancel = context.WithTimeout(ctx, p.PerAttemptTimeout)
		}
		resp, err := n.Send(actx, from, to, req)
		cancel()
		if err == nil {
			if adm == admitTrial {
				health.Admit(to) // the peer answered: it is back
				adm = admitOpen
			}
			if rerr := resp.AsError(); rerr != nil && IsRetryable(rerr) {
				err = rerr
			} else {
				return resp, a + 1, nil
			}
		}
		lastErr = err
		if !IsRetryable(err) || ctx.Err() != nil {
			return nil, a + 1, lastErr
		}
		dead := errors.Is(err, ErrUnreachable)
		if dead && (adm == admitTrial || health.Down(to)) {
			// Already known dead — this was the trial, or another sender's
			// exhausted budget marked the peer while this one was in flight.
			health.markDown(to, gen, p, adm == admitTrial)
			return nil, a + 1, lastErr
		}
		if a == attempts-1 || (p.Budget > 0 && time.Since(start) >= p.Budget) {
			if dead {
				health.markDown(to, gen, p, false)
			}
			return nil, a + 1, lastErr
		}
		if d := p.backoffFor(a); d > 0 {
			t := time.NewTimer(d)
			select {
			case <-ctx.Done():
				t.Stop()
				return nil, a + 1, lastErr
			case <-t.C:
			}
		}
	}
}

// SendCounted is Send with its outcome tallied into col, the one place
// clients and servers count their sends: attempts beyond the first as
// retries; a send that still failed as a fault when its error is transient,
// and as a corrupt frame when the last frame failed its checks here
// (ErrCorruptFrame) or at the peer (ErrRemoteRetryable).
func (p RetryPolicy) SendCounted(ctx context.Context, n Network, from, to types.ServerID, req *Message, col *metrics.Collector) (*Message, error) {
	resp, attempts, err := p.Send(ctx, n, from, to, req)
	if attempts > 1 {
		col.AddCounter(metrics.RetryCount, int64(attempts-1))
	}
	if err != nil {
		if errors.Is(err, ErrCorruptFrame) || errors.Is(err, ErrRemoteRetryable) {
			col.AddCounter(metrics.CorruptFrameCount, 1)
		}
		if IsRetryable(err) {
			col.AddCounter(metrics.FaultCount, 1)
		}
	}
	return resp, err
}
