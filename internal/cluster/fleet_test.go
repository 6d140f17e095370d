package cluster

import (
	"testing"
	"time"
)

// waitUntil polls cond until it holds or the timeout expires, failing the
// test with msg on expiry. The condition-polling idiom keeps multi-process
// tests fast on healthy machines and tolerant on loaded CI runners, where
// fixed sleeps are either wasteful or flaky.
func waitUntil(t *testing.T, timeout time.Duration, msg string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(timeout)
	for {
		if cond() {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("timed out after %v waiting for %s", timeout, msg)
		}
		time.Sleep(10 * time.Millisecond)
	}
}
