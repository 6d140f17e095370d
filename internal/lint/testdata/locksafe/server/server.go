// Package server exercises the locksafe analyzer inside its scope: blocking
// operations under tracked mutexes must be flagged, workflow locks and
// lock-free goroutines must not.
package server

import (
	"sync"
	"time"
)

// Net mimics the transport.Network shape: a Send method on an interface.
type Net interface {
	Send(msg int) error
}

type S struct {
	mu  sync.Mutex
	rw  sync.RWMutex
	ch  chan int
	ch2 chan any
	cb  func()
	net Net
}

func (s *S) sendRetry() error { return nil }

func (s *S) writeLock() *sync.Mutex { return &s.mu }

func sleepUnderLock(s *S) {
	s.mu.Lock()
	time.Sleep(time.Millisecond) // want `time.Sleep while s\.mu is held`
	s.mu.Unlock()
}

func sleepUnderRLock(s *S) {
	s.rw.RLock()
	time.Sleep(time.Millisecond) // want `time.Sleep while s\.rw is held`
	s.rw.RUnlock()
}

func sleepUnderDeferredUnlock(s *S) {
	s.mu.Lock()
	defer s.mu.Unlock()
	time.Sleep(time.Millisecond) // want `time.Sleep while s\.mu is held`
}

var globalMu sync.Mutex

func sleepUnderPackageMutex() {
	globalMu.Lock()
	time.Sleep(time.Millisecond) // want `time.Sleep while globalMu is held`
	globalMu.Unlock()
}

func chanOpsUnderLock(s *S) {
	s.mu.Lock()
	s.ch <- 1 // want `channel send while s\.mu is held`
	<-s.ch    // want `channel receive while s\.mu is held`
	s.mu.Unlock()
}

func selectUnderLock(s *S) {
	s.mu.Lock()
	select { // want `select statement while s\.mu is held`
	case <-s.ch:
	default:
	}
	s.mu.Unlock()
}

func rangeChanUnderLock(s *S) {
	s.mu.Lock()
	for range s.ch { // want `range over channel while s\.mu is held`
	}
	s.mu.Unlock()
}

func callbackUnderLock(s *S) {
	s.mu.Lock()
	s.cb() // want `dynamic call through func value "s\.cb" while s\.mu is held`
	s.mu.Unlock()
}

func sendRetryUnderLock(s *S) {
	s.mu.Lock()
	_ = s.sendRetry() // want `call to sendRetry \(network send\) while s\.mu is held`
	s.mu.Unlock()
}

func interfaceSendUnderLock(s *S) {
	s.mu.Lock()
	_ = s.net.Send(1) // want `transport send .* while s\.mu is held`
	s.mu.Unlock()
}

func inlineLiteralInheritsLock(s *S) {
	s.mu.Lock()
	func() {
		time.Sleep(time.Millisecond) // want `time.Sleep while s\.mu is held`
	}()
	s.mu.Unlock()
}

func receiveInDeclUnderLock(s *S) {
	s.mu.Lock()
	var v = <-s.ch // want `channel receive while s\.mu is held`
	_ = v
	s.mu.Unlock()
}

func sendInForPostUnderLock(s *S) {
	s.mu.Lock()
	for i := 0; i < 3; i, _ = i+1, s.net.Send(i) { // want `transport send .* while s\.mu is held`
	}
	s.mu.Unlock()
}

func receiveInTypeSwitchGuardUnderLock(s *S) {
	s.mu.Lock()
	switch (<-s.ch2).(type) { // want `channel receive while s\.mu is held`
	}
	s.mu.Unlock()
}

// --- negatives ---

func unlockBeforeSleep(s *S) {
	s.mu.Lock()
	s.mu.Unlock()
	time.Sleep(time.Millisecond) // ok: lock released
}

func goroutineEscapesLock(s *S) {
	s.mu.Lock()
	go func() {
		time.Sleep(time.Millisecond) // ok: runs outside the lock
	}()
	s.mu.Unlock()
}

func workflowLockExempt(s *S) {
	mu := s.writeLock()
	mu.Lock()
	time.Sleep(time.Millisecond) // ok: local accessor lock, exempt by design
	mu.Unlock()
}

func sendOutsideLock(s *S) {
	_ = s.net.Send(1) // ok: no lock held
}
