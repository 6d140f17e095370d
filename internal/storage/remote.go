package storage

import (
	"errors"
	"math/rand"
	"sync"
	"sync/atomic"
	"time"
)

// RemoteConfig models the third storage tier: an object store reached over
// a shared wide link, in the style of internal/simnet's PFS model — a fixed
// per-operation open latency plus a bandwidth pool divided among whatever
// transfers are in flight, with seeded fault injection for chaos tests.
type RemoteConfig struct {
	// OpenLatency is paid once per put or get (connection + metadata ops).
	OpenLatency time.Duration
	// BytesPerSecond is the aggregate bandwidth shared by all concurrent
	// transfers. Zero means infinite bandwidth.
	BytesPerSecond float64
	// FailProb is the seeded probability that any one put or get fails
	// (after its modelled delay — a timeout, not a fast error).
	FailProb float64
	// Seed drives the fault stream deterministically.
	Seed int64
}

// DefaultRemoteConfig returns a model loosely calibrated to an object store
// over a datacenter WAN as seen by a handful of staging servers.
func DefaultRemoteConfig() RemoteConfig {
	return RemoteConfig{
		OpenLatency:    2 * time.Millisecond,
		BytesPerSecond: 256 << 20, // 256 MiB/s aggregate
	}
}

// ErrRemoteFault is returned when the seeded fault injector fails an op.
var ErrRemoteFault = errors.New("storage: remote op failed (injected)")

// RemoteStats is the remote store's counter snapshot.
type RemoteStats struct {
	Objects int
	Bytes   int64
	Puts    int64
	Gets    int64
	Faults  int64
}

// RemoteStore is the cluster-shared L3 stub. It is owned by the cluster,
// not by any server, so its contents survive a server kill/restart exactly
// like a real object store would; restarted servers re-reach their uploads
// through the manifest records in their disk tier.
type RemoteStore struct {
	cfg      RemoteConfig
	inflight atomic.Int64
	puts     atomic.Int64
	gets     atomic.Int64
	faults   atomic.Int64

	mu      sync.Mutex
	objects map[string][]byte
	bytes   int64
	rng     *rand.Rand
}

// NewRemoteStore creates an empty remote store with the given model.
func NewRemoteStore(cfg RemoteConfig) *RemoteStore {
	return &RemoteStore{
		cfg:     cfg,
		objects: make(map[string][]byte),
		rng:     rand.New(rand.NewSource(cfg.Seed)),
	}
}

// delay returns the modelled time for one transfer of size bytes given the
// current number of in-flight transfers sharing the bandwidth pool.
func (r *RemoteStore) delay(size int) time.Duration {
	d := r.cfg.OpenLatency
	if r.cfg.BytesPerSecond > 0 {
		sharers := r.inflight.Load()
		if sharers < 1 {
			sharers = 1
		}
		per := r.cfg.BytesPerSecond / float64(sharers)
		d += time.Duration(float64(size) / per * float64(time.Second))
	}
	return d
}

func (r *RemoteStore) fault() bool {
	if r.cfg.FailProb <= 0 {
		return false
	}
	r.mu.Lock()
	hit := r.rng.Float64() < r.cfg.FailProb
	r.mu.Unlock()
	if hit {
		r.faults.Add(1)
	}
	return hit
}

// Put uploads one object, paying the modelled transfer delay. The store
// keeps the slice; callers hand over ownership.
func (r *RemoteStore) Put(key string, data []byte) error {
	r.inflight.Add(1)
	d := r.delay(len(data))
	time.Sleep(d)
	r.inflight.Add(-1)
	if r.fault() {
		return ErrRemoteFault
	}
	r.mu.Lock()
	if old, ok := r.objects[key]; ok {
		r.bytes -= int64(len(old))
	}
	r.objects[key] = data
	r.bytes += int64(len(data))
	r.mu.Unlock()
	r.puts.Add(1)
	return nil
}

// Get downloads one object, paying the modelled transfer delay.
func (r *RemoteStore) Get(key string) ([]byte, error) {
	r.mu.Lock()
	data, ok := r.objects[key]
	r.mu.Unlock()
	r.inflight.Add(1)
	d := r.delay(len(data))
	time.Sleep(d)
	r.inflight.Add(-1)
	if r.fault() {
		return nil, ErrRemoteFault
	}
	if !ok {
		return nil, errors.New("storage: remote object not found")
	}
	r.gets.Add(1)
	return data, nil
}

// Delete removes one object. Deletes are metadata-only and free in the
// model; they are also exempt from fault injection so overwrite cleanup
// cannot strand stale bytes.
func (r *RemoteStore) Delete(key string) {
	r.mu.Lock()
	if old, ok := r.objects[key]; ok {
		r.bytes -= int64(len(old))
		delete(r.objects, key)
	}
	r.mu.Unlock()
}

// Corrupt replaces a stored object's bytes in place — the remote half of
// bit-rot injection. Reports whether the key existed.
func (r *RemoteStore) Corrupt(key string, data []byte) bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	old, ok := r.objects[key]
	if !ok {
		return false
	}
	r.bytes += int64(len(data)) - int64(len(old))
	r.objects[key] = data
	return true
}

// Stats returns the store's counter snapshot.
func (r *RemoteStore) Stats() RemoteStats {
	r.mu.Lock()
	n, b := len(r.objects), r.bytes
	r.mu.Unlock()
	return RemoteStats{
		Objects: n,
		Bytes:   b,
		Puts:    r.puts.Load(),
		Gets:    r.gets.Load(),
		Faults:  r.faults.Load(),
	}
}
