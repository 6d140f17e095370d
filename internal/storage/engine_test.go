package storage

import (
	"bytes"
	"fmt"
	"testing"
	"time"
)

func payload(i, size int) []byte {
	b := make([]byte, size)
	for j := range b {
		b[j] = byte(0xA0 + i)
	}
	return b
}

func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

func TestMemOnlyEngineBasics(t *testing.T) {
	e, err := Open(Config{}, nil, "")
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = e.Close() }()
	e.Put("a", payload(1, 100))
	e.Put("b", payload(2, 200))
	if got, ok := e.Get("a"); !ok || !bytes.Equal(got, payload(1, 100)) {
		t.Fatalf("get a: ok=%v", ok)
	}
	if !e.Has("b") || e.Has("c") {
		t.Fatal("Has wrong")
	}
	if n := e.Len(); n != 2 {
		t.Fatalf("Len = %d", n)
	}
	keys := e.Keys()
	if len(keys) != 2 || keys[0] != "a" || keys[1] != "b" {
		t.Fatalf("Keys = %v", keys)
	}
	e.Delete("a")
	if _, ok := e.Get("a"); ok {
		t.Fatal("a survived delete")
	}
	st := e.Stats()
	if st.MemObjects != 1 || st.MemBytes != 200 || st.Spills != 0 {
		t.Fatalf("stats: %+v", st)
	}
}

func TestSpillUnderMemoryPressure(t *testing.T) {
	e, err := Open(Config{Dir: t.TempDir(), MemBytes: 1024}, nil, "")
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = e.Close() }()
	const n = 12
	for i := 0; i < n; i++ {
		e.Put(fmt.Sprintf("k%02d", i), payload(i, 512))
	}
	e.WaitIdle()
	st := e.Stats()
	if st.Spills == 0 {
		t.Fatalf("expected spills, got %+v", st)
	}
	if st.MemBytes > 1024 {
		t.Fatalf("memory over budget after spill: %d", st.MemBytes)
	}
	if st.MemObjects+st.DiskObjects != n {
		t.Fatalf("lost objects: %+v", st)
	}
	// Every key still readable, byte-correct, regardless of tier.
	for i := 0; i < n; i++ {
		got, ok := e.Get(fmt.Sprintf("k%02d", i))
		if !ok || !bytes.Equal(got, payload(i, 512)) {
			t.Fatalf("key %d: ok=%v", i, ok)
		}
	}
}

func TestUtilityDensityVictimSelection(t *testing.T) {
	e, err := Open(Config{Dir: t.TempDir(), MemBytes: 2048}, nil, "")
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = e.Close() }()
	e.Put("hot", payload(1, 900))
	e.Put("cold", payload(2, 900))
	// Heat "hot" well past "cold".
	for i := 0; i < 50; i++ {
		if _, ok := e.Get("hot"); !ok {
			t.Fatal("hot missing")
		}
	}
	// Pushing a third object over budget must evict the lowest utility
	// density: "cold".
	e.Put("new", payload(3, 900))
	e.WaitIdle()
	st := e.Stats()
	if st.Spills == 0 {
		t.Fatalf("no spill happened: %+v", st)
	}
	// "hot" must still be resident; verify via Peek-side stats.
	e.mu.Lock()
	hotTier := e.entries["hot"].tier
	coldTier := e.entries["cold"].tier
	e.mu.Unlock()
	if hotTier != TierMem {
		t.Fatalf("hot was evicted (tier %v)", hotTier)
	}
	if coldTier != TierDisk {
		t.Fatalf("cold was not evicted (tier %v)", coldTier)
	}
}

func TestCleanEvictionSkipsRewrite(t *testing.T) {
	// MemBytes below one object size: every entry ends up disk-backed.
	e, err := Open(Config{Dir: t.TempDir(), MemBytes: 256}, nil, "")
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = e.Close() }()
	for i := 0; i < 4; i++ {
		e.Put(fmt.Sprintf("k%d", i), payload(i, 512))
	}
	e.WaitIdle()
	st0 := e.Stats()
	if st0.Spills != 4 || st0.MemObjects != 0 {
		t.Fatalf("expected everything spilled: %+v", st0)
	}
	// Promoting a cold key leaves its backing record valid, so the
	// follow-up eviction must be a free flip, not another record write.
	if got, ok := e.Get("k0"); !ok || !bytes.Equal(got, payload(0, 512)) {
		t.Fatal("promote failed")
	}
	e.WaitIdle()
	st := e.Stats()
	if st.Spills != st0.Spills {
		t.Fatalf("clean eviction rewrote a record: %+v", st)
	}
	if st.Evictions <= st0.Evictions {
		t.Fatalf("no eviction after promotion: %+v", st)
	}
}

func TestRemoteTierUploadAndRead(t *testing.T) {
	remote := NewRemoteStore(RemoteConfig{Seed: 1})
	e, err := Open(Config{
		Dir:       t.TempDir(),
		MemBytes:  1024,
		DiskBytes: 2048,
	}, remote, "s1/")
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = e.Close() }()
	const n = 16
	for i := 0; i < n; i++ {
		e.Put(fmt.Sprintf("k%02d", i), payload(i, 512))
	}
	waitFor(t, "uploads", func() bool { return e.Stats().Uploads > 0 })
	e.WaitIdle()
	// Each tier holds what its budget allows, and no more is demoted: L1
	// exactly its two objects' worth, L2 within one record of its live-byte
	// budget, the rest remote.
	st := e.Stats()
	if st.MemObjects != 2 || st.MemBytes != 1024 {
		t.Fatalf("L1 holds %d objects, %d bytes; want 2 objects, its 1024-byte budget: %+v",
			st.MemObjects, st.MemBytes, st)
	}
	record := int64(headerSize + len("k00") + 512)
	if st.DiskBytes > 2048 || st.DiskBytes <= 2048-record {
		t.Fatalf("L2 holds %d live bytes; want within one %d-byte record under its 2048-byte budget: %+v",
			st.DiskBytes, record, st)
	}
	if st.RemoteObjects != n-st.MemObjects-st.DiskObjects || st.RemoteObjects == 0 {
		t.Fatalf("remote holds %d objects, want the other %d: %+v",
			st.RemoteObjects, n-st.MemObjects-st.DiskObjects, st)
	}
	if remote.Stats().Objects != st.RemoteObjects {
		t.Fatalf("remote store holds %d objects, the engine %d", remote.Stats().Objects, st.RemoteObjects)
	}
	for i := 0; i < n; i++ {
		got, ok := e.Get(fmt.Sprintf("k%02d", i))
		if !ok || !bytes.Equal(got, payload(i, 512)) {
			t.Fatalf("key %d unreadable after tiering: ok=%v", i, ok)
		}
	}
	if e.Stats().RemoteReads == 0 {
		t.Fatal("no read came from remote")
	}
}

func TestRemoteFaultLeavesDataOnDisk(t *testing.T) {
	remote := NewRemoteStore(RemoteConfig{FailProb: 1, Seed: 7})
	e, err := Open(Config{
		Dir:       t.TempDir(),
		MemBytes:  512,
		DiskBytes: 512,
	}, remote, "s1/")
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = e.Close() }()
	for i := 0; i < 6; i++ {
		e.Put(fmt.Sprintf("k%d", i), payload(i, 400))
	}
	waitFor(t, "remote faults", func() bool { return e.Stats().RemoteFaults > 0 })
	e.WaitIdle()
	st := e.Stats()
	if st.Uploads != 0 || st.RemoteObjects != 0 {
		t.Fatalf("upload succeeded despite FailProb=1: %+v", st)
	}
	for i := 0; i < 6; i++ {
		if got, ok := e.Get(fmt.Sprintf("k%d", i)); !ok || !bytes.Equal(got, payload(i, 400)) {
			t.Fatalf("key %d lost after failed uploads", i)
		}
	}
}

// failedUploadUnder opens an engine whose every upload fails after 300 ms,
// stages key, waits until its upload is in flight (the job holds the
// entry), runs meanwhile, waits for the failed job to exit, and reopens the
// disk tier.
func failedUploadUnder(t *testing.T, key string, meanwhile func(*Tiered)) *Tiered {
	t.Helper()
	dir := t.TempDir()
	remote := NewRemoteStore(RemoteConfig{OpenLatency: 300 * time.Millisecond, FailProb: 1, Seed: 7})
	cfg := Config{Dir: dir, MemBytes: 1, DiskBytes: 1}
	e, err := Open(cfg, remote, "s1/")
	if err != nil {
		t.Fatal(err)
	}
	e.Put(key, payload(1, 400))
	waitFor(t, "upload in flight", func() bool { return remote.inflight.Load() > 0 })
	meanwhile(e)
	waitFor(t, "upload failed", func() bool { return e.Stats().RemoteFaults > 0 })
	e.WaitIdle()
	if err := e.Close(); err != nil {
		t.Fatal(err)
	}
	re, err := Open(cfg, nil, "s1/")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = re.Close() })
	return re
}

// TestFailedJobSettlesDeferredDelete: a delete that found the key's upload
// in flight is left to the job, which settles it even when the upload fails,
// so a restart does not resurrect the key.
func TestFailedJobSettlesDeferredDelete(t *testing.T) {
	re := failedUploadUnder(t, "k", func(e *Tiered) { e.Delete("k") })
	if re.Has("k") {
		t.Fatal("deleted key came back after a restart: the failed upload left its delete unsettled")
	}
}

// TestFailedJobSettlesDeferredPut: a re-put that found the key's upload in
// flight is left to the job, which retires the old record even when the
// upload fails, so a restart never serves the old value.
func TestFailedJobSettlesDeferredPut(t *testing.T) {
	re := failedUploadUnder(t, "k", func(e *Tiered) { e.Put("k", payload(2, 400)) })
	if got, ok := re.Get("k"); !ok || !bytes.Equal(got, payload(2, 400)) {
		t.Fatalf("after a restart the key reads ok=%v, old value %v; want the new value",
			ok, ok && bytes.Equal(got, payload(1, 400)))
	}
}

// TestLiveBytesMatchARescan: L2's live-byte count, which the upload walk
// reads, is what a restart's rescan finds. A re-put that finds the key's
// upload still queued leaves the old disk record to the job, which retires
// it on finding the key moved; and the rescan counts a record superseded
// within its own segment dead.
func TestLiveBytesMatchARescan(t *testing.T) {
	remote := NewRemoteStore(RemoteConfig{OpenLatency: 100 * time.Millisecond, Seed: 1})
	cfg := Config{Dir: t.TempDir(), MemBytes: 1, DiskBytes: 1, spillWorkers: 1}
	e, err := Open(cfg, remote, "s1/")
	if err != nil {
		t.Fatal(err)
	}
	keys := []string{"a", "b", "c"}
	for i, k := range keys {
		e.Put(k, payload(i, 400))
	}
	// One worker: while one upload is in flight, the other held ones wait
	// in the queue.
	waitFor(t, "an upload queued behind one in flight", func() bool {
		e.mu.Lock()
		defer e.mu.Unlock()
		held := 0
		for _, k := range keys {
			if e.entries[k].owner == ownUpload {
				held++
			}
		}
		return held >= 2 && remote.inflight.Load() == 1
	})
	for i, k := range keys {
		e.Put(k, payload(i+3, 400))
	}
	e.WaitIdle()
	live := e.Stats().DiskBytes
	if err := e.Close(); err != nil {
		t.Fatal(err)
	}
	re, err := Open(cfg, remote, "s1/")
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = re.Close() }()
	if got := re.Stats().DiskBytes; got != live {
		t.Fatalf("L2 counted %d live bytes, a rescan finds %d", live, got)
	}
}

func TestOverwriteInjectsRotPerTier(t *testing.T) {
	remote := NewRemoteStore(RemoteConfig{Seed: 3})
	e, err := Open(Config{Dir: t.TempDir(), MemBytes: 1 << 20}, remote, "s1/")
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = e.Close() }()
	e.Put("mem", payload(1, 256))
	rotten := payload(1, 256)
	rotten[17] ^= 0x40
	if !e.Overwrite("mem", rotten) {
		t.Fatal("mem overwrite failed")
	}
	got, ok := e.Get("mem")
	if !ok || !bytes.Equal(got, rotten) {
		t.Fatal("mem rot not visible")
	}
	// Disk-resident rot: the record CRC catches it on read and the entry
	// is quarantined.
	e2, err := Open(Config{Dir: t.TempDir(), MemBytes: 256}, nil, "")
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = e2.Close() }()
	e2.Put("a", payload(2, 300))
	e2.Put("b", payload(3, 300))
	e2.WaitIdle()
	var diskKey string
	for _, k := range []string{"a", "b"} {
		e2.mu.Lock()
		tier := e2.entries[k].tier
		e2.mu.Unlock()
		if tier == TierDisk {
			diskKey = k
			break
		}
	}
	if diskKey == "" {
		t.Fatal("nothing spilled")
	}
	bad := payload(9, 300)
	if !e2.Overwrite(diskKey, bad) {
		t.Fatal("disk overwrite failed")
	}
	if _, ok := e2.Get(diskKey); ok {
		t.Fatal("rotten disk record served")
	}
	if e2.Stats().QuarantinedRecords == 0 {
		t.Fatal("rot not quarantined")
	}
}

func TestBackpressureCountsStalls(t *testing.T) {
	e, err := Open(Config{
		Dir:          t.TempDir(),
		MemBytes:     256,
		spillWorkers: 1,
		spillQueue:   1,
	}, nil, "")
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = e.Close() }()
	for i := 0; i < 64; i++ {
		e.Put(fmt.Sprintf("k%02d", i), payload(i, 512))
	}
	e.WaitIdle()
	st := e.Stats()
	if st.Spills == 0 {
		t.Fatal("no spills")
	}
	if st.MemObjects+st.DiskObjects != 64 {
		t.Fatalf("lost objects under backpressure: %+v", st)
	}
}
