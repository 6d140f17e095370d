package storage

import (
	"bytes"
	"fmt"
	"sync"
	"testing"
)

// TestSpillPrefetchChaos hammers one engine from concurrent writers,
// readers and deleters across all three tiers — with remote faults
// injected — then verifies every surviving key byte-for-byte. Run under
// -race (the Makefile storagerace target does), this is the data-race and
// lost-update check for the whole spill/upload/prefetch/compact machinery.
func TestSpillPrefetchChaos(t *testing.T) {
	remote := NewRemoteStore(RemoteConfig{FailProb: 0.05, Seed: 11})
	e, err := Open(Config{
		Dir:          t.TempDir(),
		MemBytes:     8 << 10,
		DiskBytes:    32 << 10,
		segmentBytes: 8 << 10,
		spillWorkers: 3,
		spillQueue:   8,
		Prefetch:     true,
		prefetchMBps: 4096,
	}, remote, "chaos/")
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = e.Close() }()

	const (
		workers = 4
		keys    = 24 // per worker
		rounds  = 40
	)
	// Each worker owns a disjoint key range, so the final value of every
	// key is deterministic per worker: version rounds-1, or deleted.
	value := func(w, k, ver int) []byte {
		b := make([]byte, 200+(k*37+ver*13)%600)
		seed := byte(w*31 + k*7 + ver)
		for i := range b {
			b[i] = seed + byte(i)
		}
		return b
	}
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for ver := 0; ver < rounds; ver++ {
				for k := 0; k < keys; k++ {
					key := fmt.Sprintf("w%d-k%02d", w, k)
					switch {
					case ver > 0 && (k+ver)%11 == 0:
						e.Delete(key)
					default:
						e.PutTagged(key, value(w, k, ver), int64(ver))
					}
					if (k+ver)%3 == 0 {
						// Interleave reads; transient remote faults are
						// expected, correctness is checked after the storm.
						_, _ = e.Get(key)
					}
				}
			}
		}(w)
	}
	wg.Wait()
	e.WaitIdle()

	// Every key's final operation in round rounds-1 was a put unless
	// (k+rounds-1)%11 == 0 killed it.
	lastVer := rounds - 1
	for w := 0; w < workers; w++ {
		for k := 0; k < keys; k++ {
			key := fmt.Sprintf("w%d-k%02d", w, k)
			deleted := (k+lastVer)%11 == 0
			if deleted {
				if e.Has(key) {
					t.Fatalf("%s survived its final delete", key)
				}
				continue
			}
			want := value(w, k, lastVer)
			var got []byte
			var ok bool
			for attempt := 0; attempt < 100; attempt++ {
				// Remote faults are transient timeouts in the model; retry
				// until the fault stream lets the read through.
				if got, ok = e.Get(key); ok {
					break
				}
			}
			if !ok {
				t.Fatalf("%s unreadable after chaos (stats %+v)", key, e.Stats())
			}
			if !bytes.Equal(got, want) {
				t.Fatalf("%s holds wrong bytes after chaos: len %d want %d", key, len(got), len(want))
			}
		}
	}
	st := e.Stats()
	if st.Spills == 0 {
		t.Fatalf("chaos never exercised spilling: %+v", st)
	}
	if total := st.MemObjects + st.DiskObjects + st.RemoteObjects; total != e.Len() {
		t.Fatalf("tier gauges disagree with index: %+v vs Len %d", st, e.Len())
	}
}

// TestChaosKillRestart crashes the engine mid-storm (Close discards L1,
// like a real kill) and verifies the disk tier revalidates and serves
// everything that had settled below L1.
func TestChaosKillRestart(t *testing.T) {
	dir := t.TempDir()
	remote := NewRemoteStore(RemoteConfig{Seed: 13})
	e, err := Open(Config{
		Dir:          dir,
		MemBytes:     1, // everything settles to disk before the kill
		DiskBytes:    16 << 10,
		segmentBytes: 4 << 10,
	}, remote, "kr/")
	if err != nil {
		t.Fatal(err)
	}
	const n = 40
	for i := 0; i < n; i++ {
		e.Put(fmt.Sprintf("k%02d", i), payload(i%48, 300))
	}
	e.WaitIdle()
	if err := e.Close(); err != nil { // the "kill": L1 gone, segments stay
		t.Fatal(err)
	}

	re, err := Open(Config{Dir: dir, MemBytes: 1, DiskBytes: 16 << 10}, remote, "kr/")
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = re.Close() }()
	if re.Stats().RestoredRecords == 0 {
		t.Fatal("restart restored nothing")
	}
	for i := 0; i < n; i++ {
		key := fmt.Sprintf("k%02d", i)
		var got []byte
		var ok bool
		for attempt := 0; attempt < 100; attempt++ {
			if got, ok = re.Get(key); ok {
				break
			}
		}
		if !ok || !bytes.Equal(got, payload(i%48, 300)) {
			t.Fatalf("%s lost across kill-restart", key)
		}
	}
}
