package erasure

import (
	"bytes"
	"math/rand"
	"testing"
)

// TestEncodeParallelMatchesSerial is the engine's differential test: for
// several geometries, worker counts (one included), and sizes
// (chunk-unaligned tails included), the chunked-fused engine must produce
// parity byte-identical to the scalar row-major reference (refEncode).
func TestEncodeParallelMatchesSerial(t *testing.T) {
	sizes := []int{1, 17, chunkBytes - 1, chunkBytes, chunkBytes + 1, 3*chunkBytes + 311}
	for _, geom := range [][2]int{{2, 1}, {3, 2}, {4, 2}, {5, 3}, {8, 3}, {9, 4}} {
		k, m := geom[0], geom[1]
		c, err := New(k, m)
		if err != nil {
			t.Fatal(err)
		}
		for _, size := range sizes {
			want := makeStripe(t, c, size, int64(k*100+m*10+size%7))
			for _, workers := range []int{1, 2, 3, 8} {
				got := cloneStripe(want)
				for p := k; p < k+m; p++ {
					clear(got[p]) // make sure Encode really writes parity
				}
				if err := c.WithWorkers(workers).Encode(got); err != nil {
					t.Fatal(err)
				}
				for i := range want {
					if !bytes.Equal(want[i], got[i]) {
						t.Fatalf("RS(%d+%d) size=%d workers=%d: shard %d differs",
							k, m, size, workers, i)
					}
				}
			}
		}
	}
}

// TestReconstructParallelMatchesSerial erases patterns of every weight up to
// m and checks reconstruct, on one worker and on four with the decode-matrix
// cache, restores exactly the reference stripe (refEncode's parity).
func TestReconstructParallelMatchesSerial(t *testing.T) {
	rng := rand.New(rand.NewSource(71))
	for _, geom := range [][2]int{{4, 2}, {8, 3}} {
		k, m := geom[0], geom[1]
		base, err := New(k, m)
		if err != nil {
			t.Fatal(err)
		}
		orig := makeStripe(t, base, 2*chunkBytes+97, int64(10*k+m))
		for _, codec := range []*Codec{base, base.WithWorkers(4).WithDecodeCache(8)} {
			for trial := 0; trial < 40; trial++ {
				lost := 1 + rng.Intn(m)
				erased := rng.Perm(k + m)[:lost]
				for _, dataOnly := range []bool{false, true} {
					stripe := cloneStripe(orig)
					for _, e := range erased {
						stripe[e] = nil
					}
					var rerr error
					if dataOnly {
						rerr = codec.ReconstructData(stripe)
					} else {
						rerr = codec.Reconstruct(stripe)
					}
					if rerr != nil {
						t.Fatalf("RS(%d+%d) workers=%d erased=%v dataOnly=%v: %v", k, m, codec.Workers(), erased, dataOnly, rerr)
					}
					for i := range orig {
						if stripe[i] == nil {
							if dataOnly && i >= k {
								continue // parity legitimately left missing
							}
							t.Fatalf("shard %d still nil (erased=%v dataOnly=%v)", i, erased, dataOnly)
						}
						if !bytes.Equal(stripe[i], orig[i]) {
							t.Fatalf("RS(%d+%d) workers=%d erased=%v dataOnly=%v: shard %d differs", k, m, codec.Workers(), erased, dataOnly, i)
						}
					}
				}
			}
		}
	}
}

// TestDecodeMatrixCache checks hit/miss accounting across repeated and
// distinct erasure patterns, and that WithWorkers copies share the cache.
func TestDecodeMatrixCache(t *testing.T) {
	base, err := New(4, 2)
	if err != nil {
		t.Fatal(err)
	}
	c := base.WithDecodeCache(4)
	orig := makeStripe(t, base, 512, 5)
	degrade := func(cc *Codec, lost ...int) {
		stripe := cloneStripe(orig)
		for _, e := range lost {
			stripe[e] = nil
		}
		if err := cc.Reconstruct(stripe); err != nil {
			t.Fatal(err)
		}
		for i := range orig {
			if !bytes.Equal(stripe[i], orig[i]) {
				t.Fatalf("shard %d differs after losing %v", i, lost)
			}
		}
	}
	degrade(c, 0)
	degrade(c, 0)
	degrade(c, 0, 1)
	degrade(c.WithWorkers(4), 0, 1) // same pattern through a workers copy
	st, ok := c.DecodeCacheStats()
	if !ok {
		t.Fatal("cache stats missing")
	}
	if st.Misses != 2 || st.Hits != 2 || st.Entries != 2 {
		t.Fatalf("stats = %+v, want 2 misses, 2 hits, 2 entries", st)
	}
	if _, ok := base.DecodeCacheStats(); ok {
		t.Fatal("base codec should have no cache")
	}
}

// TestWithWorkersDefaults pins the knob semantics: base codecs run one range,
// non-positive worker counts resolve to DefaultWorkers, and copies do not
// mutate the receiver.
func TestWithWorkersDefaults(t *testing.T) {
	c, err := New(4, 2)
	if err != nil {
		t.Fatal(err)
	}
	if c.Workers() != 1 {
		t.Fatalf("base workers = %d, want 1", c.Workers())
	}
	if got := c.WithWorkers(0).Workers(); got != DefaultWorkers() {
		t.Fatalf("WithWorkers(0) = %d, want DefaultWorkers %d", got, DefaultWorkers())
	}
	if got := c.WithWorkers(6).Workers(); got != 6 {
		t.Fatalf("WithWorkers(6) = %d", got)
	}
	if c.Workers() != 1 {
		t.Fatal("WithWorkers mutated the receiver")
	}
	if got := c.WithDecodeCache(0); got.dec == nil {
		t.Fatal("WithDecodeCache(0) did not attach a default cache")
	}
}

// TestRunCoversRange checks the range partitioner visits every byte exactly
// once for awkward sizes and part counts.
func TestRunCoversRange(t *testing.T) {
	for _, size := range []int{1, chunkBytes, chunkBytes + 1, 5*chunkBytes + 3} {
		for _, parts := range []int{1, 2, 3, 16} {
			seen := make([]int32, size)
			run(size, parts, func(lo, hi int) {
				if lo < 0 || hi > size || lo >= hi {
					t.Errorf("bad range [%d,%d) for size=%d parts=%d", lo, hi, size, parts)
					return
				}
				for i := lo; i < hi; i++ {
					// ranges are disjoint, so unsynchronized writes are safe
					seen[i]++
				}
			})
			for i, n := range seen {
				if n != 1 {
					t.Fatalf("size=%d parts=%d: byte %d visited %d times", size, parts, i, n)
				}
			}
		}
	}
}

// TestReconstructIntoCapacityMatchesAllocate is the differential test of the
// in-place convention: a missing shard given as a zero-length slice with
// room for a shard is rebuilt in that memory — dirty on purpose, no
// allocation — and must hold exactly what the allocate path (nil = missing)
// produces, for every 1- and 2-loss pattern of RS(3+1) and RS(4+2), on the
// engine with one worker and with four, for Reconstruct and ReconstructData, and
// with survivors left untouched. One contiguous buffer backs the data
// shards, the way a reader lays an object out.
func TestReconstructIntoCapacityMatchesAllocate(t *testing.T) {
	for _, geom := range [][2]int{{3, 1}, {4, 2}} {
		k, m := geom[0], geom[1]
		base, err := New(k, m)
		if err != nil {
			t.Fatal(err)
		}
		const size = 2*chunkBytes + 97
		orig := makeStripe(t, base, size, int64(7*k+m))
		var patterns [][]int
		for a := 0; a < k+m; a++ {
			patterns = append(patterns, []int{a})
			for b := a + 1; b < k+m && m >= 2; b++ {
				patterns = append(patterns, []int{a, b})
			}
		}
		for _, workers := range []int{1, 4} {
			c := base.WithWorkers(workers)
			for _, erased := range patterns {
				for _, dataOnly := range []bool{false, true} {
					want := cloneStripe(orig)
					for _, e := range erased {
						want[e] = nil
					}
					reconstruct := c.Reconstruct
					if dataOnly {
						reconstruct = c.ReconstructData
					}
					if err := reconstruct(want); err != nil {
						t.Fatalf("RS(%d+%d) workers=%d erased=%v: allocate path: %v", k, m, workers, erased, err)
					}

					object := make([]byte, k*size)
					got := make([][]byte, k+m)
					for i := range got {
						home := make([]byte, size)
						if i < k {
							home = object[i*size : (i+1)*size : (i+1)*size]
						}
						copy(home, orig[i])
						got[i] = home
					}
					homes := make(map[int][]byte)
					for _, e := range erased {
						for j := range got[e] {
							got[e][j] = 0xEE // rebuilt over, not cleared first
						}
						homes[e] = got[e]
						got[e] = got[e][:0]
					}
					if err := reconstruct(got); err != nil {
						t.Fatalf("RS(%d+%d) workers=%d erased=%v: in-place path: %v", k, m, workers, erased, err)
					}
					for i := range want {
						if want[i] == nil {
							if len(got[i]) != 0 {
								t.Fatalf("erased=%v dataOnly=%v: parity %d rebuilt in place though left missing by the allocate path", erased, dataOnly, i)
							}
							continue
						}
						if !bytes.Equal(got[i], want[i]) {
							t.Fatalf("RS(%d+%d) workers=%d erased=%v dataOnly=%v: shard %d differs from the allocate path", k, m, workers, erased, dataOnly, i)
						}
						if home, wasErased := homes[i]; wasErased && &got[i][0] != &home[0] {
							t.Fatalf("erased=%v: shard %d was rebuilt somewhere else than in its own memory", erased, i)
						}
					}
					for i := 0; i < k; i++ {
						if !bytes.Equal(object[i*size:(i+1)*size], orig[i]) {
							t.Fatalf("erased=%v dataOnly=%v: the object buffer does not hold data shard %d", erased, dataOnly, i)
						}
					}
				}
			}
		}
	}
	// A missing entry without room for a shard still gets an allocation.
	c, _ := New(3, 1)
	stripe := makeStripe(t, c, 64, 5)
	want := append([]byte(nil), stripe[1]...)
	stripe[1] = make([]byte, 0, 63)
	if err := c.ReconstructData(stripe); err != nil || !bytes.Equal(stripe[1], want) {
		t.Fatalf("short-capacity entry: err %v", err)
	}
}
