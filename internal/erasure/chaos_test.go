package erasure

import (
	"bytes"
	"math/rand"
	"sync"
	"testing"
)

// TestChaosParallelEncodeAndCachedReconstruct is the erasure side of the
// -race chaos job: many goroutines concurrently encode fresh stripes through
// the shared worker pool while others run degraded reconstructions that all
// hit one shared decode-matrix cache. It validates results byte-exactly, so
// with -race it covers both memory-safety and determinism of the engine
// under contention. It stays small enough to run under -short.
func TestChaosParallelEncodeAndCachedReconstruct(t *testing.T) {
	base, err := New(8, 3)
	if err != nil {
		t.Fatal(err)
	}
	codec := base.WithWorkers(4).WithDecodeCache(8)
	const (
		writers  = 4
		readers  = 4
		rounds   = 25
		size     = chunkBytes + 513 // exercises multi-range + odd tail
		patterns = 6                // few distinct loss patterns -> cache contention
	)
	// One immutable reference stripe per loss pattern for the readers.
	refs := make([][][]byte, patterns)
	losses := make([][]int, patterns)
	prng := rand.New(rand.NewSource(97))
	for i := range refs {
		refs[i] = makeStripe(t, base, size, int64(200+i))
		losses[i] = prng.Perm(11)[:1+prng.Intn(3)]
	}
	var wg sync.WaitGroup
	errs := make(chan error, writers+readers)
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			for r := 0; r < rounds; r++ {
				stripe := make([][]byte, codec.TotalShards())
				for i := range stripe {
					stripe[i] = make([]byte, size)
					if i < codec.DataShards() {
						rng.Read(stripe[i])
					}
				}
				if err := codec.Encode(stripe); err != nil {
					errs <- err
					return
				}
				// The reference encode of the same data must agree byte-exactly.
				check := cloneStripe(stripe)
				for p := codec.DataShards(); p < codec.TotalShards(); p++ {
					clear(check[p])
				}
				refEncode(codec, check)
				for i := range stripe {
					if !bytes.Equal(stripe[i], check[i]) {
						t.Errorf("writer: parallel encode diverged on shard %d", i)
						return
					}
				}
			}
		}(int64(300 + w))
	}
	for g := 0; g < readers; g++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			for r := 0; r < rounds; r++ {
				pi := rng.Intn(patterns)
				stripe := cloneStripe(refs[pi])
				for _, e := range losses[pi] {
					stripe[e] = nil
				}
				if err := codec.ReconstructData(stripe); err != nil {
					errs <- err
					return
				}
				for d := 0; d < codec.DataShards(); d++ {
					if !bytes.Equal(stripe[d], refs[pi][d]) {
						t.Errorf("reader: data shard %d diverged for pattern %d", d, pi)
						return
					}
				}
			}
		}(int64(400 + g))
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	st, ok := codec.DecodeCacheStats()
	if !ok || st.Hits == 0 {
		t.Fatalf("decode cache saw no hits under contention: %+v", st)
	}
}
