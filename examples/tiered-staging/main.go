// tiered-staging: the storage engine's three tiers in isolation — L1
// process memory, L2 append-only disk segments, L3 a modeled remote object
// store. The staging line shows 96 blocks filling memory to its budget of
// 16, disk to just under its 32 (record headers count too) and the rest
// remote; the example fails otherwise. A hotspot workload keeps one quarter
// of the domain hot; each row shows the per-block read latency of the hot
// and cold sets and how many hot blocks memory holds after the step. A
// sequential second pass then drives the prefetcher, which stages the next
// time step's blocks.
//
// Run with: go run ./examples/tiered-staging
package main

import (
	"fmt"
	"log"
	"math/rand"
	"os"
	"time"

	"corec/internal/geometry"
	"corec/internal/storage"
)

func main() {
	domain := geometry.Box3D(0, 0, 0, 64, 64, 64)
	blocks, err := geometry.GridDecompose(domain, []int64{16, 16, 16})
	if err != nil {
		log.Fatal(err)
	}
	blockBytes := int(blocks[0].Volume()) * 8

	// Memory holds only a quarter of the step-1 blocks; the disk tier
	// catches the spill and an artificially slow remote store catches the
	// rest, so the tier difference is visible above timer noise.
	dir, err := os.MkdirTemp("", "tiered-staging-")
	if err != nil {
		log.Fatal(err)
	}
	defer os.RemoveAll(dir)
	remoteCfg := storage.RemoteConfig{
		OpenLatency:    4 * time.Millisecond,
		BytesPerSecond: 64 << 20,
	}
	remote := storage.NewRemoteStore(remoteCfg)
	eng, err := storage.Open(storage.Config{
		MemBytes:  int64(len(blocks)/4) * int64(blockBytes),
		Dir:       dir,
		DiskBytes: int64(len(blocks)/2) * int64(blockBytes),
		Prefetch:  true,
		Remote:    &remoteCfg,
	}, remote, "demo/")
	if err != nil {
		log.Fatal(err)
	}
	defer eng.Close()

	// Stage every block, tagged with time step 1 so the prefetcher can
	// recognize sequential cross-step access later.
	rng := rand.New(rand.NewSource(11))
	for i, b := range blocks {
		buf := make([]byte, blockBytes)
		rng.Read(buf)
		eng.PutTagged(b.Key(), buf, 1)
		if i%2 == 0 { // half the blocks exist for step 2 as well
			eng.PutTagged("v2/"+b.Key(), buf, 2)
		}
	}
	eng.WaitIdle()
	st := eng.Stats()
	staged := len(blocks) + (len(blocks)+1)/2
	fmt.Printf("staged %d blocks (%d KiB each): mem %d, disk %d, remote %d\n",
		staged, blockBytes>>10, st.MemObjects, st.DiskObjects, st.RemoteObjects)
	if st.MemObjects != len(blocks)/4 || st.DiskObjects > len(blocks)/2 {
		log.Fatalf("tiers do not hold what their budgets allow: want mem %d, disk at most %d", len(blocks)/4, len(blocks)/2)
	}

	// The hot quarter: blocks whose lower corner sits in x<32, y<32.
	var hot, cold []geometry.Box
	for _, b := range blocks {
		if b.Lo[0] < 32 && b.Lo[1] < 32 {
			hot = append(hot, b)
		} else {
			cold = append(cold, b)
		}
	}

	readSet := func(set []geometry.Box) time.Duration {
		start := time.Now()
		for _, b := range set {
			if _, ok := eng.Get(b.Key()); !ok {
				log.Fatalf("block %v missing", b)
			}
		}
		return time.Since(start) / time.Duration(len(set))
	}

	fmt.Println("\nts   hot-read/blk  cold-read/blk  hot-in-mem")
	for ts := 1; ts <= 6; ts++ {
		hotLat := readSet(hot)
		var coldLat time.Duration
		if ts%3 == 1 { // the analysis occasionally sweeps the cold data
			coldLat = readSet(cold)
		}
		eng.WaitIdle()
		inMem := 0
		for _, b := range hot {
			if tier, ok := eng.TierOf(b.Key()); ok && tier == storage.TierMem {
				inMem++
			}
		}
		fmt.Printf("%2d   %12v  %13v  %d/%d\n",
			ts, hotLat.Round(time.Microsecond), coldLat.Round(time.Microsecond), inMem, len(hot))
	}

	// Sequential pass over step 1 arms the prefetcher, which stages the
	// step-2 blocks behind the reader's back.
	for _, b := range blocks {
		if _, ok := eng.Get(b.Key()); !ok {
			log.Fatalf("block %v missing", b)
		}
		eng.WaitIdle()
	}
	for i, b := range blocks {
		if i%2 != 0 {
			continue
		}
		if _, ok := eng.Get("v2/" + b.Key()); !ok {
			log.Fatalf("step-2 block %v missing", b)
		}
	}
	st = eng.Stats()
	fmt.Printf("\nprefetch: issued %d, hits %d — the next step's blocks were already resident.\n",
		st.PrefetchIssued, st.PrefetchHits)
}
