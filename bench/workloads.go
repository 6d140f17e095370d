package main

import (
	"fmt"

	"corec"
)

// key is one staged object: a variable name and the box it covers.
type key struct {
	name string
	box  corec.Box
	hash uint64
}

// spec is one workload: the fleet it runs on, the keys it touches, and what
// one client does in one time step. Keys are owned by client (index % C), so
// every key has one writer and its expected version is always known exactly.
type spec struct {
	name string
	// mode is the resilience policy; domain bounds the staged space.
	mode   corec.Mode
	domain corec.Box
	// memBytes > 0 turns the tiered storage engine on with that L1 budget
	// per server and an L2 directory under the run's temp dir.
	memBytes int64
	keys     []key
	objBytes int
	// mainShare and degradedShare split a window's time between the
	// healthy steps and the gets made while one server is dead.
	mainShare, degradedShare float64
	// preloadVersion is the version key k is staged at during set-up;
	// firstStep is the first time step the windows run.
	preloadVersion func(k int) int
	firstStep      int
	step           func(c *client, step int)
}

// workloadNames is the order workloads run and print in.
var workloadNames = []string{"step-write", "small-mix", "degraded-read", "tiered-scan"}

// workloadWhy is the one-line reason BENCHMARK.json records per workload.
var workloadWhy = map[string]string{
	"step-write":    "2 MiB blocks of a 256x128x128 domain put every step under CoREC: erasure encode, replica and shard pushes and per-byte wire copy do the work, per-message costs vanish",
	"small-mix":     "2048 one-KiB objects, 70/30 put/get with a hot fifth under CoREC: frame codec, mux round trips, the 8-way directory fan-out, placement and classifier/policy dominate, erasure moves few bytes",
	"degraded-read": "256 KiB all-erasure objects read healthy and then with one server killed: reconstruct, decode-matrix cache, parallel shard fetch, retry against a dead peer and recovery do the work",
	"tiered-scan":   "all-erasure working set 8x the per-server L1 with a disk tier: overwrites under spill back-pressure, an in-order scan the prefetcher can follow and uniform random reads it cannot",
}

// tile cuts dims into blocks of block cells, x slowest, and returns one key
// per block under the variable name.
func tile(name string, dims, block [3]int64) []key {
	var out []key
	for x := int64(0); x < dims[0]; x += block[0] {
		for y := int64(0); y < dims[1]; y += block[1] {
			for z := int64(0); z < dims[2]; z += block[2] {
				b := corec.Box3D(x, y, z, x+block[0], y+block[1], z+block[2])
				out = append(out, key{name: name, box: b, hash: keyHash(name, b.Key())})
			}
		}
	}
	return out
}

func blockBytes(block [3]int64) int { return int(block[0]*block[1]*block[2]) * 8 }

func newSpec(name string, quick bool) (*spec, error) {
	switch name {
	case "step-write":
		return stepWrite(quick), nil
	case "small-mix":
		return smallMix(quick), nil
	case "degraded-read":
		return degradedRead(quick), nil
	case "tiered-scan":
		return tieredScan(quick), nil
	}
	return nil, fmt.Errorf("unknown workload %q (want one of %v)", name, workloadNames)
}

// stepWrite is the paper's S3D / Case-1 pattern: every step each client puts
// all of its blocks, reads back every fourth and the step closes.
func stepWrite(quick bool) *spec {
	dims, block := [3]int64{256, 128, 128}, [3]int64{64, 64, 64}
	if quick {
		dims, block = [3]int64{64, 32, 32}, [3]int64{16, 16, 16}
	}
	return &spec{
		name:           "step-write",
		mode:           corec.PolicyCoREC,
		domain:         corec.Box3D(0, 0, 0, dims[0], dims[1], dims[2]),
		keys:           tile("field", dims, block),
		objBytes:       blockBytes(block),
		mainShare:      0.70,
		degradedShare:  0.15,
		preloadVersion: func(int) int { return 1 },
		firstStep:      2,
		step: func(c *client, step int) {
			for _, k := range c.own {
				c.put(k, step)
			}
			for i, k := range c.own {
				if i%4 == 0 {
					c.get(k, kindGet)
				}
			}
		},
	}
}

// smallMix is message-rate-bound: one-KiB objects, 70 % puts of which 80 %
// go to a spatially contiguous hot fifth of the keys, 30 % uniform gets.
func smallMix(quick bool) *spec {
	dims, block := [3]int64{128, 64, 32}, [3]int64{8, 4, 4}
	opsPerStep := 1000
	if quick {
		dims, opsPerStep = [3]int64{32, 16, 16}, 100
	}
	return &spec{
		name:           "small-mix",
		mode:           corec.PolicyCoREC,
		domain:         corec.Box3D(0, 0, 0, dims[0], dims[1], dims[2]),
		keys:           tile("cell", dims, block),
		objBytes:       blockBytes(block),
		mainShare:      0.65,
		degradedShare:  0.12,
		preloadVersion: func(int) int { return 1 },
		firstStep:      2,
		step: func(c *client, step int) {
			hot := c.own[:len(c.own)/5]
			cold := c.own[len(c.own)/5:]
			for i := 0; i < opsPerStep/len(c.r.clients); i++ {
				switch {
				case c.rng.Float64() >= 0.7:
					c.get(c.own[c.rng.Intn(len(c.own))], kindGet)
				case c.rng.Float64() < 0.8:
					c.put(hot[c.rng.Intn(len(hot))], step)
				default:
					c.put(cold[c.rng.Intn(len(cold))], step)
				}
			}
		},
	}
}

// degradedRead spends most of each window reading with one server dead. A
// step rewrites a rotating slice of the objects (so recovery always has
// fresh stripes to rebuild) and reads healthy objects uniformly.
func degradedRead(quick bool) *spec {
	dims, block := [3]int64{256, 256, 128}, [3]int64{32, 32, 32}
	refresh, gets := 32, 200
	if quick {
		dims, block = [3]int64{64, 64, 32}, [3]int64{16, 16, 16}
		refresh, gets = 8, 20
	}
	keys := tile("plane", dims, block)
	return &spec{
		name:           "degraded-read",
		mode:           corec.PolicyErasure,
		domain:         corec.Box3D(0, 0, 0, dims[0], dims[1], dims[2]),
		keys:           keys,
		objBytes:       blockBytes(block),
		mainShare:      0.30,
		degradedShare:  0.50,
		preloadVersion: func(int) int { return 1 },
		firstStep:      2,
		step: func(c *client, step int) {
			lo := (step * refresh) % len(keys)
			for _, k := range c.own {
				if k >= lo && k < lo+refresh {
					c.put(k, step)
				}
			}
			for i := 0; i < gets; i++ {
				c.get(c.own[c.rng.Intn(len(c.own))], kindGet)
			}
		},
	}
}

// tieredScan keeps a working set several times the fleet's L1 in a ring of
// epochs. A step overwrites the oldest epoch, scans the epoch written two
// steps earlier in put order, then reads as many blocks uniformly.
func tieredScan(quick bool) *spec {
	epochs, dims, block := 8, [3]int64{128, 128, 128}, [3]int64{32, 32, 32}
	memBytes := int64(2 << 20)
	if quick {
		epochs, dims, block = 4, [3]int64{32, 32, 32}, [3]int64{16, 16, 16}
		memBytes = 64 << 10
	}
	var keys []key
	for e := 0; e < epochs; e++ {
		keys = append(keys, tile(fmt.Sprintf("scan%d", e), dims, block)...)
	}
	perEpoch := len(keys) / epochs
	// slot holds the keys of the epoch written at version v.
	slot := func(v int) (lo, hi int) {
		s := (v - 1) % epochs
		return s * perEpoch, (s + 1) * perEpoch
	}
	return &spec{
		name:           "tiered-scan",
		mode:           corec.PolicyErasure,
		domain:         corec.Box3D(0, 0, 0, dims[0], dims[1], dims[2]),
		memBytes:       memBytes,
		keys:           keys,
		objBytes:       blockBytes(block),
		mainShare:      0.70,
		degradedShare:  0.12,
		preloadVersion: func(k int) int { return k/perEpoch + 1 },
		firstStep:      epochs + 1,
		step: func(c *client, step int) {
			lo, hi := slot(step)
			n := 0
			for _, k := range c.own {
				if k >= lo && k < hi {
					c.put(k, step)
					n++
				}
			}
			lo, hi = slot(step - 2)
			for _, k := range c.own {
				if k >= lo && k < hi {
					c.get(k, kindSeqGet)
				}
			}
			for i := 0; i < n; i++ {
				c.get(c.own[c.rng.Intn(len(c.own))], kindRandGet)
			}
		},
	}
}
