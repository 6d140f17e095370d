package corec

import (
	"bytes"
	"context"
	"fmt"
	"math/rand"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"corec/internal/failure"
	"corec/internal/ndarray"
	"corec/internal/transport"
)

// TestRandomOpsAgainstReferenceModel drives a CoREC cluster with a long
// random sequence of puts, gets, step boundaries and within-tolerance
// failure/recovery cycles, checking every read against a plain in-memory
// reference model (the "obviously correct" map). This is the linearized
// single-client correctness property: whatever the resilience machinery
// does underneath — replication, demotion, promotion, degraded reads,
// repairs — a read must always return the reference bytes. Reads come in two
// shapes: one object's own box, and an unaligned region over several objects
// and (the objects straddle x = 64) two directory cells, which must match
// both the reference and what a forced full fan-out of the lookup returns.
// Every read alternates between Get and GetInto, the latter into one reused
// buffer left dirty by the read before it, so cells that no staged object
// covers must come back cleared, not stale. A read of one object is repeated
// the way a server reads (serverSideReader), from the live member of the
// object's coding group with the lowest id, and must return the same bytes.
//
// A read of one object names the version its last put was acknowledged at,
// the floor a lookup may stop at the first directory mirror for: it must
// never return older bytes than that put's. The last arm runs CoREC under the
// chaos tests' drop / duplicate / partition schedule, where a directory write
// can miss a mirror and leave it a version behind its twin. Those arms run
// in-process on small objects; one more runs over TCP on objects the servers
// receive into pooled buffers, rewrites racing reads (see
// testRacingRewritesOverTCP).
func TestRandomOpsAgainstReferenceModel(t *testing.T) {
	faults := &failure.FaultPlan{
		Seed:  7,
		Links: []failure.LinkFault{{DropProb: 0.01, DupProb: 0.005}},
		Partitions: []failure.Partition{
			{A: []ServerID{2}, B: []ServerID{6}, FromStep: 5, ToStep: 6},
			{A: []ServerID{1}, B: []ServerID{5}, FromStep: 8, ToStep: 9},
		},
	}
	for _, arm := range []struct {
		name string
		mode Mode
		plan *failure.FaultPlan
	}{
		{"replicate", PolicyReplicate, nil}, {"erasure", PolicyErasure, nil}, {"corec", PolicyCoREC, nil},
		{"corec-faulty-fabric", PolicyCoREC, faults},
	} {
		t.Run(arm.name, func(t *testing.T) {
			cfg := DefaultConfig(8)
			cfg.Mode, cfg.FaultPlan = arm.mode, arm.plan
			cluster, err := NewCluster(cfg)
			if err != nil {
				t.Fatal(err)
			}
			defer cluster.Close()
			client := cluster.NewClient()
			ctx := context.Background()
			rng := rand.New(rand.NewSource(424242))

			const objects = 12
			boxFor := func(i int) Box {
				return Box3D(int64(i)*8, 0, 0, int64(i)*8+8, 8, 8)
			}
			reference := make(map[int][]byte)
			acked := make(map[int]Version) // the version each object's last put was acknowledged at
			ts := Version(1)
			var dead ServerID = -1
			// regionWant assembles what a read of region must return from
			// the reference: staged objects' bytes, zeros elsewhere.
			regionWant := func(region Box) []byte {
				out := make([]byte, ndarray.BufferSize(region, 8))
				for i, data := range reference {
					if _, err := ndarray.CopyRegion(boxFor(i), data, region, out, 8); err != nil {
						t.Fatal(err)
					}
				}
				return out
			}

			// read is Get on even calls and GetInto on odd ones, into a
			// reused buffer (exact capacity: nothing past len is lent) that
			// still holds the previous read's bytes, or 0xEE.
			reads := 0
			var reused []byte
			read := func(region Box, version Version) ([]byte, error) {
				reads++
				if reads%2 == 0 {
					return client.Get(ctx, "ref", region, version)
				}
				n := ndarray.BufferSize(region, 8)
				for len(reused) < n {
					reused = append(reused, 0xEE)
				}
				dst := reused[:n:n]
				return dst, client.GetInto(ctx, "ref", region, version, dst)
			}

			for op := 0; op < 300; op++ {
				switch choice := rng.Intn(10); {
				case choice < 4: // put
					i := rng.Intn(objects)
					b := boxFor(i)
					if dead >= 0 && cluster.place.Primary(ObjectID{Var: "ref", Box: b}) == dead {
						continue // primary down: the system rejects the write
					}
					data := make([]byte, int(b.Volume())*8)
					rng.Read(data)
					if err := client.Put(ctx, "ref", b, ts, data); err != nil {
						t.Fatalf("op %d: put obj %d: %v", op, i, err)
					}
					reference[i], acked[i] = data, ts
				case choice == 7: // get of an unaligned region over several objects
					x0 := rng.Int63n(objects*8 - 1)
					x1 := x0 + 1 + rng.Int63n(objects*8-x0)
					y0, z0 := rng.Int63n(8), rng.Int63n(8)
					region := Box3D(x0, y0, z0, x1, y0+1+rng.Int63n(8-y0), z0+1+rng.Int63n(8-z0))
					got, err := read(region, ts)
					if err != nil {
						t.Fatalf("op %d: get region %v (ts %d, dead %d): %v", op, region, ts, dead, err)
					}
					if !bytes.Equal(got, regionWant(region)) {
						t.Fatalf("op %d: region %v diverged from reference", op, region)
					}
					metas, err := client.reader.Query(ctx, client.cluster.place.Members(), "ref", region, nil)
					if err != nil {
						t.Fatalf("op %d: full fan-out for %v: %v", op, region, err)
					}
					fanned := bytes.Repeat([]byte{0xEE}, len(got))
					if err := client.fetchRegion(ctx, region, metas, fanned, false); err != nil {
						t.Fatalf("op %d: fetch after full fan-out for %v: %v", op, region, err)
					}
					if !bytes.Equal(got, fanned) {
						t.Fatalf("op %d: region %v: targeted lookup and full fan-out disagree", op, region)
					}
				case choice < 7: // get
					i := rng.Intn(objects)
					want, ok := reference[i]
					if !ok {
						continue
					}
					got, err := read(boxFor(i), acked[i])
					if err != nil {
						t.Fatalf("op %d: get obj %d (ts %d, dead %d): %v", op, i, ts, dead, err)
					}
					if !bytes.Equal(got, want) {
						t.Fatalf("op %d: get of obj %d naming version %d, its last acknowledged put, returned other bytes", op, i, acked[i])
					}
					metas, err := client.Query(ctx, "ref", boxFor(i))
					if err != nil || len(metas) != 1 {
						t.Fatalf("op %d: query obj %d: %v (%d records)", op, i, err, len(metas))
					}
					members := cluster.place.CodingGroup(metas[0].Primary)
					slices.Sort(members)
					for _, member := range members {
						if self := cluster.Server(ServerID(member)); self != nil && cluster.Alive(ServerID(member)) {
							buf := make([]byte, metas[0].Size)
							if err := serverSideReader(client, self).Object(ctx, &metas[0], buf); err != nil {
								t.Fatalf("op %d: server %d reads obj %d (ts %d, dead %d): %v", op, member, i, ts, dead, err)
							}
							if !bytes.Equal(buf, want) {
								t.Fatalf("op %d: server %d read obj %d and diverged from reference", op, member, i)
							}
							break
						}
					}
				case choice == 8: // step boundary
					cluster.EndTimeStep(ts)
					ts++
				default: // failure / recovery toggle (within tolerance)
					if dead < 0 {
						dead = ServerID(rng.Intn(8))
						cluster.Kill(dead)
					} else {
						srv, err := cluster.Replace(dead)
						if err != nil {
							t.Fatalf("op %d: replace: %v", op, err)
						}
						if _, err := srv.RunRecovery(ctx, RecoveryAggressive); err != nil {
							t.Fatalf("op %d: recovery: %v", op, err)
						}
						dead = -1
					}
				}
			}
			// Final sweep: every object matches the reference.
			for i, want := range reference {
				got, err := read(boxFor(i), acked[i])
				if err != nil {
					t.Fatalf("final get obj %d: %v", i, err)
				}
				if !bytes.Equal(got, want) {
					t.Fatalf("final: obj %d diverged", i)
				}
			}
		})
	}
	t.Run("corec-tcp-racing", testRacingRewritesOverTCP)
}

// testRacingRewritesOverTCP runs CoREC over the TCP fabric with objects of 64
// and 80 KiB, which servers receive into pooled buffers that a superseded
// copy gives back, and a background scrubber reading every stored copy. In
// each round one writer rewrites every object while two readers get them;
// steps close between rounds, and one server is killed halfway, replaced and
// recovered at the end. The reference model allows a read racing rewrites of
// its object any content from the last put acknowledged before the read began
// to the last put begun before it ended; once the writes stop, every read
// must return the last acknowledged content.
func testRacingRewritesOverTCP(t *testing.T) {
	cfg := DefaultConfig(8)
	cfg.Transport = "tcp"
	cfg.Mode = PolicyCoREC
	sc := DefaultScrubConfig()
	sc.Interval, sc.BytesPerSec = 5*time.Millisecond, 0
	cfg.Scrub = &sc
	cluster, err := NewCluster(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer cluster.Close()
	ctx := context.Background()
	writer, readers := cluster.NewClient(), []*Client{cluster.NewClient(), cluster.NewClient()}

	const objects, rounds = 6, 10
	boxFor := func(i int) Box {
		w := int64(32 + 8*(i%2)) // 64 or 80 KiB of 8-byte elements
		return Box3D(int64(i)*40, 0, 0, int64(i)*40+w, 16, 16)
	}
	// content is object i's bytes as its seq-th put wrote them.
	content := func(i int, seq int64) []byte {
		data := make([]byte, int(boxFor(i).Volume())*8)
		rand.New(rand.NewSource(int64(i)<<32 | seq)).Read(data)
		return data
	}
	var started, acked [objects]atomic.Int64 // put seqs begun and acknowledged, per object
	var ackedAt [objects]atomic.Int64        // the version of each object's acknowledged put
	dead := ServerID(-1)

	get := func(cl *Client, i int) error {
		lo := acked[i].Load()
		if lo == 0 {
			return nil // not staged yet
		}
		got, err := cl.Get(ctx, "ref", boxFor(i), Version(ackedAt[i].Load()))
		if err != nil {
			return fmt.Errorf("get obj %d: %w", i, err)
		}
		for seq := lo; seq <= started[i].Load(); seq++ {
			if bytes.Equal(got, content(i, seq)) {
				return nil
			}
		}
		return fmt.Errorf("get obj %d returned bytes of no put from seq %d to %d", i, lo, started[i].Load())
	}

	hits0, _ := transport.BufferPoolStats()
	ts := Version(1)
	for round := 0; round < rounds; round++ {
		var wg sync.WaitGroup
		errs := make(chan error, 1+len(readers))
		wg.Add(1)
		go func() {
			defer wg.Done()
			for pass := 0; pass < 2; pass++ {
				for i := 0; i < objects; i++ {
					if dead >= 0 && cluster.place.Primary(ObjectID{Var: "ref", Box: boxFor(i)}) == dead {
						continue // primary down: the system rejects the write
					}
					seq := started[i].Add(1)
					if err := writer.Put(ctx, "ref", boxFor(i), ts, content(i, seq)); err != nil {
						errs <- fmt.Errorf("put obj %d: %w", i, err)
						return
					}
					ackedAt[i].Store(int64(ts))
					acked[i].Store(seq)
				}
			}
		}()
		for r, cl := range readers {
			wg.Add(1)
			go func() {
				defer wg.Done()
				rng := rand.New(rand.NewSource(int64(round*len(readers) + r)))
				for n := 0; n < 3*objects; n++ {
					if err := get(cl, rng.Intn(objects)); err != nil {
						errs <- err
						return
					}
				}
			}()
		}
		wg.Wait()
		close(errs)
		for err := range errs {
			t.Fatalf("round %d (dead %d): %v", round, dead, err)
		}
		cluster.EndTimeStep(ts)
		ts++
		if round == rounds/2 {
			dead = cluster.place.Members()[round%8]
			cluster.Kill(dead)
		}
	}
	srv, err := cluster.Replace(dead)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := srv.RunRecovery(ctx, RecoveryAggressive); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < objects; i++ {
		got, err := readers[0].Get(ctx, "ref", boxFor(i), Version(ackedAt[i].Load()))
		if err != nil || !bytes.Equal(got, content(i, acked[i].Load())) {
			t.Fatalf("final get obj %d: %v, or not its last acknowledged put", i, err)
		}
	}
	fs := cluster.FabricStatus()
	if hits, _ := transport.BufferPoolStats(); hits-hits0 < objects*rounds {
		t.Errorf("%d buffers recycled over %d puts: the payloads did not run through the pool", hits-hits0, 2*objects*rounds)
	}
	if fs.Scrub.Scanned == 0 {
		t.Error("the scrubber verified no stored piece")
	}
}
