package server

import (
	"context"
	"slices"
	"sync/atomic"
	"testing"

	"corec/internal/geometry"
	"corec/internal/policy"
	"corec/internal/scrub"
	"corec/internal/transport"
	"corec/internal/types"
)

// digestPasses counts, per server, the digest passes made over payloads of
// one size, by polynomial: a full digest reads the payload through both, a
// digest completed from the frame reader's verified check through
// CRC-32/IEEE alone.
type digestPasses struct{ castagnoli, ieee []atomic.Int64 }

// countDigests installs the counting digest hook on every server of the rig.
func countDigests(rig *testRig, size int) *digestPasses {
	p := &digestPasses{
		castagnoli: make([]atomic.Int64, len(rig.servers)),
		ieee:       make([]atomic.Int64, len(rig.servers)),
	}
	for i, srv := range rig.servers {
		i := i
		srv.digestFn = func(b []byte, crc32c uint32, verified bool) uint64 {
			if len(b) == size {
				p.ieee[i].Add(1)
				if !verified {
					p.castagnoli[i].Add(1)
				}
			}
			return digestPayload(b, crc32c, verified)
		}
	}
	return p
}

// heldNet is a TCP fabric that holds back the registrations of the servers
// built on it until release: what a test sets on them before then, their
// handlers see.
type heldNet struct {
	*transport.TCPNetwork
	held []func()
}

func (n *heldNet) Register(id types.ServerID, h transport.Handler) {
	n.held = append(n.held, func() { n.TCPNetwork.Register(id, h) })
}

func (n *heldNet) release() {
	for _, register := range n.held {
		register()
	}
}

func (p *digestPasses) reset() {
	for i := range p.ieee {
		p.castagnoli[i].Store(0)
		p.ieee[i].Store(0)
	}
}

// TestPutDigestsPayloadOncePerServer follows one CoREC put through to the
// encoded directory flip and counts the at-rest digest passes made over the
// full payload: one on the primary (the put's; the background encode reuses
// it) and one on each replica holder. It then rewrites the object within
// the same version — the case where a reused sum could belong to the bytes
// being replaced — and checks the directory records the new content's sum.
// On the in-process fabric nothing verifies a payload on the way in, so
// each of those passes reads it through both polynomials.
func TestPutDigestsPayloadOncePerServer(t *testing.T) {
	rig := newConstrainedRig(t, 0.67)
	box := geometry.Box3D(0, 0, 0, 16, 16, 32)
	const size = 16 * 16 * 32 * 8
	full := countDigests(rig, size)

	id := types.ObjectID{Var: "v", Box: box}
	for round, data := range [][]byte{payload(size, 21), payload(size, 22)} {
		full.reset()
		primary := rig.put(t, "v", box, 1, data)
		srv := rig.servers[primary]
		srv.WaitEncodeIdle()
		meta, ok := srv.reader.LookupMeta(context.Background(), id)
		if !ok || meta.State != types.StateEncoded {
			t.Fatalf("round %d: object not encoded: %+v", round, meta)
		}
		if meta.Checksum != scrub.Checksum(data) {
			t.Fatalf("round %d: directory checksum %#x is not the stored content's %#x", round, meta.Checksum, scrub.Checksum(data))
		}
		if ieee, c := full.ieee[primary].Load(), full.castagnoli[primary].Load(); ieee != 1 || c != 1 {
			t.Errorf("round %d: primary digested the full payload %d times (CRC-32C %d), want 1 and 1", round, ieee, c)
		}
		for _, h := range srv.place.ReplicaHolders(srv.id) {
			if ieee, c := full.ieee[h].Load(), full.castagnoli[h].Load(); ieee != 1 || c != 1 {
				t.Errorf("round %d: replica holder %d digested the full payload %d times (CRC-32C %d), want 1 and 1", round, h, ieee, c)
			}
		}
	}
}

// TestPutChecksPayloadOncePerHopOverTCP is the same put over the TCP fabric,
// where the payload check of a frame is the digest's CRC-32C half. Followed
// to the encoded flip it must cost, over the full payload: CRC-32/IEEE once
// on the primary and once per replica holder, each completing the digest
// from the check its frame reader verified, so no server runs CRC-32C
// itself; CRC-32C once per receiving hop, in the frame reader; once on a
// sender that holds no digest (the client's put, the primary's three shard
// pushes) and not at all on one that does (the replica push). The payload
// checks are the process-wide counters of transport.PayloadCheckStats; the
// flow has no other payload-carrying message. Under the erasure policy the
// primary encodes on the write path and pushes no replica: its one pass
// completes the put's digest just the same, and no holder digests anything.
func TestPutChecksPayloadOncePerHopOverTCP(t *testing.T) {
	for _, mode := range []policy.Mode{policy.CoREC, policy.Erasure} {
		t.Run(mode.String(), func(t *testing.T) { testPutChecksPayloadOncePerHopOverTCP(t, mode) })
	}
}

func testPutChecksPayloadOncePerHopOverTCP(t *testing.T, mode policy.Mode) {
	tn := transport.NewTCPNetwork("127.0.0.1")
	defer tn.Close()
	// The counting digest goes in before any server listens: a socket carries
	// no happens-before edge the race detector sees, so a hook installed on a
	// serving server races with the handlers the put reaches.
	held := &heldNet{TCPNetwork: tn}
	rig := newRigOn(t, held, mode, 8, 0.67)
	box := geometry.Box3D(0, 0, 0, 16, 16, 32)
	const size = 16 * 16 * 32 * 8
	full := countDigests(rig, size)
	held.release()
	data := payload(size, 23)

	computed0, attached0, verified0 := transport.PayloadCheckStats()
	primary := rig.put(t, "v", box, 1, data)
	srv := rig.servers[primary]
	srv.WaitEncodeIdle()
	computed, attached, verified := transport.PayloadCheckStats()
	computed, attached, verified = computed-computed0, attached-attached0, verified-verified0

	meta, ok := srv.reader.LookupMeta(context.Background(), types.ObjectID{Var: "v", Box: box})
	if !ok || meta.State != types.StateEncoded {
		t.Fatalf("object not encoded: %+v", meta)
	}
	if meta.Checksum != scrub.Checksum(data) {
		t.Fatalf("directory checksum %#x is not the stored content's %#x", meta.Checksum, scrub.Checksum(data))
	}
	var holders []types.ServerID
	if mode == policy.CoREC {
		holders = srv.place.ReplicaHolders(srv.id)
	}
	for h := range rig.servers {
		want := int64(0)
		if h == int(primary) || slices.Contains(holders, types.ServerID(h)) {
			want = 1
		}
		if ieee, c := full.ieee[h].Load(), full.castagnoli[h].Load(); ieee != want || c != 0 {
			t.Errorf("server %d: CRC-32/IEEE over the full payload %d times, CRC-32C %d times; want %d and 0", h, ieee, c, want)
		}
	}
	k, m := rig.polCfg.K, rig.polCfg.M
	shardPushes := int64(k + m - 1)
	if want := 1 + shardPushes; computed != want {
		t.Errorf("%d sender passes, want %d: the client's put and %d shard pushes", computed, want, shardPushes)
	}
	if want := int64(len(holders)); attached != want {
		t.Errorf("%d sends took their check from a held digest, want the %d replica pushes", attached, want)
	}
	if want := 1 + int64(len(holders)) + shardPushes; verified != want {
		t.Errorf("%d receiver passes, want %d: one per payload frame", verified, want)
	}

	// And the read side: the shard holders answer from their recorded digests.
	_, attached0, verified0 = transport.PayloadCheckStats()
	for _, member := range meta.Layout.Members[:k] {
		resp, err := tn.Send(context.Background(), -1, member.Server, &transport.Message{
			Kind: transport.MsgShardGet, Stripe: meta.Stripe, ShardIndex: member.Index,
		})
		if err != nil || !resp.Flag {
			t.Fatalf("shard %d: %v", member.Index, err)
		}
	}
	_, attached, verified = transport.PayloadCheckStats()
	if attached-attached0 != int64(k) || verified-verified0 != int64(k) {
		t.Errorf("%d shard gets: %d answered from a held digest, %d verified by the reader; want %d and %d",
			k, attached-attached0, verified-verified0, k, k)
	}
	// So does the primary, asked for its record and data shard 0 at once.
	_, attached0, verified0 = transport.PayloadCheckStats()
	resp, err := tn.Send(context.Background(), -1, primary, &transport.Message{Kind: transport.MsgGet, Key: meta.ID.Key(), Version: 1})
	if err != nil || !resp.Flag || resp.Meta == nil || resp.Meta.Seq != meta.Seq || len(resp.Data) != meta.Layout.ShardSize {
		t.Fatalf("primary read: %v (%+v)", err, resp)
	}
	_, attached, verified = transport.PayloadCheckStats()
	if attached-attached0 != 1 || verified-verified0 != 1 {
		t.Errorf("primary read: %d answered from a held digest, %d verified by the reader; want 1 and 1", attached-attached0, verified-verified0)
	}
}
