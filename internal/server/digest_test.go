package server

import (
	"context"
	"sync/atomic"
	"testing"

	"corec/internal/geometry"
	"corec/internal/policy"
	"corec/internal/scrub"
	"corec/internal/transport"
	"corec/internal/types"
)

// digestPasses counts, per server, the digest passes a server made itself
// over payloads of one size; each reads the payload through both
// polynomials. A digest a frame reader took as the payload landed is not
// among them (transport.PayloadCheckStats counts those).
type digestPasses struct{ passes []atomic.Int64 }

// countDigests installs the counting digest hook on every server of the rig.
func countDigests(rig *testRig, size int) *digestPasses {
	p := &digestPasses{passes: make([]atomic.Int64, len(rig.servers))}
	for i, srv := range rig.servers {
		i := i
		srv.digestFn = func(b []byte) uint64 {
			if len(b) == size {
				p.passes[i].Add(1)
			}
			return scrub.Checksum(b)
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
	for i := range p.passes {
		p.passes[i].Store(0)
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
		if n := full.passes[primary].Load(); n != 1 {
			t.Errorf("round %d: primary digested the full payload %d times, want 1", round, n)
		}
		for _, h := range srv.place.ReplicaHolders(srv.id) {
			if n := full.passes[h].Load(); n != 1 {
				t.Errorf("round %d: replica holder %d digested the full payload %d times, want 1", round, h, n)
			}
		}
	}
}

// TestPutChecksPayloadOncePerHopOverTCP is the same put over the TCP fabric,
// where the payload check of a frame is the digest's CRC-32C half. Followed
// to the encoded flip it must cost one pass per polynomial per storing hop —
// the primary, each replica holder, each shard member — and both are taken
// by that hop's frame reader as the payload lands, so no server digests the
// full payload itself; and CRC-32C once on a sender that holds no digest
// (the client's put, the primary's three shard pushes) and not at all on one
// that does (the replica push). The payload checks are the process-wide
// counters of transport.PayloadCheckStats; the flow has no other
// payload-carrying message. Under the erasure policy the primary encodes on
// the write path and pushes no replica: its frame reader's digest is the
// put's just the same.
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

	before := transport.PayloadCheckStats()
	primary := rig.put(t, "v", box, 1, data)
	srv := rig.servers[primary]
	srv.WaitEncodeIdle()
	after := transport.PayloadCheckStats()
	computed, attached, verified, digested := after.Computed-before.Computed, after.Attached-before.Attached,
		after.Verified-before.Verified, after.Digested-before.Digested

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
		if n := full.passes[h].Load(); n != 0 {
			t.Errorf("server %d digested the full payload %d times itself, want 0: its frame reader took the digest", h, n)
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
	if want := 1 + int64(len(holders)) + shardPushes; verified != want || digested != want {
		t.Errorf("%d CRC-32C and %d CRC-32/IEEE receiver passes, want %d of each: one per payload frame", verified, digested, want)
	}

	// And the read side: the shard holders answer from their recorded digests.
	before = transport.PayloadCheckStats()
	for _, member := range meta.Layout.Members[:k] {
		resp, err := tn.Send(context.Background(), -1, member.Server, &transport.Message{
			Kind: transport.MsgShardGet, Stripe: meta.Stripe, ShardIndex: member.Index,
		})
		if err != nil || !resp.Flag {
			t.Fatalf("shard %d: %v", member.Index, err)
		}
	}
	after = transport.PayloadCheckStats()
	if after.Attached-before.Attached != int64(k) || after.Verified-before.Verified != int64(k) {
		t.Errorf("%d shard gets: %d answered from a held digest, %d verified by the reader; want %d and %d",
			k, after.Attached-before.Attached, after.Verified-before.Verified, k, k)
	}
	// So does the primary, asked for its record and data shard 0 at once.
	before = transport.PayloadCheckStats()
	resp, err := tn.Send(context.Background(), -1, primary, &transport.Message{Kind: transport.MsgGet, Key: meta.ID.Key(), Version: 1})
	if err != nil || !resp.Flag || resp.Meta == nil || resp.Meta.Seq != meta.Seq || len(resp.Data) != meta.Layout.ShardSize {
		t.Fatalf("primary read: %v (%+v)", err, resp)
	}
	after = transport.PayloadCheckStats()
	if after.Attached-before.Attached != 1 || after.Verified-before.Verified != 1 {
		t.Errorf("primary read: %d answered from a held digest, %d verified by the reader; want 1 and 1", after.Attached-before.Attached, after.Verified-before.Verified)
	}
}
