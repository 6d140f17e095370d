package server

import (
	"context"
	"sync/atomic"
	"testing"

	"corec/internal/geometry"
	"corec/internal/scrub"
	"corec/internal/types"
)

// TestPutDigestsPayloadOncePerServer follows one CoREC put through to the
// encoded directory flip and counts the at-rest digest passes made over the
// full payload: one on the primary (the put's; the background encode reuses
// it) and one on each replica holder. It then rewrites the object within
// the same version — the case where a reused sum could belong to the bytes
// being replaced — and checks the directory records the new content's sum.
func TestPutDigestsPayloadOncePerServer(t *testing.T) {
	rig := newConstrainedRig(t, 0.67)
	box := geometry.Box3D(0, 0, 0, 16, 16, 32)
	const size = 16 * 16 * 32 * 8
	full := make([]atomic.Int64, len(rig.servers))
	for i, srv := range rig.servers {
		i := i
		srv.digest = func(b []byte) uint64 {
			if len(b) == size {
				full[i].Add(1)
			}
			return scrub.Checksum(b)
		}
	}

	id := types.ObjectID{Var: "v", Box: box}
	for round, data := range [][]byte{payload(size, 21), payload(size, 22)} {
		for i := range full {
			full[i].Store(0)
		}
		primary := rig.put(t, "v", box, 1, data)
		srv := rig.servers[primary]
		srv.WaitEncodeIdle()
		meta, ok := srv.dirLookupMeta(context.Background(), id)
		if !ok || meta.State != types.StateEncoded {
			t.Fatalf("round %d: object not encoded: %+v", round, meta)
		}
		if meta.Checksum != scrub.Checksum(data) {
			t.Fatalf("round %d: directory checksum %#x is not the stored content's %#x", round, meta.Checksum, scrub.Checksum(data))
		}
		if got := full[primary].Load(); got != 1 {
			t.Errorf("round %d: primary digested the full payload %d times, want 1", round, got)
		}
		for _, h := range srv.replicaHolders() {
			if got := full[h].Load(); got != 1 {
				t.Errorf("round %d: replica holder %d digested the full payload %d times, want 1", round, h, got)
			}
		}
	}
}
