package corec

import (
	"bytes"
	"context"
	"slices"
	"sync/atomic"
	"testing"

	"corec/internal/transport"
	"corec/internal/types"
)

// countingNet counts the region queries a cluster's clients send.
type countingNet struct {
	transport.Network
	metaQueries atomic.Int64
}

func (n *countingNet) Send(ctx context.Context, from, to types.ServerID, req *transport.Message) (*transport.Message, error) {
	if req.Kind == transport.MsgMetaQuery {
		n.metaQueries.Add(1)
	}
	return n.Network.Send(ctx, from, to, req)
}

// TestGetAsksOneDirectoryGroup is the scaling property of the read path: a
// get of a box inside one directory cell sends NLevel+1 region queries —
// one shard group — at 8, 16 and 32 servers alike, a box over two cells at
// most two groups' worth, and none of them falls back to the fleet.
func TestGetAsksOneDirectoryGroup(t *testing.T) {
	ctx := context.Background()
	for _, n := range []int{8, 16, 32} {
		cfg := DefaultConfig(n)
		c, err := NewCluster(cfg)
		if err != nil {
			t.Fatal(err)
		}
		counter := &countingNet{Network: c.net}
		c.net = counter // only client sends go through c.net; servers keep the fabric
		cl := c.NewClient()

		// Eight objects of 8^3, two per 64^3 cell along x and spread over y
		// and z: each lies inside one cell of the 256^3 domain.
		boxFor := func(i int64) Box {
			return Box3D(i*32, i%4*64, i/4*64, i*32+8, i%4*64+8, i/4*64+8)
		}
		want := make([][]byte, 8)
		for i := range want {
			want[i] = regionData(t, boxFor(int64(i)), 8, int64(900+i))
			if err := cl.Put(ctx, "scale", boxFor(int64(i)), 1, want[i]); err != nil {
				t.Fatal(err)
			}
		}
		group := int64(cfg.NLevel + 1)
		for i := range want {
			before := counter.metaQueries.Load()
			got, err := cl.Get(ctx, "scale", boxFor(int64(i)), 1)
			if err != nil {
				t.Fatalf("%d servers: get %d: %v", n, i, err)
			}
			if !bytes.Equal(got, want[i]) {
				t.Fatalf("%d servers: get %d returned wrong bytes", n, i)
			}
			if sent := counter.metaQueries.Load() - before; sent != group {
				t.Errorf("%d servers: one-cell get sent %d region queries, want %d", n, sent, group)
			}
		}
		// A region over two cells: its two halves are staged objects, so it is
		// covered and asks the two cells' groups only.
		left, right := Box3D(56, 0, 0, 64, 8, 8), Box3D(64, 0, 0, 72, 8, 8)
		for i, b := range []Box{left, right} {
			if err := cl.Put(ctx, "span", b, 1, regionData(t, b, 8, int64(950+i))); err != nil {
				t.Fatal(err)
			}
		}
		before := counter.metaQueries.Load()
		if _, err := cl.Get(ctx, "span", left.Union(right), 1); err != nil {
			t.Fatal(err)
		}
		if sent := counter.metaQueries.Load() - before; sent < group || sent > 2*group {
			t.Errorf("%d servers: two-cell get sent %d region queries, want %d to %d", n, sent, group, 2*group)
		}
		if fb := c.FabricStatus().DirFallbacks; fb != 0 {
			t.Errorf("%d servers: %d fleet fall-backs on a healthy fleet reading staged regions", n, fb)
		}
		// The fleet is still asked when no region is named.
		before = counter.metaQueries.Load()
		metas, err := cl.Query(ctx, "scale", Box{})
		if err != nil || len(metas) != len(want) {
			t.Fatalf("%d servers: query of every object: %d metas, %v", n, len(metas), err)
		}
		if sent := counter.metaQueries.Load() - before; sent != int64(n) {
			t.Errorf("%d servers: unbounded query sent %d region queries, want %d", n, sent, n)
		}
		c.Close()
	}
}

// TestCoverageFallbackFindsMisplacedRecord plants an object's record only on
// a server outside its directory group — what a write under another ring
// epoch, or a record the rebalancer has not re-homed yet, looks like. The
// targeted lookup comes back empty-handed, so the get must ask the fleet,
// find the record, return the staged bytes rather than zeros, and count the
// fall-back.
func TestCoverageFallbackFindsMisplacedRecord(t *testing.T) {
	c := testCluster(t, PolicyReplicate)
	cl := c.NewClient()
	ctx := context.Background()
	box := Box3D(0, 0, 0, 8, 8, 8)
	data, meta := stageAt(t, cl, box, 31)

	group := c.dir.Servers("ph", box)
	outsider := ServerID(-1)
	for i := 0; i < c.NumServers(); i++ {
		if !slices.Contains(group, ServerID(i)) {
			outsider = ServerID(i)
			break
		}
	}
	for _, g := range group {
		if resp := c.Server(g).Handle(ctx, &transport.Message{Kind: transport.MsgMetaDelete, Key: meta.ID.Key()}); resp.AsError() != nil {
			t.Fatal(resp.AsError())
		}
	}
	if resp := c.Server(outsider).Handle(ctx, &transport.Message{Kind: transport.MsgMetaUpdate, Meta: &meta}); resp.AsError() != nil {
		t.Fatal(resp.AsError())
	}

	before := c.FabricStatus().DirFallbacks
	got, err := cl.Get(ctx, "ph", box, 1)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, data) {
		t.Fatal("get of a record held outside its directory group did not return the staged bytes")
	}
	if fb := c.FabricStatus().DirFallbacks - before; fb != 1 {
		t.Fatalf("DirFallbacks grew by %d, want 1", fb)
	}
	// A region nobody staged is not covered either: it reads back as zeros,
	// after asking the fleet.
	empty, err := cl.Get(ctx, "ph", Box3D(128, 128, 128, 136, 136, 136), 1)
	if err != nil || !bytes.Equal(empty, make([]byte, len(empty))) {
		t.Fatalf("get of an unstaged region: %v", err)
	}
	if fb := c.FabricStatus().DirFallbacks - before; fb != 2 {
		t.Fatalf("DirFallbacks grew by %d over both gets, want 2", fb)
	}
}

// TestStripeRecordsDoNotAccumulate overwrites a CoREC working set step after
// step. Every re-encode mints a fresh stripe and drops the superseded one;
// the drop must take the stripe's directory record with it, or the
// directory grows with run length. After the encode queues drain, the
// fleet holds one record per live stripe on each of its NLevel+1 mirrors.
func TestStripeRecordsDoNotAccumulate(t *testing.T) {
	c := testCluster(t, PolicyCoREC)
	cl := c.NewClient()
	ctx := context.Background()
	const objects, steps = 24, 6
	for step := 1; step <= steps; step++ {
		for i := int64(0); i < objects; i++ {
			b := Box3D(i*8, 0, 0, i*8+8, 8, 8)
			if err := cl.Put(ctx, "gc", b, Version(step), regionData(t, b, 8, int64(step*100)+i)); err != nil {
				t.Fatal(err)
			}
		}
		c.EndTimeStep(Version(step)) // returns once the encode queues have drained
	}
	records, encoded := 0, 0
	for i := 0; i < c.NumServers(); i++ {
		srv := c.Server(ServerID(i))
		records += srv.CollectStats().DirStripes
		_, enc := srv.StateCounts()
		encoded += enc
	}
	if encoded == 0 {
		t.Fatal("no object ended up encoded: the test exercises nothing")
	}
	if limit := (c.Config().NLevel + 1) * encoded; records > limit {
		t.Fatalf("%d stripe records for %d live encoded objects after %d overwrite steps, want at most %d",
			records, encoded, steps, limit)
	}
	// The superseded versions' stripes are gone, not the live ones: every
	// object still reads back its last write.
	for i := int64(0); i < objects; i++ {
		b := Box3D(i*8, 0, 0, i*8+8, 8, 8)
		got, err := cl.Get(ctx, "gc", b, steps)
		if err != nil || !bytes.Equal(got, regionData(t, b, 8, int64(steps*100)+i)) {
			t.Fatalf("object %d after %d overwrite steps: %v", i, steps, err)
		}
	}
}
