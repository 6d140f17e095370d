package corec

import (
	"bytes"
	"context"
	"runtime"
	"testing"

	"corec/internal/reader"
	"corec/internal/server"
	"corec/internal/transport"
	"corec/internal/types"
)

// TestGetIntoFillsExactlyTheBuffer reads replicated and encoded objects, on
// both fabrics, into a window of a larger array: the window must come back
// holding the object, the bytes on either side of it must keep what they
// held — the shard padding of an encoded object (4096 bytes over k = 3) must
// not spill past len(dst) even though the array has the capacity — and a
// buffer of the wrong size is refused. A second read after a shard holder
// is killed exercises the degraded path under the same rule. An object of
// 3072 bytes, whose stripe has no padding, goes through the same reads.
//
// Every read is then repeated the way a server reads: through a reader whose
// send delivers requests addressed to the server itself by calling its
// handler — which knows nothing of RecvInto — from a server that holds one of
// the object's pieces. It must return the bytes the client's read did, into
// an exact-size buffer and into one with room for the padding.
func TestGetIntoFillsExactlyTheBuffer(t *testing.T) {
	for _, fabric := range []string{"inproc", "tcp"} {
		for _, mode := range []Mode{PolicyReplicate, PolicyErasure} {
			t.Run(fabric+"/"+mode.String(), func(t *testing.T) {
				for _, shape := range []struct {
					name       string
					box, empty Box // empty: as large, nothing staged in it
				}{
					{"padded", Box3D(0, 0, 0, 8, 8, 8), Box3D(32, 32, 32, 40, 40, 40)},
					{"unpadded", Box3D(0, 0, 0, 6, 8, 8), Box3D(32, 32, 32, 38, 40, 40)},
				} {
					t.Run(shape.name, func(t *testing.T) {
						testGetIntoFillsExactlyTheBuffer(t, fabric, mode, shape.box, shape.empty)
					})
				}
			})
		}
	}
}

// serverSideReader returns the client's reader over the send a server reads
// with: requests addressed to self are calls of its handler, the rest go to
// the fabric in its name.
func serverSideReader(cl *Client, self *server.Server) *reader.Reader {
	r := *cl.reader
	r.NotHeld = nil
	r.Send = func(ctx context.Context, to types.ServerID, msg *transport.Message) (*transport.Message, error) {
		if to == self.ID() {
			return self.Handle(ctx, msg), nil
		}
		return cl.cluster.net.Send(ctx, self.ID(), to, msg)
	}
	return &r
}

func testGetIntoFillsExactlyTheBuffer(t *testing.T, fabric string, mode Mode, box, empty Box) {
	cfg := DefaultConfig(8)
	cfg.Transport = fabric
	cfg.Mode = mode
	cluster, err := NewCluster(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer cluster.Close()
	client := cluster.NewClient()
	ctx := context.Background()
	data := regionData(t, box, 8, 5)
	if err := client.Put(ctx, "v", box, 1, data); err != nil {
		t.Fatal(err)
	}
	metas, err := client.Query(ctx, "v", box)
	if err != nil || len(metas) != 1 {
		t.Fatalf("query: %v (%d metas)", err, len(metas))
	}
	meta := metas[0]
	if padded := len(data)%cfg.DataShards != 0; padded != (box.Volume() == 512) {
		t.Fatalf("%d bytes over k = %d: padded = %v", len(data), cfg.DataShards, padded)
	}

	// self survives the kill below and holds a piece of the object: a
	// replica, or data shard 1.
	var self *server.Server
	if meta.State == types.StateEncoded {
		self = cluster.Server(ServerID(meta.Layout.Members[1].Server))
	} else {
		self = cluster.Server(ServerID(meta.Replicas[0]))
	}
	serverSide := serverSideReader(client, self)

	const guard = 64
	arena := bytes.Repeat([]byte{0xEE}, guard+len(data)+guard)
	dst := arena[guard : guard+len(data)]
	check := func(when string) {
		t.Helper()
		if err := client.GetInto(ctx, "v", box, 1, dst); err != nil {
			t.Fatalf("%s: %v", when, err)
		}
		if !bytes.Equal(dst, data) {
			t.Fatalf("%s: GetInto returned other bytes than were put", when)
		}
		if !bytes.Equal(arena[:guard], bytes.Repeat([]byte{0xEE}, guard)) ||
			!bytes.Equal(arena[guard+len(data):], bytes.Repeat([]byte{0xEE}, guard)) {
			t.Fatalf("%s: GetInto wrote outside dst", when)
		}
		for _, buf := range [][]byte{make([]byte, len(data)), reader.Buffer(len(data), cfg.DataShards)} {
			if err := serverSide.Object(ctx, &meta, buf); err != nil {
				t.Fatalf("%s: server-side read: %v", when, err)
			}
			if !bytes.Equal(buf, dst) {
				t.Fatalf("%s: a server's read returned other bytes than the client's", when)
			}
		}
		for i := range dst {
			dst[i] = 0xEE
		}
	}
	check("healthy")

	if err := client.GetInto(ctx, "v", box, 1, arena[:len(data)-8]); err == nil {
		t.Fatal("a buffer smaller than the region was accepted")
	}
	if err := client.GetInto(ctx, "v", box, 1, arena[:len(data)+8]); err == nil {
		t.Fatal("a buffer larger than the region was accepted")
	}

	cluster.Kill(meta.Primary) // holds the full copy, or data shard 0
	check("degraded")

	// A region nothing was staged in reads as zeros, whatever the
	// buffer held.
	if err := client.GetInto(ctx, "v", empty, 1, dst); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(dst, make([]byte, len(dst))) {
		t.Fatal("unstaged region did not read as zeros into a dirty buffer")
	}
}

// allocatedPer returns the bytes allocated per call of f, process-wide, over
// a few calls: the fleet runs in this process, so the servers' share of a
// read is counted too.
func allocatedPer(t *testing.T, f func()) uint64 {
	t.Helper()
	const calls = 8
	f() // warm pools, connections and the decode-matrix cache
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < calls; i++ {
		f()
	}
	runtime.ReadMemStats(&after)
	return (after.TotalAlloc - before.TotalAlloc) / calls
}

// TestReadAllocationBudget counts the bytes a read of one encoded 2 MiB
// object allocates over the TCP fabric, RS(3+1). The shards land in the
// destination and a missing one is rebuilt there, so a healthy Get allocates
// its result and little else, a healthy GetInto next to nothing, and a
// degraded Get its result plus the one parity shard it decodes from. Before
// shards landed in place a healthy Get allocated three receive buffers, the
// joined object and the result: some three times the object.
func TestReadAllocationBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	cfg := DefaultConfig(8)
	cfg.Transport = "tcp"
	cfg.Mode = PolicyErasure
	cluster, err := NewCluster(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer cluster.Close()
	client := cluster.NewClient()
	ctx := context.Background()
	box := Box3D(0, 0, 0, 64, 64, 64)
	data := regionData(t, box, 8, 9)
	const size = 2 << 20
	if len(data) != size {
		t.Fatalf("object is %d bytes, want 2 MiB", len(data))
	}
	if err := client.Put(ctx, "v", box, 1, data); err != nil {
		t.Fatal(err)
	}
	metas, err := client.Query(ctx, "v", box)
	if err != nil || len(metas) != 1 || metas[0].State != types.StateEncoded {
		t.Fatalf("query: %v (%+v)", err, metas)
	}
	shard := uint64(size+cfg.DataShards-1) / uint64(cfg.DataShards)

	get := func() {
		got, err := client.Get(ctx, "v", box, 1)
		if err != nil || !bytes.Equal(got, data) {
			t.Fatalf("get: %v", err)
		}
	}
	dst := make([]byte, size)
	getInto := func() {
		if err := client.GetInto(ctx, "v", box, 1, dst); err != nil || !bytes.Equal(dst, data) {
			t.Fatalf("get into: %v", err)
		}
	}
	if got, limit := allocatedPer(t, get), uint64(size*11/10); got > limit {
		t.Errorf("healthy Get allocates %d bytes, want <= %d (1.1 x the object)", got, limit)
	}
	if got, limit := allocatedPer(t, getInto), uint64(64<<10); got > limit {
		t.Errorf("healthy GetInto allocates %d bytes, want <= %d", got, limit)
	}

	cluster.Kill(metas[0].Primary) // data shard 0 is gone
	if got, limit := allocatedPer(t, get), uint64(size)+shard*3/2; got > limit {
		t.Errorf("degraded Get allocates %d bytes, want <= %d (the result plus 1.5 x one parity shard)", got, limit)
	}
	// An exact-size buffer has no room for the stripe's padding byte, so
	// the last data shard is pieced together aside for the decode: one more
	// shard than Get, whose own buffer has the room.
	if got, limit := allocatedPer(t, getInto), shard*5/2; got > limit {
		t.Errorf("degraded GetInto allocates %d bytes, want <= %d (2.5 x one shard)", got, limit)
	}
}

// TestPutAllocationBudget counts the bytes one steady-state rewrite of a
// 2 MiB CoREC object allocates over the TCP fabric, RS(3+1), followed until
// the background demotion has encoded it. The primary's and the replica
// holder's receives land in pooled buffers that the superseded copies gave
// back, and a receiver takes the digest as the bytes land, so what is left
// is the encode: Split's padded last shard and parity, the kept shard 0 and
// the three shard receives, which the storage engine keeps — about twice the
// object (2.06 to 2.43 times, measured on a two-core VM: the pool does not
// always hand a released buffer back, and a miss costs a fresh one). Each
// receive used to land in a fresh buffer: about four times.
func TestPutAllocationBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	cfg := DefaultConfig(8)
	cfg.Transport = "tcp"
	cfg.Mode = PolicyCoREC
	cluster, err := NewCluster(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer cluster.Close()
	client := cluster.NewClient()
	ctx := context.Background()
	box := Box3D(0, 0, 0, 64, 64, 64)
	data := regionData(t, box, 8, 10)
	const size = 2 << 20
	if len(data) != size {
		t.Fatalf("object is %d bytes, want 2 MiB", len(data))
	}
	primary := cluster.Server(cluster.place.Primary(ObjectID{Var: "v", Box: box}))
	version := Version(0)
	put := func() {
		version++
		if err := client.Put(ctx, "v", box, version, data); err != nil {
			t.Fatal(err)
		}
		primary.WaitEncodeIdle()
	}
	got := allocatedPer(t, put)
	metas, err := client.Query(ctx, "v", box)
	if err != nil || len(metas) != 1 || metas[0].State != types.StateEncoded {
		t.Fatalf("query: %v (%+v)", err, metas)
	}
	if limit := uint64(size * 11 / 4); got > limit {
		t.Errorf("a put allocates %d bytes, want <= %d (2.75 x the object)", got, limit)
	}
}
