package corec

import (
	"bytes"
	"context"
	"fmt"
	"maps"
	"slices"
	"sync"
	"testing"
	"time"

	"corec/internal/failure"
	"corec/internal/transport"
	"corec/internal/types"
)

// countingNet counts the requests that cross a cluster's fabric, by kind.
// With lineUp set, requests of that kind wait until wide of them are in
// flight together before any is delivered: a fan-out that sends them in one
// round sails through, one that sends them one after the other stalls.
type countingNet struct {
	transport.Network
	lineUp transport.Kind
	wide   int
	// seen, when set, is shown every request that got a response, with its
	// sender, its destination and the response.
	seen func(from, to types.ServerID, req, resp *transport.Message)

	mu      sync.Mutex
	sent    map[transport.Kind]int
	waiting int
	gate    chan struct{}
	stalled bool
}

func newCountingNet(inner transport.Network) *countingNet {
	return &countingNet{Network: inner, sent: make(map[transport.Kind]int), gate: make(chan struct{})}
}

// primaryRead is the pseudo-kind a countingNet counts the MsgGet requests
// that name a floor under, besides MsgGet: the reads that ask a primary for
// an object's record and bytes at once.
const primaryRead = transport.Kind(255)

func (n *countingNet) Send(ctx context.Context, from, to types.ServerID, req *transport.Message) (*transport.Message, error) {
	n.mu.Lock()
	n.sent[req.Kind]++
	if req.Kind == transport.MsgGet && req.Version > 0 {
		n.sent[primaryRead]++
	}
	gate := n.gate
	held := n.wide > 0 && req.Kind == n.lineUp
	if held {
		if n.waiting++; n.waiting == n.wide {
			close(gate)
		}
	}
	n.mu.Unlock()
	if held {
		select {
		case <-gate:
		case <-time.After(10 * time.Second):
			// Only a sequential fan-out waits this out: the clock turns its
			// hang into a failure and decides no passing run.
			n.mu.Lock()
			n.stalled = true
			n.mu.Unlock()
		}
	}
	resp, err := n.Network.Send(ctx, from, to, req)
	if err == nil && n.seen != nil {
		n.seen(from, to, req, resp)
	}
	return resp, err
}

// PeerHealth hands the retry layer the wrapped fabric's table, so sends through
// the counter learn and obey peer deaths as sends through the fabric do.
func (n *countingNet) PeerHealth() *transport.PeerHealth { return transport.HealthOf(n.Network) }

func (n *countingNet) count(k transport.Kind) int {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.sent[k]
}

// take returns the counts since the last call, and whether a lined-up
// fan-out stalled, and starts over.
func (n *countingNet) take() (sent map[transport.Kind]int, stalled bool) {
	n.mu.Lock()
	defer n.mu.Unlock()
	sent, stalled = n.sent, n.stalled
	n.sent, n.waiting, n.stalled, n.gate = make(map[transport.Kind]int), 0, false, make(chan struct{})
	return sent, stalled
}

// TestGetAsksOneDirectoryGroup is the scaling property of the directory
// lookup, at 8, 16 and 32 servers alike, for gets that do not ask the primary
// first: each one-cell get below comes from a client that has not seen its
// box (see TestAlignedGetAsksThePrimaryFirst for one that has). A get that
// names the version it expects asks one directory mirror per cell its box
// touches — one region query and one copy fetch for a box inside a cell, two
// queries for a box over two cells — and the first answer settles it. A get
// that names no version has nothing to judge one mirror's answer by and asks
// every mirror of those cells' groups, NLevel+1 per group; so, after its first
// mirror's answer falls short, does a get naming a version newer than anything
// staged, which still returns the newest staged bytes. None of them falls back
// to the fleet.
func TestGetAsksOneDirectoryGroup(t *testing.T) {
	ctx := context.Background()
	for _, n := range []int{8, 16, 32} {
		cfg := DefaultConfig(n)
		cfg.Mode = PolicyReplicate // one copy fetch per object; TestEncodedObjectCostsOneRecord counts the shard gets
		c, err := NewCluster(cfg)
		if err != nil {
			t.Fatal(err)
		}
		counter := newCountingNet(c.net)
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
		group := cfg.NLevel + 1
		// get reads a region at a version through rd and returns what crossed
		// the fabric.
		get := func(rd *Client, name string, box Box, version Version, want []byte) map[transport.Kind]int {
			t.Helper()
			counter.take()
			got, err := rd.Get(ctx, name, box, version)
			if err != nil {
				t.Fatalf("%d servers: get %s %v at version %d: %v", n, name, box, version, err)
			}
			if want != nil && !bytes.Equal(got, want) {
				t.Fatalf("%d servers: get %s %v at version %d returned wrong bytes", n, name, box, version)
			}
			sent, _ := counter.take()
			return sent
		}
		for i := range want {
			box := boxFor(int64(i))
			if sent := get(c.NewClient(), "scale", box, 1, want[i]); !maps.Equal(sent, map[transport.Kind]int{transport.MsgMetaQuery: 1, transport.MsgGet: 1}) {
				t.Errorf("%d servers: one-cell get naming its version sent %v, want 1 MetaQuery and 1 Get", n, sent)
			}
			if sent := get(c.NewClient(), "scale", box, 0, want[i]); sent[transport.MsgMetaQuery] != group {
				t.Errorf("%d servers: one-cell get naming no version sent %d region queries, want %d", n, sent[transport.MsgMetaQuery], group)
			}
		}
		if st := c.FabricStatus(); st.DirSecondAsks != 0 {
			t.Errorf("%d servers: %d lookups went past their first mirror on a healthy fleet", n, st.DirSecondAsks)
		}
		if sent := get(c.NewClient(), "scale", boxFor(0), 9, want[0]); sent[transport.MsgMetaQuery] != group {
			t.Errorf("%d servers: get naming a version nobody staged sent %d region queries, want %d", n, sent[transport.MsgMetaQuery], group)
		}
		if st := c.FabricStatus(); st.DirSecondAsks != 1 {
			t.Errorf("%d servers: DirSecondAsks = %d after one get ahead of the staged version, want 1", n, st.DirSecondAsks)
		}

		// A region over two cells whose first mirrors are different servers:
		// its two halves are staged objects, so two answers cover it.
		var left, right Box
		for i := int64(0); i < 48; i++ {
			x, y, z := (i%3+1)*64, i/3%4*64, i/12*64
			left, right = Box3D(x-8, y, z, x, y+8, z+8), Box3D(x, y, z, x+8, y+8, z+8)
			if firstMirrorOf(t, c, cl, "span", left) != firstMirrorOf(t, c, cl, "span", right) {
				break
			}
		}
		for i, b := range []Box{left, right} {
			if err := cl.Put(ctx, "span", b, 1, regionData(t, b, 8, int64(950+i))); err != nil {
				t.Fatal(err)
			}
		}
		span := left.Union(right)
		if sent := get(cl, "span", span, 1, nil); sent[transport.MsgMetaQuery] != 2 {
			t.Errorf("%d servers: two-cell get naming its version sent %d region queries, want 2", n, sent[transport.MsgMetaQuery])
		}
		if sent, all := get(cl, "span", span, 0, nil), len(c.dir.Servers("span", span)); sent[transport.MsgMetaQuery] != all || all < group || all > 2*group {
			t.Errorf("%d servers: two-cell get naming no version sent %d region queries, want the two groups' %d servers", n, sent[transport.MsgMetaQuery], all)
		}
		if fb := c.FabricStatus().DirFallbacks; fb != 0 {
			t.Errorf("%d servers: %d fleet fall-backs on a healthy fleet reading staged regions", n, fb)
		}
		// The fleet is still asked when no region is named.
		before := counter.count(transport.MsgMetaQuery)
		metas, err := cl.Query(ctx, "scale", Box{})
		if err != nil || len(metas) != len(want) {
			t.Fatalf("%d servers: query of every object: %d metas, %v", n, len(metas), err)
		}
		if sent := counter.count(transport.MsgMetaQuery) - before; sent != n {
			t.Errorf("%d servers: unbounded query sent %d region queries, want %d", n, sent, n)
		}
		c.Close()
	}
}

// firstMirrorOf returns the directory mirror the client asks first about a
// box that lies inside one directory cell.
func firstMirrorOf(t *testing.T, c *Cluster, cl *Client, name string, box Box) ServerID {
	t.Helper()
	cells := c.dir.Cells(box)
	if len(cells) != 1 {
		t.Fatalf("box %v touches cells %v, want one", box, cells)
	}
	return cl.firstMirror(cells[0], c.dir.Group(name, cells[0]))
}

// unseenClient returns a new client — one that has seen no object's box, so
// its aligned gets drive the directory lookup — whose first directory mirror
// for box is mirror.
func unseenClient(t *testing.T, c *Cluster, name string, box Box, mirror ServerID) *Client {
	t.Helper()
	for i := 0; i < 16; i++ {
		if cl := c.NewClient(); firstMirrorOf(t, c, cl, name, box) == mirror {
			return cl
		}
	}
	t.Fatalf("no new client asks mirror %d first about %s %v", mirror, name, box)
	return nil
}

// TestFirstMirrorSpread: which mirror of a cell's group a client asks first
// depends on the client and on the cell, so the clients of a fleet spread
// their lookups over the mirrors — each mirror is first choice for half of
// them — and one client spreads its own over the cells.
func TestFirstMirrorSpread(t *testing.T) {
	c := testCluster(t, PolicyReplicate)
	clients := make([]*Client, 8)
	for i := range clients {
		clients[i] = c.NewClient()
	}
	owner := make([]int, len(clients))
	for cell := 0; cell < 64; cell++ {
		group := c.dir.Group("spread", cell)
		byCell := 0
		for i, cl := range clients {
			if cl.firstMirror(cell, group) == group[0] {
				byCell++
				owner[i]++
			}
		}
		if byCell != len(clients)/2 {
			t.Errorf("cell %d: the group's first member is first choice of %d of %d clients, want half", cell, byCell, len(clients))
		}
	}
	for i, got := range owner {
		if got != 32 {
			t.Errorf("client %d asks the group's first member first in %d of 64 cells, want half", i, got)
		}
	}
}

// TestLaggingMirrorIsSettledByItsTwin: a directory write that missed one
// mirror (a partition cuts the primary off from it during a rewrite) leaves
// that mirror a version behind until the hint is flushed. A client whose
// first choice it is, and which has not seen the box, so looks it up, gets the
// older record, sees it is below the version it named, asks the twin and
// returns the newer bytes — two region queries, one lookup counted as not
// settled by its first mirror, no fleet fall-back. The same holds when the
// first mirror has just been replaced and answers with nothing at all.
func TestLaggingMirrorIsSettledByItsTwin(t *testing.T) {
	cfg := DefaultConfig(8)
	cfg.Mode = PolicyReplicate
	cfg.FaultPlan = &failure.FaultPlan{} // quiet injector: manual partitions only
	c, err := NewCluster(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	counter := newCountingNet(c.net)
	c.net = counter
	cl := c.NewClient()
	ctx := context.Background()

	// An object none of whose copies lives on its directory mirrors, so that
	// cutting off or replacing a mirror never touches the data path.
	var box Box
	var primary, first ServerID
	found := false
	for i := int64(0); i < 64 && !found; i++ {
		box = Box3D(i%4*64, i/4%4*64, i/16*64, i%4*64+8, i/4%4*64+8, i/16*64+8)
		primary = c.place.Primary(types.ObjectID{Var: "lag", Box: box})
		holders := append(c.place.ReplicaHolders(primary), primary)
		found = !slices.ContainsFunc(c.dir.Servers("lag", box), func(s ServerID) bool { return slices.Contains(holders, s) })
	}
	if !found {
		t.Fatal("no candidate object whose directory group is disjoint from its holders")
	}
	first = firstMirrorOf(t, c, cl, "lag", box)

	if err := cl.Put(ctx, "lag", box, 1, regionData(t, box, 8, 1)); err != nil {
		t.Fatal(err)
	}
	heal := c.Faults().Partition([]types.ServerID{primary}, []types.ServerID{first})
	data := regionData(t, box, 8, 2)
	if err := cl.Put(ctx, "lag", box, 2, data); err != nil {
		t.Fatalf("put with one directory mirror partitioned: %v", err)
	}
	heal()
	if resp := c.Server(first).Handle(ctx, &transport.Message{Kind: transport.MsgMetaQuery, Var: "lag", Box: box}); len(resp.Metas) != 1 || resp.Metas[0].Version != 1 {
		t.Fatalf("first mirror %d holds %+v, want the version-1 record", first, resp.Metas)
	}

	read := func(when string, wantAsks int64) {
		t.Helper()
		rd := unseenClient(t, c, "lag", box, first)
		counter.take()
		got, err := rd.Get(ctx, "lag", box, 2)
		if err != nil || !bytes.Equal(got, data) {
			t.Fatalf("%s: get naming version 2 did not return its bytes: %v", when, err)
		}
		if sent, _ := counter.take(); sent[transport.MsgMetaQuery] != cfg.NLevel+1 {
			t.Errorf("%s: %d region queries, want %d (the first mirror, then its twin)", when, sent[transport.MsgMetaQuery], cfg.NLevel+1)
		}
		if st := c.FabricStatus(); st.DirSecondAsks != wantAsks || st.DirFallbacks != 0 {
			t.Errorf("%s: DirSecondAsks = %d, DirFallbacks = %d, want %d and 0", when, st.DirSecondAsks, st.DirFallbacks, wantAsks)
		}
	}
	read("lagging first mirror", 1)

	c.Kill(first)
	if _, err := c.Replace(first); err != nil { // no recovery yet: its directory shard is empty
		t.Fatal(err)
	}
	read("empty first mirror", 2)
}

// TestCoverageFallbackFindsMisplacedRecord plants an object's record only on
// a server outside its directory group — what a write under another ring
// epoch, or a record the rebalancer has not re-homed yet, looks like. The
// targeted lookup of a client that has not seen the box comes back
// empty-handed, so the get must ask the fleet, find the record, return the
// staged bytes rather than zeros, and count the fall-back.
func TestCoverageFallbackFindsMisplacedRecord(t *testing.T) {
	c := testCluster(t, PolicyReplicate)
	ctx := context.Background()
	box := Box3D(0, 0, 0, 8, 8, 8)
	data, meta := stageAt(t, c.NewClient(), box, 31)
	cl := c.NewClient()

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

// countedCluster builds a cluster whose servers, too, send through a
// countingNet: the fleet is restarted, empty, on the wrapped fabric. A
// server's message to itself is a call, not a send, and is not counted.
func countedCluster(t *testing.T, cfg Config) (*Cluster, *countingNet) {
	t.Helper()
	c, err := NewCluster(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(c.Close)
	counter := newCountingNet(c.net)
	c.net = counter
	for i := 0; i < cfg.Servers; i++ {
		c.Server(ServerID(i)).Close()
		if _, err := c.startServer(types.ServerID(i)); err != nil {
			t.Fatal(err)
		}
	}
	return c, counter
}

// remoteBox returns a box inside one directory cell whose object's primary
// is not a directory mirror of it, so every directory write the primary makes
// for the object crosses the fabric and is counted.
func remoteBox(t *testing.T, c *Cluster, name string) (Box, ServerID) {
	t.Helper()
	for i := int64(0); i < 64; i++ {
		box := Box3D(i%4*64, i/4%4*64, i/16*64, i%4*64+8, i/4%4*64+8, i/16*64+8)
		primary := c.place.Primary(types.ObjectID{Var: name, Box: box})
		if !slices.Contains(c.dir.Servers(name, box), primary) {
			return box, primary
		}
	}
	t.Fatal("every candidate object's primary is one of its directory mirrors")
	return Box{}, 0
}

// TestEncodedObjectCostsOneRecord counts what an erasure-coded object costs
// on the fabric now that its record is the only record, at 8, 16 and 32
// servers alike: the put that encodes it commits with one group of record
// updates, an aligned get naming its version from a client that has not seen
// the box asks one mirror of that group and the k data-shard holders and
// nobody else, and its eviction (which names no version and asks the whole
// group) drops the stripe's shards in one round.
func TestEncodedObjectCostsOneRecord(t *testing.T) {
	ctx := context.Background()
	for _, n := range []int{8, 16, 32} {
		cfg := DefaultConfig(n)
		cfg.Mode = PolicyErasure
		c, counter := countedCluster(t, cfg)
		cl := c.NewClient()
		group, k, m := cfg.NLevel+1, cfg.DataShards, cfg.NLevel
		box, primary := remoteBox(t, c, "one")
		data := regionData(t, box, 8, int64(n))

		counter.take()
		if err := cl.Put(ctx, "one", box, 1, data); err != nil {
			t.Fatal(err)
		}
		sent, _ := counter.take()
		// The primary cuts shard 0 from its own copy; its token leader may be
		// itself.
		delete(sent, transport.MsgTokenAcquire)
		delete(sent, transport.MsgTokenRelease)
		if want := map[transport.Kind]int{transport.MsgPut: 1, transport.MsgShardPut: k + m - 1, transport.MsgMetaUpdate: group}; !maps.Equal(sent, want) {
			t.Errorf("%d servers: an erasure put sent %v, want %v", n, sent, want)
		}

		got, err := c.NewClient().Get(ctx, "one", box, 1)
		if err != nil || !bytes.Equal(got, data) {
			t.Fatalf("%d servers: get: %v", n, err)
		}
		sent, _ = counter.take()
		if want := map[transport.Kind]int{transport.MsgMetaQuery: 1, transport.MsgShardGet: k}; !maps.Equal(sent, want) {
			t.Errorf("%d servers: an aligned get of an encoded object sent %v, want %v", n, sent, want)
		}

		// Eviction drops the stripe: the k+m-1 shards on other servers in one
		// round (the primary's own is a call) and, of the directory, only the
		// object's record.
		counter.lineUp, counter.wide = transport.MsgShardDrop, k+m-1
		if deleted, err := cl.Delete(ctx, "one", box); err != nil || deleted != 1 {
			t.Fatalf("%d servers: delete: %d, %v", n, deleted, err)
		}
		sent, stalled := counter.take()
		if stalled {
			t.Errorf("%d servers: the stripe's shard drops were not sent in one round", n)
		}
		if want := map[transport.Kind]int{transport.MsgMetaQuery: group, transport.MsgDelete: 1, transport.MsgShardDrop: k + m - 1, transport.MsgMetaDelete: group}; !maps.Equal(sent, want) {
			t.Errorf("%d servers: evicting an encoded object sent %v, want %v", n, sent, want)
		}
		if shards := c.Server(primary).CollectStats().Shards; shards != 0 {
			t.Errorf("%d servers: the primary still holds %d shards of the evicted object", n, shards)
		}
	}
}

// TestAlignedGetAsksThePrimaryFirst counts what a tile-aligned get naming its
// version costs once the client has seen the box, at 8, 16 and 32 servers
// alike: one request, to the object's primary, for a replicated object; that
// request and the k-1 other data-shard gets for an encoded one; no directory
// query either way. A client sees a box by putting it, or by a directory
// answer to its own get. A region the client has not seen, and one that is
// not an object's box, read through the directory as before with no request
// to a primary first, and a primary known down is passed over at no cost.
func TestAlignedGetAsksThePrimaryFirst(t *testing.T) {
	ctx := context.Background()
	for _, n := range []int{8, 16, 32} {
		for _, mode := range []Mode{PolicyReplicate, PolicyErasure} {
			cfg := DefaultConfig(n)
			cfg.Mode = mode
			c, err := NewCluster(cfg)
			if err != nil {
				t.Fatal(err)
			}
			counter := newCountingNet(c.net)
			c.net = counter
			cl := c.NewClient()
			box := Box3D(0, 0, 0, 8, 8, 8)
			data := regionData(t, box, 8, int64(n))
			if err := cl.Put(ctx, "pf", box, 1, data); err != nil {
				t.Fatal(err)
			}
			name := fmt.Sprintf("%d servers, %v", n, mode)
			get := func(rd *Client, box Box, want []byte) map[transport.Kind]int {
				t.Helper()
				counter.take()
				got, err := rd.Get(ctx, "pf", box, 1)
				if err != nil || (want != nil && !bytes.Equal(got, want)) {
					t.Fatalf("%s: get %v: %v", name, box, err)
				}
				sent, _ := counter.take()
				return sent
			}
			k := cfg.DataShards
			primaryWay := map[transport.Kind]int{transport.MsgGet: 1, primaryRead: 1}
			directoryWay := map[transport.Kind]int{transport.MsgMetaQuery: 1, transport.MsgGet: 1}
			if mode == PolicyErasure {
				primaryWay[transport.MsgShardGet] = k - 1
				directoryWay = map[transport.Kind]int{transport.MsgMetaQuery: 1, transport.MsgShardGet: k}
			}
			if sent := get(cl, box, data); !maps.Equal(sent, primaryWay) {
				t.Errorf("%s: the writer's aligned get sent %v, want %v", name, sent, primaryWay)
			}
			rd := c.NewClient()
			if sent := get(rd, box, data); !maps.Equal(sent, directoryWay) {
				t.Errorf("%s: an aligned get of a box never seen sent %v, want %v", name, sent, directoryWay)
			}
			if sent := get(rd, box, data); !maps.Equal(sent, primaryWay) {
				t.Errorf("%s: an aligned get of a box the directory showed sent %v, want %v", name, sent, primaryWay)
			}
			if sent := get(cl, Box3D(0, 0, 0, 4, 8, 8), nil); sent[primaryRead] != 0 || sent[transport.MsgMetaQuery] != 1 {
				t.Errorf("%s: a get of half an object's box sent %v, want it looked up", name, sent)
			}
			if st := c.FabricStatus(); st.PrimaryReads != 2 || st.PrimaryMisses != 0 {
				t.Errorf("%s: PrimaryReads = %d, PrimaryMisses = %d, want 2 and 0", name, st.PrimaryReads, st.PrimaryMisses)
			}

			// The first get after the primary dies pays for learning it; after
			// that a client that has seen the box looks it up as one that has
			// not does, asking the dead primary nothing first. (What the fetch
			// then sends the dead server depends on the clock: a half-open
			// trial may be let through.)
			c.Kill(c.place.Primary(types.ObjectID{Var: "pf", Box: box}))
			get(cl, box, data)
			if st := c.FabricStatus(); st.PrimaryMisses != 1 {
				t.Errorf("%s: PrimaryMisses = %d after the get that found the primary dead, want 1", name, st.PrimaryMisses)
			}
			for i := 0; i < 2; i++ { // the box is forgotten, then seen again
				if seen, unseen := get(cl, box, data), get(c.NewClient(), box, data); seen[primaryRead] != 0 || seen[transport.MsgMetaQuery] != 1 || unseen[transport.MsgMetaQuery] != 1 {
					t.Errorf("%s: with the primary known down a client that saw the box sent %v, one that did not %v; want one lookup each, no primary read", name, seen, unseen)
				}
			}
			c.Close()
		}
	}
}

// TestPrimaryMissFallsBackToTheDirectory: a primary that does not answer a
// get costs the get one request, not its bytes. A primary killed and replaced
// holds no record until recovery runs, so the get reads through the
// directory — from the replica, or degraded — and returns the staged bytes. A
// primary whose record is older than the floor a get names does not answer
// with it.
func TestPrimaryMissFallsBackToTheDirectory(t *testing.T) {
	for _, mode := range []Mode{PolicyReplicate, PolicyErasure} {
		t.Run(mode.String(), func(t *testing.T) {
			c := testCluster(t, mode)
			cl := c.NewClient()
			ctx := context.Background()
			box, data, meta := stageOne(t, cl, 21)
			c.Kill(meta.Primary)
			if _, err := c.Replace(meta.Primary); err != nil {
				t.Fatal(err)
			}
			got, err := cl.Get(ctx, "ph", box, 1)
			if err != nil || !bytes.Equal(got, data) {
				t.Fatalf("get through a replaced primary: %v", err)
			}
			if st := c.FabricStatus(); st.PrimaryReads != 0 || st.PrimaryMisses != 1 {
				t.Fatalf("PrimaryReads = %d, PrimaryMisses = %d after a get through a replaced primary, want 0 and 1", st.PrimaryReads, st.PrimaryMisses)
			}

			below := Box3D(64, 0, 0, 72, 8, 8)
			data, meta = stageAt(t, cl, below, 22)
			primary := c.Server(meta.Primary)
			key := meta.ID.Key()
			if resp := primary.Handle(ctx, &transport.Message{Kind: transport.MsgGet, Key: key, Version: 2}); resp.Flag {
				t.Fatal("the primary answered a floor above its record")
			}
			if resp := primary.Handle(ctx, &transport.Message{Kind: transport.MsgGet, Key: key, Version: 1}); !resp.Flag || resp.Meta == nil || resp.Meta.Version != 1 || resp.Meta.Seq != meta.Seq {
				t.Fatalf("the primary's answer at its record's version: %+v", resp)
			}
			// A floor ahead of everything staged reads the newest staged bytes,
			// from the directory.
			if got, err := cl.Get(ctx, "ph", below, 2); err != nil || !bytes.Equal(got, data) {
				t.Fatalf("get naming a floor above the record: %v", err)
			}
			if st := c.FabricStatus(); st.PrimaryReads != 0 || st.PrimaryMisses != 2 {
				t.Fatalf("PrimaryReads = %d, PrimaryMisses = %d after a get above the record, want 0 and 2", st.PrimaryReads, st.PrimaryMisses)
			}
		})
	}
}

// TestRewriteDropsSupersededStripeWithoutTheDirectory rewrites an encoded
// object under CoREC. The write publishes the object's new record; releasing
// the stripe it supersedes is the primary's business with the stripe's
// members alone — the layout is in its hand, and no record of the stripe
// exists to look up or delete.
func TestRewriteDropsSupersededStripeWithoutTheDirectory(t *testing.T) {
	ctx := context.Background()
	cfg := DefaultConfig(8)
	cfg.Mode = PolicyCoREC
	cfg.StorageEfficiencyMin = 0 // classification alone drives the transitions
	c, counter := countedCluster(t, cfg)
	cl := c.NewClient()
	group, k, m := cfg.NLevel+1, cfg.DataShards, cfg.NLevel
	box, primary := remoteBox(t, c, "rw")
	if err := cl.Put(ctx, "rw", box, 1, regionData(t, box, 8, 1)); err != nil {
		t.Fatal(err)
	}
	for ts := Version(1); ts <= 6; ts++ {
		c.EndTimeStep(ts) // the object cools and is demoted
	}
	metas, err := cl.Query(ctx, "rw", box)
	if err != nil || len(metas) != 1 || metas[0].State != types.StateEncoded {
		t.Fatalf("object not encoded after cooling: %+v, %v", metas, err)
	}
	old := metas[0].Layout

	counter.take()
	counter.lineUp, counter.wide = transport.MsgShardDrop, k+m-1
	data := regionData(t, box, 8, 2)
	if err := cl.Put(ctx, "rw", box, 7, data); err != nil {
		t.Fatal(err)
	}
	c.Server(primary).WaitEncodeIdle() // the deferred drop has run
	sent, stalled := counter.take()
	if stalled {
		t.Error("the superseded stripe's shard drops were not sent in one round")
	}
	if sent[transport.MsgShardDrop] != k+m-1 {
		t.Errorf("%d shard drops crossed the fabric, want %d", sent[transport.MsgShardDrop], k+m-1)
	}
	for _, member := range old.Members {
		if c.Server(ServerID(member.Server)).HasShard(old.ID, member.Index) {
			t.Errorf("server %d still holds shard %d of the superseded stripe", member.Server, member.Index)
		}
	}
	// Of the directory plane, only the object's own record moved: one group
	// of updates per record the primary published (the write, and the
	// re-encode if the worker decided on one).
	publishes := 1
	if metas, err = cl.Query(ctx, "rw", box); err != nil || len(metas) != 1 {
		t.Fatalf("query after rewrite: %+v, %v", metas, err)
	} else if metas[0].State == types.StateEncoded {
		publishes = 2
	}
	for kind, want := range map[transport.Kind]int{
		transport.MsgMetaUpdate: publishes * group, transport.MsgMetaDelete: 0,
		transport.MsgMetaLookup: 0, transport.MsgStripeLookup: 0,
	} {
		if sent[kind] != want {
			t.Errorf("the rewrite sent %d %v, want %d", sent[kind], kind, want)
		}
	}
	if got, err := cl.Get(ctx, "rw", box, 7); err != nil || !bytes.Equal(got, data) {
		t.Fatalf("get after rewrite: %v", err)
	}
}
