package server

import (
	"context"
	"slices"
	"sync"
	"testing"

	"corec/internal/geometry"
	"corec/internal/placement"
	"corec/internal/policy"
	"corec/internal/transport"
	"corec/internal/types"
)

func testShard() *directory {
	return newDirectory(placement.NewDirectory(placement.NewHash(8), 1, rigDomain))
}

func metaFor(name string, box geometry.Box, v types.Version, seq uint64) *types.ObjectMeta {
	return &types.ObjectMeta{ID: types.ObjectID{Var: name, Box: box}, Version: v, Seq: seq, State: types.StateReplicated}
}

func queryKeys(d *directory, name string, box geometry.Box) []string {
	var keys []string
	for _, m := range d.query(name, box) {
		keys = append(keys, m.ID.Key())
	}
	return keys
}

// TestDirectoryShardIndex pins the shard's bucket index: a region query
// returns exactly the intersecting records of its variable, once each and
// in key order, whichever buckets they sit in.
func TestDirectoryShardIndex(t *testing.T) {
	d := testShard()
	inCell := geometry.Box3D(0, 0, 0, 8, 8, 8)        // one cell (the rig's cells are 32x32x64)
	spanning := geometry.Box3D(24, 24, 8, 40, 40, 24) // four cells around an edge
	farAway := geometry.Box3D(512, 32, 32, 520, 40, 40)
	foreign := geometry.NewBox([]int64{0}, []int64{100})
	for _, m := range []*types.ObjectMeta{
		metaFor("v", inCell, 1, 1), metaFor("v", spanning, 1, 2), metaFor("v", farAway, 1, 3),
		metaFor("v", foreign, 1, 4), metaFor("w", inCell, 1, 5),
	} {
		d.update(m, false)
	}
	key := func(b geometry.Box) string { return types.ObjectID{Var: "v", Box: b}.Key() }
	for _, c := range []struct {
		name   string
		region geometry.Box
		want   []string
	}{
		{"own box", inCell, []string{key(inCell)}},
		{"multi-cell record, met in one of its cells", geometry.Box3D(33, 33, 10, 35, 35, 12), []string{key(spanning)}},
		{"multi-cell query, each record once", geometry.Box3D(0, 0, 0, 64, 64, 32), []string{key(inCell), key(spanning)}},
		{"same cell, no overlap", geometry.Box3D(16, 16, 40, 20, 20, 48), nil},
		{"foreign dimensionality", geometry.NewBox([]int64{50}, []int64{60}), []string{key(foreign)}},
		{"no region: every record of the variable", geometry.Box{}, []string{key(foreign), key(inCell), key(farAway), key(spanning)}},
	} {
		want := slices.Clone(c.want)
		slices.Sort(want)
		if got := queryKeys(d, "v", c.region); !slices.Equal(got, want) {
			t.Errorf("%s: query(%v) = %v, want %v", c.name, c.region, got, want)
		}
	}

	// Ordering: a stale update is dropped, a restore never replaces an
	// equally new record, a newer one replaces it in every bucket.
	d.update(metaFor("v", spanning, 1, 1), false)
	d.update(&types.ObjectMeta{ID: types.ObjectID{Var: "v", Box: spanning}, Version: 1, Seq: 2, Primary: 7}, true)
	if m, _ := d.lookup(key(spanning)); m.Seq != 2 || m.Primary != 0 {
		t.Fatalf("stale or equal restore update replaced the record: %+v", m)
	}
	d.update(&types.ObjectMeta{ID: types.ObjectID{Var: "v", Box: spanning}, Version: 2, Seq: 1, Primary: 5}, true)
	if got := d.query("v", geometry.Box3D(38, 38, 20, 39, 39, 21)); len(got) != 1 || got[0].Version != 2 || got[0].Primary != 5 {
		t.Fatalf("newer record not visible through a far bucket: %+v", got)
	}

	// Removal leaves no trace in any bucket.
	d.remove(key(spanning))
	d.remove(key(spanning)) // idempotent
	if got := queryKeys(d, "v", geometry.Box3D(0, 0, 0, 64, 64, 32)); !slices.Equal(got, []string{key(inCell)}) {
		t.Fatalf("after remove: %v", got)
	}
	for _, m := range []string{key(inCell), key(farAway), key(foreign), types.ObjectID{Var: "w", Box: inCell}.Key()} {
		d.remove(m)
	}
	if metas := d.count(); metas != 0 || len(d.buckets) != 0 {
		t.Fatalf("%d records, %d buckets left after removing everything", metas, len(d.buckets))
	}
}

// TestMultiCellRecordRegistersInEveryGroup puts an object whose box touches
// several directory cells: the record must land on every member of every
// cell's shard group (written concurrently) and nowhere else, a lookup that
// touches any one of the cells must find it, and a member that was down for
// the write is owed the record as a hint.
func TestMultiCellRecordRegistersInEveryGroup(t *testing.T) {
	rig := newRig(t, policy.Replicate, 8)
	box := geometry.Box3D(24, 24, 8, 40, 40, 24)
	id := types.ObjectID{Var: "wide", Box: box}
	dir := rig.servers[0].dirPlace
	targets := dir.Servers(id.Var, id.Box)
	if len(dir.Cells(box)) != 4 || len(targets) <= 2 {
		t.Fatalf("box touches cells %v on servers %v; the test needs more than one group", dir.Cells(box), targets)
	}
	primary := rig.place.Primary(id)
	down := types.InvalidServer
	for _, s := range targets {
		if s != primary && s != rig.place.ReplicaHolders(primary)[0] {
			down = s
		}
	}
	rig.servers[down].Close()
	rig.put(t, id.Var, box, 1, payload(int(box.Volume())*8, 41))

	for i, srv := range rig.servers {
		sid := types.ServerID(i)
		if sid == down {
			continue
		}
		_, has := srv.dir.lookup(id.Key())
		if want := slices.Contains(targets, sid); has != want {
			t.Errorf("server %d holds the record = %v, want %v (targets %v)", i, has, want, targets)
		}
	}
	corner := geometry.Box3D(39, 39, 23, 40, 40, 24) // the last cell the box touches
	for _, s := range dir.Servers(id.Var, corner) {
		if s == down {
			continue
		}
		resp := rig.servers[s].Handle(context.Background(), &transport.Message{Kind: transport.MsgMetaQuery, Var: id.Var, Box: corner})
		if len(resp.Metas) != 1 || resp.Metas[0].ID.Key() != id.Key() {
			t.Errorf("server %d does not answer a query in the record's far cell: %+v", s, resp.Metas)
		}
	}
	psrv := rig.servers[primary]
	psrv.mu.Lock()
	_, hinted := psrv.mirrorHints[mirrorHintKey(down, "m/"+id.Key())]
	hints := len(psrv.mirrorHints)
	psrv.mu.Unlock()
	if !hinted || hints != 1 {
		t.Fatalf("primary holds %d hints (one for the down member: %v), want exactly that one", hints, hinted)
	}
}

// TestDirectoryShardConcurrent drives one shard from several goroutines at
// once — updates, region queries, lookups, removals, whole-shard reads —
// the mix a busy server's handlers produce. Run under -race.
func TestDirectoryShardConcurrent(t *testing.T) {
	d := testShard()
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := int64(0); i < 300; i++ {
				x := (i*7 + int64(w)*3) % 120 * 8
				box := geometry.Box3D(x, 0, 0, x+20, 20, 20) // straddles cell boundaries
				m := metaFor("v", box, types.Version(i), uint64(i))
				switch i % 5 {
				case 0, 1:
					m.State = types.StateEncoded
					m.Layout = &types.StripeInfo{ID: types.StripeID{Group: w, Seq: uint64(i)}, K: 3, M: 1, Members: []types.StripeMember{{Server: 1}}}
					d.update(m, i%2 == 0)
				case 2:
					for _, got := range d.query("v", geometry.Box3D(x, 0, 0, x+64, 64, 64)) {
						if got.ID.Var != "v" {
							t.Errorf("query returned a record of %q", got.ID.Var)
						}
					}
				case 3:
					// A lookup hands out a copy: writing to its layout must not
					// race the shard's own record.
					if got, ok := d.lookup(m.ID.Key()); ok && got.Layout != nil {
						got.Layout.Members[0].Server = 9
					}
					d.query("", geometry.Box{})
					d.count()
				case 4:
					d.remove(m.ID.Key())
				}
			}
		}(w)
	}
	wg.Wait()
	// Whatever interleaving ran, the index and the record map agree.
	metas := d.query("", geometry.Box{})
	if got := d.query("v", geometry.Box{}); len(got) != len(metas) {
		t.Fatalf("unbounded query sees %d records, the whole shard %d", len(got), len(metas))
	}
	for _, m := range metas {
		if got := d.query(m.ID.Var, m.ID.Box); !slices.ContainsFunc(got, func(g types.ObjectMeta) bool { return g.ID.Key() == m.ID.Key() }) {
			t.Fatalf("record %s not reachable through its own box", m.ID)
		}
	}
}
