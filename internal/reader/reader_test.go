package reader

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"math/rand"
	"slices"
	"sync"
	"testing"
	"time"

	"corec/internal/erasure"
	"corec/internal/geometry"
	"corec/internal/metrics"
	"corec/internal/placement"
	"corec/internal/simnet"
	"corec/internal/transport"
	"corec/internal/types"
)

// fleet answers the reader's requests from memory: server i holds shard i of
// one stripe, some servers hold a full copy or a directory record. It stands
// in for both sends the reader is driven with: lands set, it delivers a
// payload into the request's RecvInto the way the fabrics do; unset, it
// ignores the field the way a server's call of its own handler does.
type fleet struct {
	info   *types.StripeInfo
	shards [][]byte                            // by shard index; nil: the holder lost it
	copies map[types.ServerID]*types.Object    // full copies, by holder
	metas  map[types.ServerID]types.ObjectMeta // directory records, by mirror
	// own is the record a primary holds of the object, by primary: what it
	// answers a get that names a floor with, with its copy or shard 0.
	own   map[types.ServerID]types.ObjectMeta
	dead  map[types.ServerID]bool
	lands bool

	mu sync.Mutex
	// sent logs the kind of every request, in order.
	sent []transport.Kind
	// Shard gets in flight wait until gate of them have arrived (0: no
	// waiting); late lists the shard indices asked for after that.
	gate    int
	arrived int
	open    chan struct{}
	late    []int
	stalled bool
}

func (f *fleet) send(ctx context.Context, to types.ServerID, msg *transport.Message) (*transport.Message, error) {
	f.mu.Lock()
	f.sent = append(f.sent, msg.Kind)
	f.mu.Unlock()
	if msg.Kind == transport.MsgShardGet {
		f.pass(msg.ShardIndex)
	}
	if f.dead[to] {
		return nil, transport.ErrUnreachable
	}
	var data []byte
	resp := &transport.Message{Kind: transport.MsgGetBytes, Flag: true}
	switch msg.Kind {
	case transport.MsgShardGet:
		data = f.shards[msg.ShardIndex]
	case transport.MsgGet:
		if msg.Version > 0 {
			rec, ok := f.own[to]
			if !ok || rec.Version < msg.Version {
				return &transport.Message{Kind: transport.MsgOK}, nil
			}
			resp.Meta, resp.Version = &rec, rec.Version
			if rec.State == types.StateEncoded {
				data = f.shards[0]
				break
			}
		}
		if obj := f.copies[to]; obj != nil {
			data, resp.Version = obj.Data, obj.Version
		}
	case transport.MsgMetaLookup:
		meta, ok := f.metas[to]
		return &transport.Message{Kind: transport.MsgOK, Flag: ok, Meta: &meta}, nil
	}
	if data == nil {
		return &transport.Message{Kind: transport.MsgOK}, nil
	}
	resp.Data = data
	if f.lands && len(msg.RecvInto) > 0 {
		n := copy(msg.RecvInto, data)
		resp.Data, resp.Overflow = msg.RecvInto[:n], slices.Clone(data[n:])
	}
	return resp, nil
}

// pass holds a shard get at the gate until the whole round it belongs to has
// arrived: requests sent one after the other would never get through.
func (f *fleet) pass(index int) {
	f.mu.Lock()
	if f.gate == 0 {
		f.mu.Unlock()
		return
	}
	f.arrived++
	if f.arrived > f.gate {
		f.late = append(f.late, index)
	} else if f.arrived == f.gate {
		close(f.open)
	}
	open := f.open
	f.mu.Unlock()
	select {
	case <-open:
	case <-time.After(5 * time.Second):
		f.mu.Lock()
		f.stalled = true
		f.mu.Unlock()
	}
}

// newFleet encodes size random bytes into one RS(k+m) stripe held by servers
// 0..k+m-1 and returns the fleet, a reader over it and the bytes.
func newFleet(t *testing.T, k, m, size int) (*fleet, *Reader, []byte) {
	t.Helper()
	codec, err := erasure.New(k, m)
	if err != nil {
		t.Fatal(err)
	}
	data := make([]byte, size)
	rand.New(rand.NewSource(int64(size))).Read(data)
	shards, ss := codec.Split(data)
	if err := codec.Encode(shards); err != nil {
		t.Fatal(err)
	}
	f := &fleet{
		info:   &types.StripeInfo{ID: types.StripeID{Group: 1, Seq: 7}, K: k, M: m, ShardSize: ss},
		shards: shards,
		copies: make(map[types.ServerID]*types.Object),
		metas:  make(map[types.ServerID]types.ObjectMeta),
		own:    make(map[types.ServerID]types.ObjectMeta),
		dead:   make(map[types.ServerID]bool),
		lands:  true,
		open:   make(chan struct{}),
	}
	for i := range shards {
		f.info.Members = append(f.info.Members, types.StripeMember{Server: types.ServerID(i), Index: i})
	}
	dir := placement.NewDirectory(placement.NewHash(8), 1, geometry.Box3D(0, 0, 0, 64, 64, 64))
	return f, &Reader{Send: f.send, Dir: dir, Codec: codec, Col: metrics.NewCollector()}, data
}

// TestStripeAssemblesInPlace reads one stripe into its object's buffer over
// both kinds of send, into an exact-size buffer and into one with room for
// the padding, with every data shard present, with each one lost in turn and
// with two lost: the same bytes must come back every way, nothing may be
// written past the buffer's capacity, and a read is degraded exactly when a
// data shard was missing.
func TestStripeAssemblesInPlace(t *testing.T) {
	ctx := context.Background()
	const k, m = 3, 2
	for _, size := range []int{1, 2, 3, 100, 301, 4096, 4098} {
		for _, lost := range [][]int{nil, {0}, {1}, {2}, {0, 2}, {1, 3}, {4}} {
			for _, lands := range []bool{true, false} {
				for _, roomy := range []bool{false, true} {
					name := fmt.Sprintf("size=%d/lost=%v/lands=%v/roomy=%v", size, lost, lands, roomy)
					f, r, data := newFleet(t, k, m, size)
					f.lands = lands
					for _, i := range lost {
						f.shards[i] = nil
					}
					const guard = 8
					arena := bytes.Repeat([]byte{0xEE}, size+k+guard)
					dst := arena[:size:size]
					if roomy {
						dst = arena[: size : size+k-1]
					}
					degraded, _, err := r.Stripe(ctx, f.info, dst, false)
					if err != nil {
						t.Fatalf("%s: %v", name, err)
					}
					if !bytes.Equal(dst, data) {
						t.Fatalf("%s: assembled other bytes than were encoded", name)
					}
					if want := slices.ContainsFunc(lost, func(i int) bool { return i < k }); degraded != want {
						t.Errorf("%s: degraded = %v, want %v", name, degraded, want)
					}
					if !bytes.Equal(arena[cap(dst):], bytes.Repeat([]byte{0xEE}, len(arena)-cap(dst))) {
						t.Fatalf("%s: wrote past the buffer's capacity", name)
					}
				}
			}
		}
	}

	f, r, _ := newFleet(t, k, m, 100)
	f.shards[0], f.shards[1], f.shards[4] = nil, nil, nil
	if _, _, err := r.Stripe(ctx, f.info, make([]byte, 100), false); !errors.Is(err, ErrDataLoss) {
		t.Fatalf("three losses over RS(3+2): %v, want ErrDataLoss", err)
	}
	if _, _, err := r.Stripe(ctx, f.info, make([]byte, 3*f.info.ShardSize+1), false); !errors.Is(err, ErrDataLoss) {
		t.Fatalf("a buffer the stripe cannot fill: %v, want ErrDataLoss", err)
	}
}

// TestShardsRounds pins the gather's plan. The first need candidates are
// asked at once (the gate lets none through until all have arrived), the
// spares not at all while those deliver; a miss sends the spares, together,
// in a second round; and a holder the fabric already knows to be dead puts
// everyone in the first.
func TestShardsRounds(t *testing.T) {
	ctx := context.Background()
	const k, m = 3, 2
	run := func(f *fleet, r *Reader, gate, need int, skip []int) (have int, late []int) {
		t.Helper()
		f.gate, f.arrived, f.late, f.open = gate, 0, nil, make(chan struct{})
		shards, _, have, _ := r.Shards(ctx, f.info, need, skip, nil, NoTally)
		if f.stalled {
			t.Fatal("shard gets of one round were not sent together")
		}
		for i, b := range shards {
			if b != nil && !bytes.Equal(b, f.shards[i]) {
				t.Fatalf("shard %d came back with other bytes", i)
			}
		}
		slices.Sort(f.late)
		return have, f.late
	}

	f, r, _ := newFleet(t, k, m, 4096)
	if have, late := run(f, r, k, k, nil); have != k || late != nil {
		t.Errorf("healthy: %d shards, spares asked %v; want %d and none", have, late, k)
	}
	if have, late := run(f, r, k, k, []int{1}); have != k || late != nil {
		t.Errorf("rebuilding shard 1: %d shards, second round %v; want %d from {0, 2, 3} in one", have, late, k)
	}
	f.dead[1] = true
	if have, late := run(f, r, k, k, nil); have != k+m-1 || !slices.Equal(late, []int{3, 4}) {
		t.Errorf("one holder dead: %d shards, second round %v; want %d and [3 4]", have, late, k+m-1)
	}

	// The fabric learns of the death the way it does in service: a send
	// under a retry policy runs out of budget on an unreachable address.
	fabric := transport.NewInProc(simnet.LinkModel{})
	if _, _, err := (transport.RetryPolicy{MaxAttempts: 1}).Send(ctx, fabric, -1, 1, &transport.Message{Kind: transport.MsgPing}); err == nil {
		t.Fatal("send to an unregistered server succeeded")
	}
	r.Health = transport.HealthOf(fabric)
	if !r.Health.Down(1) {
		t.Fatal("the fabric did not mark the dead server")
	}
	if have, late := run(f, r, k+m, k, nil); have != k+m-1 || late != nil {
		t.Errorf("loss known: %d shards, second round %v; want %d in one round", have, late, k+m-1)
	}
}

// TestTallyCountsInMemberOrder: a paced caller is told of every shard that
// arrived and every holder that did not deliver, and a charge it refuses
// ends the read short. Of the holders that did not deliver, the one that
// answered without its shard is reported; the unreachable one is not.
func TestTallyCountsInMemberOrder(t *testing.T) {
	ctx := context.Background()
	f, r, _ := newFleet(t, 3, 2, 999)
	f.dead[0] = true
	f.shards[2] = nil
	var got, missed int
	tally := Tally{
		Got:    func(_ context.Context, n int) error { got += n; return nil },
		Missed: func() { missed++ },
	}
	_, _, have, notHeld := r.Shards(ctx, f.info, 3, nil, nil, tally)
	if have != 3 || got != 3*f.info.ShardSize || missed != 2 {
		t.Errorf("have %d shards, tallied %d bytes and %d misses; want 3, %d and 2", have, got, missed, 3*f.info.ShardSize)
	}
	if !slices.Equal(notHeld, []types.ServerID{2}) {
		t.Errorf("not held by %v, want [2]", notHeld)
	}
	stop := errors.New("budget cancelled")
	tally.Got = func(context.Context, int) error { return stop }
	if _, _, have, _ := r.Shards(ctx, f.info, 3, nil, nil, tally); have != 0 {
		t.Errorf("a refused charge left %d shards counted, want 0", have)
	}
	f.copies[5] = &types.Object{Data: []byte("copy")}
	if resp := r.Copy(ctx, "k", []types.ServerID{5}, nil, nil, tally); resp != nil {
		t.Error("a refused charge still returned the copy")
	}
}

// TestCopyTakesTheFirstThatPasses: holders are asked in order, an
// unreachable one and one without the object are passed over, accept has the
// last word, and with a destination named the copy must fill it exactly.
func TestCopyTakesTheFirstThatPasses(t *testing.T) {
	ctx := context.Background()
	for _, lands := range []bool{true, false} {
		f, r, _ := newFleet(t, 3, 1, 10)
		f.lands = lands
		f.dead[0] = true
		f.copies[2] = &types.Object{Version: 1, Data: []byte("stale...")}
		f.copies[3] = &types.Object{Version: 2, Data: []byte("current!")}
		holders := []types.ServerID{0, 1, 2, 3}
		missed := 0
		tally := Tally{Got: NoTally.Got, Missed: func() { missed++ }}
		resp := r.Copy(ctx, "k", holders, nil, func(m *transport.Message) bool { return m.Version == 2 }, tally)
		if resp == nil || string(resp.Data) != "current!" || missed != 1 {
			t.Fatalf("lands=%v: got %+v with %d unreachable holders counted, want server 3's copy and 1", lands, resp, missed)
		}
		dst := make([]byte, 8)
		if resp := r.Copy(ctx, "k", holders, dst, nil, NoTally); resp == nil || string(dst) != "stale..." || &resp.Data[0] != &dst[0] {
			t.Fatalf("lands=%v: the first whole copy did not land in the destination: %q", lands, dst)
		}
		if resp := r.Copy(ctx, "k", holders, make([]byte, 7), nil, NoTally); resp != nil {
			t.Fatalf("lands=%v: a copy of 8 bytes passed for a destination of 7", lands)
		}
	}
}

// TestObjectSettlesThroughAFreshRecord: a read that starts from a record the
// object has moved on from — here one naming a holder that no longer has the
// copy — looks the record up again, takes the newest of the mirrors' answers
// and reads through that; a loss the fresh record confirms stays a loss.
func TestObjectSettlesThroughAFreshRecord(t *testing.T) {
	ctx := context.Background()
	f, r, data := newFleet(t, 3, 1, 512)
	id := types.ObjectID{Var: "v", Box: geometry.Box3D(0, 0, 0, 4, 4, 4)}
	mirrors := r.Dir.Servers(id.Var, id.Box)
	if len(mirrors) != 2 {
		t.Fatalf("directory group %v, want two mirrors", mirrors)
	}
	old := types.ObjectMeta{ID: id, Version: 1, Seq: 1, Size: len(data), State: types.StateReplicated, Primary: 6}
	lagging, newest := old, old
	lagging.Seq, lagging.Primary = 2, 7
	newest.Seq, newest.State, newest.Stripe, newest.Layout = 3, types.StateEncoded, f.info.ID, f.info
	f.metas[mirrors[0]], f.metas[mirrors[1]] = newest, lagging

	var told []types.ServerID
	r.NotHeld = func(_ context.Context, got types.ObjectID, members []types.ServerID) {
		if got.Key() == id.Key() {
			told = members
		}
	}
	f.shards[1] = nil
	dst := Buffer(len(data), 3)
	if err := r.Object(ctx, &old, dst); err != nil || !bytes.Equal(dst, data) {
		t.Fatalf("read through the fresh record: %v", err)
	}
	if !slices.Equal(told, []types.ServerID{1}) {
		t.Errorf("the member without its shard was reported as %v, want [1]", told)
	}
	f.shards[0] = nil
	if err := r.Object(ctx, &old, dst); !errors.Is(err, ErrDataLoss) {
		t.Fatalf("two losses over RS(3+1): %v, want ErrDataLoss", err)
	}
	// An encoded record without its stripe's layout names nothing to gather.
	bare := newest
	bare.Layout = nil
	f.metas[mirrors[0]] = bare
	if err := r.Object(ctx, &bare, dst); !errors.Is(err, ErrDataLoss) {
		t.Fatalf("encoded record without a layout: %v, want ErrDataLoss", err)
	}
}

// TestSettleRefreshesBeforeItWaits states the order of a settled read by its
// messages. A miss is followed at once by the lookup: a read whose context is
// already done — it could not sit out any wait — still gets through a record
// the directory has moved on from, as miss, one lookup per mirror, the k shard
// gets of the fresh record. The wait comes only after a lookup that returned
// the very record that just failed: the same read of a record the directory
// still names ends in the context's error after one miss and one lookup.
func TestSettleRefreshesBeforeItWaits(t *testing.T) {
	f, r, data := newFleet(t, 3, 1, 512)
	id := types.ObjectID{Var: "v", Box: geometry.Box3D(0, 0, 0, 4, 4, 4)}
	mirrors := r.Dir.Servers(id.Var, id.Box)
	if len(mirrors) != 2 {
		t.Fatalf("directory group %v, want two mirrors", mirrors)
	}
	superseded := types.ObjectMeta{ID: id, Version: 1, Seq: 1, Size: len(data), State: types.StateReplicated, Primary: 6}
	current := superseded
	current.Seq, current.State, current.Stripe, current.Layout = 2, types.StateEncoded, f.info.ID, f.info
	done, cancel := context.WithCancel(context.Background())
	cancel()

	f.metas[mirrors[0]], f.metas[mirrors[1]] = superseded, current
	dst := Buffer(len(data), 3)
	if err := r.Object(done, &superseded, dst); err != nil || !bytes.Equal(dst, data) {
		t.Fatalf("read through a superseded record: %v", err)
	}
	const get, lookup, shard = transport.MsgGet, transport.MsgMetaLookup, transport.MsgShardGet
	want := []transport.Kind{get, lookup, lookup, shard, shard, shard}
	if !slices.Equal(f.sent, want) {
		t.Errorf("a settled read sent %v, want %v", f.sent, want)
	}

	f.sent = nil
	f.metas[mirrors[1]] = superseded
	if err := r.Object(done, &superseded, dst); !errors.Is(err, context.Canceled) {
		t.Fatalf("read of a record the directory still names: %v, want the wait to meet the done context", err)
	}
	if want := want[:3]; !slices.Equal(f.sent, want) {
		t.Errorf("before its first wait the read sent %v, want %v", f.sent, want)
	}
}

// TestObjectPassesOverACopyOlderThanItsRecord: a holder the record names may
// still keep the object as it was before the record — a replica from an
// earlier ownership. Its bytes are not the object the record describes: the
// read takes the next holder's, and with none current it is a loss, not the
// stale bytes.
func TestObjectPassesOverACopyOlderThanItsRecord(t *testing.T) {
	ctx := context.Background()
	f, r, _ := newFleet(t, 3, 1, 8)
	id := types.ObjectID{Var: "v", Box: geometry.Box3D(0, 0, 0, 4, 4, 4)}
	meta := types.ObjectMeta{ID: id, Version: 8, Seq: 5, Size: 8, State: types.StateReplicated, Primary: 6, Replicas: []types.ServerID{7}}
	for _, m := range r.Dir.Servers(id.Var, id.Box) {
		f.metas[m] = meta
	}
	f.copies[6] = &types.Object{Version: 1, Data: []byte("stale...")}
	f.copies[7] = &types.Object{Version: 8, Data: []byte("current!")}
	dst := make([]byte, 8)
	if err := r.Object(ctx, &meta, dst); err != nil || string(dst) != "current!" {
		t.Fatalf("read %q (%v), want the copy as new as the record", dst, err)
	}
	delete(f.copies, 7)
	if err := r.Object(ctx, &meta, dst); !errors.Is(err, ErrDataLoss) {
		t.Fatalf("only a stale copy left: %v, want ErrDataLoss", err)
	}
}

// TestPrimaryReadsInOneRequest: a primary read is one request to the primary
// for its record and its piece — the whole copy of a replicated object, data
// shard 0 of an encoded one, whose other data shards then come from their
// holders — over both kinds of send. Shard 0 in hand counts towards a
// degraded read's k. The read reports a miss, and no bytes, when the primary
// is dead, holds no record at the floor, or lacks its piece, when its copy is
// older than its record, and when the stripe is short of shards.
func TestPrimaryReadsInOneRequest(t *testing.T) {
	ctx := context.Background()
	const k, m, size = 3, 2, 4096
	const get, shard = transport.MsgGet, transport.MsgShardGet
	id := types.ObjectID{Var: "v", Box: geometry.Box3D(0, 0, 0, 8, 8, 8)}
	for _, lands := range []bool{true, false} {
		f, r, data := newFleet(t, k, m, size)
		f.lands = lands
		f.own[0] = types.ObjectMeta{ID: id, Version: 2, Seq: 9, Size: size, State: types.StateEncoded, Primary: 0, Stripe: f.info.ID, Layout: f.info}
		var told []types.ServerID
		r.NotHeld = func(_ context.Context, _ types.ObjectID, members []types.ServerID) { told = members }
		read := func(floor types.Version) (bool, []transport.Kind) {
			t.Helper()
			f.sent = nil
			dst := make([]byte, size)
			ok := r.Primary(ctx, 0, id.Key(), floor, dst)
			if ok && !bytes.Equal(dst, data) {
				t.Fatalf("lands=%v: a primary read returned other bytes than were encoded", lands)
			}
			return ok, f.sent
		}
		if ok, sent := read(2); !ok || !slices.Equal(sent, []transport.Kind{get, shard, shard}) || told != nil {
			t.Errorf("lands=%v: healthy encoded read: %v, sent %v; want the primary, then shards 1 and 2", lands, ok, sent)
		}
		f.shards[1] = nil
		if ok, _ := read(1); !ok || !slices.Equal(told, []types.ServerID{1}) {
			t.Errorf("lands=%v: read with data shard 1 lost: %v, not held by %v; want [1]", lands, ok, told)
		}
		f.shards[2], f.shards[3] = nil, nil
		if ok, _ := read(1); ok {
			t.Errorf("lands=%v: read with shard 0 and one parity shard of RS(3+2) reported served", lands)
		}
		if ok, sent := read(3); ok || !slices.Equal(sent, []transport.Kind{get}) {
			t.Errorf("lands=%v: a floor above the record: %v, sent %v; want a miss after one request", lands, ok, sent)
		}
		f.dead[0] = true
		if ok, _ := read(1); ok {
			t.Errorf("lands=%v: a dead primary's read reported served", lands)
		}

		f.own[6] = types.ObjectMeta{ID: id, Version: 2, Seq: 9, Size: 8, State: types.StateReplicated, Primary: 6}
		f.copies[6] = &types.Object{Version: 2, Data: []byte("current!")}
		dst := make([]byte, 8)
		f.sent = nil
		if !r.Primary(ctx, 6, id.Key(), 2, dst) || string(dst) != "current!" || !slices.Equal(f.sent, []transport.Kind{get}) {
			t.Errorf("lands=%v: replicated read: %q after %v, want the copy in one request", lands, dst, f.sent)
		}
		f.copies[6] = &types.Object{Version: 1, Data: []byte("stale...")}
		if r.Primary(ctx, 6, id.Key(), 2, dst) {
			t.Errorf("lands=%v: a copy older than the primary's record was served", lands)
		}
		delete(f.copies, 6)
		if r.Primary(ctx, 6, id.Key(), 2, dst) {
			t.Errorf("lands=%v: a primary without its copy reported served", lands)
		}
	}
}
