package transport

import (
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"

	"corec/internal/geometry"
	"corec/internal/types"
)

func sampleMessage() *Message {
	return &Message{
		Kind:       MsgShardPut,
		From:       7,
		Var:        "temperature",
		Box:        geometry.Box3D(0, 16, 32, 64, 80, 96),
		Version:    12,
		Data:       []byte{1, 2, 3, 4, 5},
		Key:        "temperature@[(0,16,32)-(64,80,96))",
		Stripe:     types.StripeID{Group: 3, Seq: 41},
		ShardIndex: 2,
		Meta: &types.ObjectMeta{
			ID:         types.ObjectID{Var: "temperature", Box: geometry.Box3D(0, 16, 32, 64, 80, 96)},
			Version:    12,
			Size:       5,
			State:      types.StateEncoded,
			Checksum:   0xDEADBEEFCAFE0123,
			Primary:    4,
			Replicas:   []types.ServerID{5, 6},
			Stripe:     types.StripeID{Group: 3, Seq: 41},
			ShardIndex: 2,
			Layout: &types.StripeInfo{
				ID: types.StripeID{Group: 3, Seq: 41},
				K:  2, M: 1, ShardSize: 3,
				Members: []types.StripeMember{
					{Server: 4, Index: 0},
					{Server: 5, Index: 1},
					{Server: 6, Index: 2},
				},
			},
		},
		Metas: []types.ObjectMeta{
			{ID: types.ObjectID{Var: "p", Box: geometry.Box3D(0, 0, 0, 2, 2, 2)}, Primary: 1},
			{ID: types.ObjectID{Var: "q", Box: geometry.Box3D(2, 2, 2, 4, 4, 4)}, Primary: 2, State: types.StateReplicated},
		},
		StripeInfo: &types.StripeInfo{
			ID: types.StripeID{Group: 3, Seq: 41},
			K:  3, M: 1, ShardSize: 2,
			Members: []types.StripeMember{
				{Server: 0, Index: 0},
				{Server: 1, Index: 1},
				{Server: 2, Index: 2},
				{Server: 3, Index: 3},
			},
		},
		Flag: true,
		Num:  -99,
		Sum:  0x0123456789ABCDEF,
		Err:  "sample error",
	}
}

func TestEncodeDecodeRoundTrip(t *testing.T) {
	m := sampleMessage()
	got, err := Decode(Encode(m, nil))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(m, got) {
		t.Fatalf("round trip mismatch:\n got %+v\nwant %+v", got, m)
	}
}

func TestEncodeDecodeZeroMessage(t *testing.T) {
	m := &Message{}
	got, err := Decode(Encode(m, nil))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(m, got) {
		t.Fatalf("zero message mismatch: %+v", got)
	}
}

func TestDecodeRejectsUnknownKind(t *testing.T) {
	buf := Encode(&Message{}, nil)
	buf[0] = 200
	if _, err := Decode(buf); err == nil {
		t.Fatal("unknown kind accepted")
	}
}

func TestDecodeRejectsTruncation(t *testing.T) {
	buf := Encode(sampleMessage(), nil)
	for _, cut := range []int{1, 5, len(buf) / 2, len(buf) - 1} {
		if _, err := Decode(buf[:cut]); err == nil {
			t.Fatalf("truncation at %d accepted", cut)
		}
	}
}

func TestDecodeRejectsTrailingGarbage(t *testing.T) {
	buf := Encode(&Message{Kind: MsgPing}, nil)
	buf = append(buf, 0xAB)
	if _, err := Decode(buf); err == nil {
		t.Fatal("trailing garbage accepted")
	}
}

// randMessage draws a message that exercises every wire field, optional
// sub-records and repeated ones included.
func randMessage(rng *rand.Rand) *Message {
	m := &Message{
		Kind:       Kind(rng.Intn(int(kindCount))),
		From:       types.ServerID(rng.Intn(64) - 2),
		Var:        randString(rng, 12),
		Version:    types.Version(rng.Int63n(1000)),
		Key:        randString(rng, 30),
		Stripe:     types.StripeID{Group: rng.Intn(9), Seq: rng.Uint64()},
		ShardIndex: rng.Intn(6),
		Num:        rng.Int63() - (1 << 62),
		Sum:        rng.Uint64(),
		Flag:       rng.Intn(2) == 0,
		Err:        randString(rng, 20),
	}
	if rng.Intn(2) == 0 {
		m.Box = randBox(rng)
	}
	if n := rng.Intn(64); n > 0 {
		m.Data = make([]byte, n)
		rng.Read(m.Data)
	}
	if rng.Intn(3) == 0 {
		meta := randMeta(rng)
		m.Meta = &meta
	}
	for i := rng.Intn(4); i > 0; i-- {
		m.Metas = append(m.Metas, randMeta(rng))
	}
	if rng.Intn(3) == 0 {
		m.StripeInfo = randStripe(rng)
	}
	return m
}

func randBox(rng *rand.Rand) geometry.Box {
	dims := 1 + rng.Intn(4)
	lo := make([]int64, dims)
	hi := make([]int64, dims)
	for d := range lo {
		lo[d] = int64(rng.Intn(100))
		hi[d] = lo[d] + 1 + int64(rng.Intn(100))
	}
	return geometry.Box{Lo: lo, Hi: hi}
}

func randMeta(rng *rand.Rand) types.ObjectMeta {
	meta := types.ObjectMeta{
		ID:         types.ObjectID{Var: randString(rng, 12)},
		Version:    types.Version(rng.Int63n(1000)),
		Seq:        rng.Uint64(),
		Size:       rng.Intn(1 << 22),
		State:      types.ResilienceState(rng.Intn(3)),
		Checksum:   rng.Uint64(),
		Primary:    types.ServerID(rng.Intn(64)),
		Stripe:     types.StripeID{Group: rng.Intn(9), Seq: rng.Uint64()},
		ShardIndex: rng.Intn(6),
	}
	if rng.Intn(2) == 0 {
		meta.ID.Box = randBox(rng)
	}
	for i := rng.Intn(3); i > 0; i-- {
		meta.Replicas = append(meta.Replicas, types.ServerID(rng.Intn(64)))
	}
	if meta.State == types.StateEncoded {
		meta.Layout = randStripe(rng)
	}
	return meta
}

func randStripe(rng *rand.Rand) *types.StripeInfo {
	s := &types.StripeInfo{
		ID: types.StripeID{Group: rng.Intn(9), Seq: rng.Uint64()},
		K:  1 + rng.Intn(8), M: 1 + rng.Intn(3), ShardSize: rng.Intn(1 << 20),
		Members: []types.StripeMember{},
	}
	for i := rng.Intn(6); i > 0; i-- {
		s.Members = append(s.Members, types.StripeMember{Server: types.ServerID(rng.Intn(64)), Index: i})
	}
	return s
}

func TestEncodeDecodePropertyRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	f := func() bool {
		m := randMessage(rng)
		got, err := Decode(Encode(m, nil))
		if err != nil {
			return false
		}
		return reflect.DeepEqual(m, got)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// TestObjectMetaLayoutOnTheWire: a record with and without its stripe's
// layout survives the message codec and the frame codec, alone and in a
// batch, and metaWireSize is what the layout adds to either.
func TestObjectMetaLayoutOnTheWire(t *testing.T) {
	encoded := *sampleMessage().Meta
	plain := encoded
	plain.State, plain.Layout, plain.Stripe = types.StateReplicated, nil, types.StripeID{}
	empty := len(Encode(&Message{Kind: MsgMetaUpdate}, nil))
	for name, meta := range map[string]*types.ObjectMeta{"with layout": &encoded, "without layout": &plain} {
		m := &Message{Kind: MsgMetaUpdate, Meta: meta, Metas: []types.ObjectMeta{*meta, *meta}}
		buf := Encode(m, nil)
		if got, want := len(buf)-empty, 3*metaWireSize(meta); got != want {
			t.Errorf("%s: three records encode to %d bytes, metaWireSize says %d", name, got, want)
		}
		got, err := Decode(buf)
		if err != nil || !reflect.DeepEqual(m, got) {
			t.Errorf("%s: Encode/Decode round trip: %v\n got %+v\nwant %+v", name, err, got, m)
		}
		got, err = DecodeFrame(EncodeFrame(m))
		if err != nil || !reflect.DeepEqual(m.Meta, got.Meta) || !reflect.DeepEqual(m.Metas, got.Metas) {
			t.Errorf("%s: EncodeFrame/DecodeFrame round trip: %v\n got %+v\nwant %+v", name, err, got.Meta, m.Meta)
		}
	}
	if metaWireSize(&encoded)-metaWireSize(&plain) != stripeWireSize(encoded.Layout) {
		t.Error("a layout adds something other than its own wire size to a record")
	}
}

// TestWireSizeExact holds WireSize to the codec: for every generated message
// it is the length of Encode's output, and a frame's meta segment is that
// less the Data field — the frame writer sizes its pooled scratch from it
// with no slack, and the in-process link model charges bandwidth by it.
func TestWireSizeExact(t *testing.T) {
	rng := rand.New(rand.NewSource(29))
	f := func() bool {
		m := randMessage(rng)
		full := len(Encode(m, nil))
		meta := len(Encode(m, nil, elideData))
		return m.WireSize() == full && full-meta == m.dataFieldSize()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
	for _, m := range []*Message{{}, sampleMessage()} {
		if got, want := m.WireSize(), len(Encode(m, nil)); got != want {
			t.Errorf("WireSize = %d, Encode writes %d bytes", got, want)
		}
	}
}

func randString(rng *rand.Rand, maxLen int) string {
	n := rng.Intn(maxLen)
	b := make([]byte, n)
	for i := range b {
		b[i] = byte('a' + rng.Intn(26))
	}
	return string(b)
}

func TestKindString(t *testing.T) {
	if MsgPut.String() != "Put" || MsgTokenAcquire.String() != "TokenAcquire" {
		t.Fatal("kind names wrong")
	}
	if Kind(250).String() == "" {
		t.Fatal("unknown kind string empty")
	}
	if int(kindCount) != len(kindNames) {
		t.Fatalf("kindNames has %d entries for %d kinds", len(kindNames), kindCount)
	}
}

func TestErrfAndAsError(t *testing.T) {
	resp := Errf("boom %d", 7)
	if resp.Kind != MsgErr || resp.Err != "boom 7" {
		t.Fatalf("Errf = %+v", resp)
	}
	if resp.AsError() == nil || resp.AsError().Error() != "boom 7" {
		t.Fatal("AsError lost the message")
	}
	if Ok().AsError() != nil {
		t.Fatal("Ok has an error")
	}
	var nilMsg *Message
	if nilMsg.AsError() != nil {
		t.Fatal("nil message has an error")
	}
}
