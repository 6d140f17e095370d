package types

import (
	"testing"

	"corec/internal/geometry"
)

func TestObjectIDKey(t *testing.T) {
	a := ObjectID{Var: "temp", Box: geometry.Box3D(0, 0, 0, 4, 4, 4)}
	b := ObjectID{Var: "temp", Box: geometry.Box3D(0, 0, 0, 4, 4, 4)}
	if a.Key() != b.Key() {
		t.Fatal("identical IDs have different keys")
	}
	c := ObjectID{Var: "pres", Box: geometry.Box3D(0, 0, 0, 4, 4, 4)}
	if a.Key() == c.Key() {
		t.Fatal("different variables share a key")
	}
}

func TestResilienceStateString(t *testing.T) {
	if StateNone.String() != "none" || StateReplicated.String() != "replicated" || StateEncoded.String() != "encoded" {
		t.Fatal("state strings wrong")
	}
	if ResilienceState(99).String() == "" {
		t.Fatal("unknown state has empty string")
	}
}

func TestObjectClone(t *testing.T) {
	o := &Object{
		ID:      ObjectID{Var: "v", Box: geometry.Box3D(0, 0, 0, 2, 2, 2)},
		Version: 3,
		Data:    []byte{1, 2, 3},
	}
	c := o.Clone()
	c.Data[0] = 99
	if o.Data[0] != 1 {
		t.Fatal("Clone shares payload storage")
	}
	if c.Version != o.Version || c.ID.Key() != o.ID.Key() {
		t.Fatal("Clone lost identity")
	}
	if o.Size() != 3 {
		t.Fatal("Size wrong")
	}
}

func TestStripeInfoAccessors(t *testing.T) {
	s := &StripeInfo{
		ID: StripeID{Group: 1, Seq: 7},
		K:  2, M: 1,
		Members: []StripeMember{
			{Server: 0, Index: 0},
			{Server: 1, Index: 1},
			{Server: 2, Index: 2},
		},
	}
	if m, ok := s.MemberFor(2); !ok || m.Server != 2 {
		t.Fatal("MemberFor(2) failed")
	}
	if _, ok := s.MemberFor(5); ok {
		t.Fatal("MemberFor(5) found a phantom member")
	}
	if s.ID.String() != "stripe(g1#7)" {
		t.Fatalf("StripeID.String = %q", s.ID.String())
	}
}

func TestObjectMetaLocationsAndClone(t *testing.T) {
	m := &ObjectMeta{
		ID:       ObjectID{Var: "v", Box: geometry.Box3D(0, 0, 0, 2, 2, 2)},
		Primary:  3,
		Replicas: []ServerID{5, 7},
	}
	locs := m.Locations()
	if len(locs) != 3 || locs[0] != 3 || locs[1] != 5 || locs[2] != 7 {
		t.Fatalf("Locations = %v", locs)
	}
	c := m.Clone()
	c.Replicas[0] = 9
	if m.Replicas[0] != 5 {
		t.Fatal("Clone shares replica slice")
	}
	if c.Layout != nil {
		t.Fatal("Clone invented a layout")
	}
	m.State = StateEncoded
	m.Layout = &StripeInfo{ID: StripeID{Group: 1, Seq: 7}, K: 1, M: 1, Members: []StripeMember{{Server: 3}, {Server: 5, Index: 1}}}
	c = m.Clone()
	if c.Layout == m.Layout || &c.Layout.Members[0] == &m.Layout.Members[0] {
		t.Fatal("Clone shares the layout or its member array")
	}
	c.Layout.Members[1].Server = 9
	if m.Layout.Members[1].Server != 5 || c.Layout.ID != m.Layout.ID || c.Layout.K != 1 {
		t.Fatal("Clone's layout is not an independent copy")
	}
}

func TestObjectMetaNewer(t *testing.T) {
	for _, c := range []struct {
		a, b ObjectMeta
		want bool
	}{
		{ObjectMeta{Version: 2, Seq: 1}, ObjectMeta{Version: 1, Seq: 9}, true},
		{ObjectMeta{Version: 1, Seq: 9}, ObjectMeta{Version: 2, Seq: 1}, false},
		{ObjectMeta{Version: 3, Seq: 5}, ObjectMeta{Version: 3, Seq: 4}, true},
		{ObjectMeta{Version: 3, Seq: 4}, ObjectMeta{Version: 3, Seq: 5}, false},
		{ObjectMeta{Version: 3, Seq: 4}, ObjectMeta{Version: 3, Seq: 4}, false},
	} {
		if got := c.a.Newer(&c.b); got != c.want {
			t.Errorf("(v%d,s%d).Newer(v%d,s%d) = %v, want %v", c.a.Version, c.a.Seq, c.b.Version, c.b.Seq, got, c.want)
		}
	}
}
