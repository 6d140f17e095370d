package placement

import (
	"fmt"
	"slices"
	"testing"

	"corec/internal/geometry"
	"corec/internal/topology"
	"corec/internal/types"
)

func mustGrouped(t *testing.T, n, replicas, width int) *Hash {
	t.Helper()
	h, err := NewGroupedHash(n, replicas, width)
	if err != nil {
		t.Fatal(err)
	}
	return h
}

func TestGroupsValidation(t *testing.T) {
	for _, c := range []struct {
		replicas, width int
		why             string
	}{
		{4, 3, "non-divisible replication size"},
		{1, 5, "non-divisible coding size"},
		{-1, 3, "zero replication size"},
		{1, 1, "coding size 1"},
		{12, 3, "replication group larger than the fleet"},
	} {
		if _, err := NewGroupedHash(12, c.replicas, c.width); err == nil {
			t.Errorf("%s accepted", c.why)
		}
	}
	if _, err := NewGroupedHash(0, 0, 0); err == nil {
		t.Error("zero servers accepted")
	}
	if _, err := NewGroupedHash(12, 1, 3); err != nil {
		t.Errorf("valid groups rejected: %v", err)
	}
	if _, err := NewGroupedHash(7, 0, 0); err != nil {
		t.Errorf("a fleet that copies and codes nothing rejected: %v", err)
	}
}

// TestGroupMembership walks the paper's twelve-server example: replication
// groups of 2 ({0,1}, {2,3}, ...) and coding groups of 3 ({0,1,2}, ...).
func TestGroupMembership(t *testing.T) {
	h := mustGrouped(t, 12, 1, 3)
	leaders, coding := map[types.ServerID]bool{}, map[string]bool{}
	for s := types.ServerID(0); s < 12; s++ {
		leaders[h.TokenLeader(s)] = true
		group := h.CodingGroup(s)
		slices.Sort(group)
		coding[fmt.Sprint(group)] = true
	}
	if len(leaders) != 6 || len(coding) != 4 {
		t.Fatalf("groups: %d replication, %d coding", len(leaders), len(coding))
	}
	if h.TokenLeader(0) != 0 || h.TokenLeader(1) != 0 || h.TokenLeader(2) != 2 {
		t.Fatal("replication group assignment wrong")
	}
	if got := h.ReplicaHolders(3); !slices.Equal(got, []types.ServerID{2}) {
		t.Fatalf("ReplicaHolders(3) = %v", got)
	}
	if got := h.CodingGroup(2); !slices.Equal(got, []types.ServerID{2, 0, 1}) {
		t.Fatalf("CodingGroup(2) = %v", got)
	}
	if got := h.CodingGroup(9); !slices.Equal(got, []types.ServerID{9, 10, 11}) {
		t.Fatalf("CodingGroup(9) = %v", got)
	}
}

func TestGroupsSpanDistinctDomains(t *testing.T) {
	// With the ring construction and 4 cabinets, both replication (2) and
	// coding (3) groups must always span distinct cabinets.
	top, err := topology.Uniform(12, 4)
	if err != nil {
		t.Fatal(err)
	}
	h := mustGrouped(t, 12, 1, 3)
	for s := types.ServerID(0); s < 12; s++ {
		if !top.DistinctDomains(append([]types.ServerID{s}, h.ReplicaHolders(s)...)) {
			t.Fatalf("replication group of %d spans a repeated cabinet", s)
		}
		if !top.DistinctDomains(h.CodingGroup(s)) {
			t.Fatalf("coding group of %d spans a repeated cabinet", s)
		}
	}
}

func TestReplicaTargets(t *testing.T) {
	h := mustGrouped(t, 12, 2, 3)
	// Server 4 is slot 1 of replication group {3,4,5}; holders walk the
	// group after it: 5, then 3.
	if got := h.ReplicaHolders(4); !slices.Equal(got, []types.ServerID{5, 3}) {
		t.Fatalf("ReplicaHolders(4) = %v", got)
	}
	if got := h.ReplicaHolders(3); !slices.Equal(got, []types.ServerID{4, 5}) {
		t.Fatalf("ReplicaHolders(3) = %v", got)
	}
	if got := NewHash(12).ReplicaHolders(3); len(got) != 0 {
		t.Fatalf("a placement that keeps no copies names holders %v", got)
	}
}

// refGroups is the static group arithmetic Hash took over, kept verbatim as
// the reference its answers must reproduce: contiguous ring windows with
// divisibility checks.
type refGroups struct {
	ReplicaSize, CodingSize, numServers int
}

func newRefGroups(n, replicaSize, codingSize int) (*refGroups, error) {
	if replicaSize < 1 || replicaSize > n {
		return nil, fmt.Errorf("replication group size %d out of range [1,%d]", replicaSize, n)
	}
	if codingSize < 2 || codingSize > n {
		return nil, fmt.Errorf("coding group size %d out of range [2,%d]", codingSize, n)
	}
	if n%replicaSize != 0 {
		return nil, fmt.Errorf("%d servers not divisible into replication groups of %d", n, replicaSize)
	}
	if n%codingSize != 0 {
		return nil, fmt.Errorf("%d servers not divisible into coding groups of %d", n, codingSize)
	}
	return &refGroups{ReplicaSize: replicaSize, CodingSize: codingSize, numServers: n}, nil
}

func (g *refGroups) ReplicationGroup(id types.ServerID) int { return int(id) / g.ReplicaSize }

func (g *refGroups) ReplicationGroupMembers(gi int) []types.ServerID {
	out := make([]types.ServerID, g.ReplicaSize)
	for i := range out {
		out[i] = types.ServerID(gi*g.ReplicaSize + i)
	}
	return out
}

func (g *refGroups) CodingGroup(id types.ServerID) int { return int(id) / g.CodingSize }

func (g *refGroups) CodingGroupMembers(gi int) []types.ServerID {
	out := make([]types.ServerID, g.CodingSize)
	for i := range out {
		out[i] = types.ServerID(gi*g.CodingSize + i)
	}
	return out
}

func (g *refGroups) ReplicaTargets(primary types.ServerID, count int) []types.ServerID {
	gi := g.ReplicationGroup(primary)
	members := g.ReplicationGroupMembers(gi)
	out := make([]types.ServerID, 0, count)
	start := int(primary) - gi*g.ReplicaSize
	for i := 1; i <= len(members)-1 && len(out) < count; i++ {
		out = append(out, members[(start+i)%len(members)])
	}
	return out
}

// refCodingMembers is the server's rotation of its static coding group.
func (g *refGroups) refCodingMembers(id types.ServerID) []types.ServerID {
	members := g.CodingGroupMembers(g.CodingGroup(id))
	start := 0
	for i, m := range members {
		if m == id {
			start = i
			break
		}
	}
	out := make([]types.ServerID, len(members))
	for i := range members {
		out[i] = members[(start+i)%len(members)]
	}
	return out
}

func (g *refGroups) refTokenLeader(id types.ServerID) types.ServerID {
	return g.ReplicationGroupMembers(g.ReplicationGroup(id))[0]
}

// TestStaticAnswersMatchGroups: for every fleet and geometry the static
// fleet ran with, the grouped hash accepts exactly the fleets the group
// arithmetic accepted and answers every question as the server and client
// did from it: replica holders, the rotated coding group, the token leader
// and the failover targets. A fleet without resilience ran with replication
// groups of one, so it names no holders and no failover targets.
func TestStaticAnswersMatchGroups(t *testing.T) {
	id := func(i int) types.ObjectID {
		return types.ObjectID{Var: "eq", Box: geometry.Box3D(int64(i)*8, 0, 0, int64(i)*8+8, 8, 8)}
	}
	for _, n := range []int{4, 8, 12, 16} {
		for _, geo := range []struct{ k, nlevel int }{{3, 1}, {2, 2}} {
			name := fmt.Sprintf("n%d/RS(%d+%d)", n, geo.k, geo.nlevel)
			width := geo.k + geo.nlevel
			ref, refErr := newRefGroups(n, geo.nlevel+1, width)
			h, err := NewGroupedHash(n, geo.nlevel, width)
			if (refErr == nil) != (err == nil) {
				t.Fatalf("%s: group arithmetic says %v, grouped hash says %v", name, refErr, err)
			}
			if err != nil {
				continue
			}
			for s := types.ServerID(0); int(s) < n; s++ {
				if got, want := h.ReplicaHolders(s), ref.ReplicaTargets(s, geo.nlevel); !slices.Equal(got, want) {
					t.Fatalf("%s: ReplicaHolders(%d) = %v, want %v", name, s, got, want)
				}
				if got, want := h.CodingGroup(s), ref.refCodingMembers(s); !slices.Equal(got, want) {
					t.Fatalf("%s: CodingGroup(%d) = %v, want %v", name, s, got, want)
				}
				if got, want := h.TokenLeader(s), ref.refTokenLeader(s); got != want {
					t.Fatalf("%s: TokenLeader(%d) = %d, want %d", name, s, got, want)
				}
			}
			for i := 0; i < 64; i++ {
				primary := h.Primary(id(i))
				if got, want := h.FailoverTargets(id(i), primary), ref.ReplicaTargets(primary, geo.nlevel); !slices.Equal(got, want) {
					t.Fatalf("%s: FailoverTargets(%v) = %v, want %v", name, id(i), got, want)
				}
			}
			if got := h.Members(); len(got) != n || got[0] != 0 || int(got[n-1]) != n-1 || h.Epoch() != 0 {
				t.Fatalf("%s: members %v at epoch %d", name, got, h.Epoch())
			}
		}
		unprotected := mustGrouped(t, n+1, 0, 0)
		for s := types.ServerID(0); int(s) <= n; s++ {
			if len(unprotected.ReplicaHolders(s)) != 0 || len(unprotected.FailoverTargets(id(int(s)), s)) != 0 || unprotected.TokenLeader(s) != s {
				t.Fatalf("n%d without resilience: server %d has holders %v, failover %v, leader %d", n+1, s,
					unprotected.ReplicaHolders(s), unprotected.FailoverTargets(id(int(s)), s), unprotected.TokenLeader(s))
			}
		}
	}
}

// TestRingAnswersMatchDynamicRing: an elastic fleet's answers are the
// dynamic ring's, as the server and client asked it — before and after
// membership moves, and for a failed primary that already left the ring.
func TestRingAnswersMatchDynamicRing(t *testing.T) {
	const nlevel, width = 1, 4
	ring := topology.NewDynamicRing(0)
	for i := 0; i < 10; i++ {
		ring.Join(types.ServerID(i), i%4)
	}
	p := NewRing(ring, nlevel, width)
	check := func(when string, gone types.ServerID) {
		t.Helper()
		if p.Epoch() != ring.Epoch() || !slices.Equal(p.Members(), ring.Members()) {
			t.Fatalf("%s: members %v at epoch %d, ring has %v at %d", when, p.Members(), p.Epoch(), ring.Members(), ring.Epoch())
		}
		for _, s := range append(ring.Members(), gone) {
			if got, want := p.ReplicaHolders(s), ring.Targets(s, nlevel); !slices.Equal(got, want) {
				t.Fatalf("%s: ReplicaHolders(%d) = %v, want %v", when, s, got, want)
			}
			if got, want := p.CodingGroup(s), append([]types.ServerID{s}, ring.Targets(s, width-1)...); !slices.Equal(got, want) {
				t.Fatalf("%s: CodingGroup(%d) = %v, want %v", when, s, got, want)
			}
			if p.TokenLeader(s) != s {
				t.Fatalf("%s: TokenLeader(%d) = %d", when, s, p.TokenLeader(s))
			}
		}
		for i := 0; i < 64; i++ {
			id := types.ObjectID{Var: "eq", Box: geometry.Box3D(int64(i)*8, 0, 0, int64(i)*8+8, 8, 8)}
			if p.Primary(id) != ring.OwnerKey(id.Key()) {
				t.Fatalf("%s: Primary(%v) = %d, ring owner %d", when, id, p.Primary(id), ring.OwnerKey(id.Key()))
			}
			for _, primary := range []types.ServerID{p.Primary(id), gone} {
				var want []types.ServerID
				if cur := ring.OwnerKey(id.Key()); cur != primary {
					want = append(want, cur)
				}
				want = append(want, ring.Targets(primary, nlevel+1)...)
				if got := p.FailoverTargets(id, primary); !slices.Equal(got, want) {
					t.Fatalf("%s: FailoverTargets(%v, %d) = %v, want %v", when, id, primary, got, want)
				}
			}
		}
	}
	check("initial", 3)
	before := p.Epoch()
	ring.Leave(3)
	ring.Join(10, 2)
	if p.Epoch() == before {
		t.Fatal("membership moved and the epoch did not")
	}
	check("after a leave and a join", 3)
}
