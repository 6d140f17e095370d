// Package placement answers every "which servers" question of CoREC's
// grouped placement scheme (Section III-A of the paper): which server owns
// an object (its primary), which servers hold its replicas, which servers a
// stripe spans, who arbitrates an encoding token, where a failed put goes
// next and which servers host a directory record (see Directory). Every
// answer is a pure function of the object identity and the fleet, so any
// client or server computes it locally without coordination — the property
// DataSpaces gets from its distributed hash table.
//
// Two placements implement it: Hash for a static fleet, whose groups are
// contiguous windows of the logical server ring, and Ring for an elastic
// fleet, which answers from a live topology.DynamicRing. Servers and clients
// hold a Placement and never learn which kind of fleet they run in.
//
// Every directory shard is mirrored on ring successors so that server
// failures within the resilience level never lose metadata (see
// internal/server's directory handlers).
package placement

import (
	"fmt"
	"hash/fnv"

	"corec/internal/types"
)

// Placement maps object identities to servers.
type Placement interface {
	// Primary returns the server owning the authoritative copy of the
	// object.
	Primary(id types.ObjectID) types.ServerID
	// KeyGroup returns the servers hosting the key's directory shard: the
	// shard owner plus `mirrors` successors (at least one, never more than
	// the fleet has).
	KeyGroup(key string, mirrors int) []types.ServerID
	// ReplicaHolders returns the servers holding copies of the objects the
	// primary owns.
	ReplicaHolders(primary types.ServerID) []types.ServerID
	// CodingGroup returns the servers a stripe the primary mints spans, in
	// stripe order: the primary first, so it keeps data shard 0.
	CodingGroup(primary types.ServerID) []types.ServerID
	// TokenLeader returns the server granting the primary's encoding token.
	TokenLeader(primary types.ServerID) types.ServerID
	// FailoverTargets returns the servers a put of the object tries, in
	// order, once its placed primary stayed unreachable.
	FailoverTargets(id types.ObjectID, primary types.ServerID) []types.ServerID
	// Members returns the fleet in ascending id order. The slice may be
	// shared: callers must not modify it.
	Members() []types.ServerID
	// Epoch returns the version of the membership behind the answers: it
	// moves whenever an answer may have changed.
	Epoch() uint64
}

// Hash is the static fleet's placement: FNV-1a of the object key modulo the
// server count. It balances load irrespective of the write pattern
// (important for the hotspot workloads of Case 3, where spatial striping
// would concentrate hot objects on few servers). Its groups tile the logical
// server ring: replication groups of replicas+1 and coding groups of width
// consecutive servers, so on a topology.Uniform ring every group spans
// distinct cabinets (the paper's twelve-server example uses replication
// groups of 2 and coding groups of 3). Its membership never changes, so its
// epoch stays 0.
type Hash struct {
	n        int
	replicas int // copies besides the primary
	width    int // servers per coding group; 0: no coding groups
	members  []types.ServerID
}

var _ Placement = (*Hash)(nil)

// NewHash builds a hash placement over n servers with no replicas and no
// coding groups. It panics if n <= 0 (a configuration bug, caught at cluster
// construction).
func NewHash(n int) *Hash {
	if n <= 0 {
		panic("placement: server count must be positive")
	}
	h := &Hash{n: n, members: make([]types.ServerID, n)}
	for i := range h.members {
		h.members[i] = types.ServerID(i)
	}
	return h
}

// NewGroupedHash builds a hash placement over n servers whose objects keep
// `replicas` copies besides the primary and whose stripes span `width`
// servers (0: nothing is coded). The groups must tile the ring exactly, so
// n must be divisible by both replicas+1 and width.
func NewGroupedHash(n, replicas, width int) (*Hash, error) {
	if n <= 0 {
		return nil, fmt.Errorf("placement: non-positive server count %d", n)
	}
	if replicas < 0 || replicas+1 > n {
		return nil, fmt.Errorf("placement: replication group size %d out of range [1,%d]", replicas+1, n)
	}
	if width != 0 && (width < 2 || width > n) {
		return nil, fmt.Errorf("placement: coding group size %d out of range [2,%d]", width, n)
	}
	if n%(replicas+1) != 0 {
		return nil, fmt.Errorf("placement: %d servers not divisible into replication groups of %d", n, replicas+1)
	}
	if width != 0 && n%width != 0 {
		return nil, fmt.Errorf("placement: %d servers not divisible into coding groups of %d", n, width)
	}
	h := NewHash(n)
	h.replicas, h.width = replicas, width
	return h, nil
}

// Primary implements Placement.
func (p *Hash) Primary(id types.ObjectID) types.ServerID {
	return types.ServerID(hashString(id.Key()) % uint64(p.n))
}

// DirectoryShard returns the server owning the directory shard the key
// hashes to. A different seed decorrelates it from the primary so metadata
// load does not pile onto data owners.
func (p *Hash) DirectoryShard(key string) types.ServerID {
	h := fnv.New64a()
	h.Write([]byte("dir:"))
	h.Write([]byte(key))
	return types.ServerID(h.Sum64() % uint64(p.n))
}

// KeyGroup implements Placement: the shard owner and its ring successors.
func (p *Hash) KeyGroup(key string, mirrors int) []types.ServerID {
	return DirectoryGroup(p.DirectoryShard(key), p.n, mirrors)
}

// window returns the size-long ring window holding s, rotated to start at s.
func window(s types.ServerID, size int) []types.ServerID {
	first := int(s) / size * size
	out := make([]types.ServerID, size)
	for i := range out {
		out[i] = types.ServerID(first + (int(s)-first+i)%size)
	}
	return out
}

// ReplicaHolders implements Placement: the other members of the primary's
// replication group, in ring order starting after it.
func (p *Hash) ReplicaHolders(primary types.ServerID) []types.ServerID {
	return window(primary, p.replicas+1)[1:]
}

// CodingGroup implements Placement: the primary's coding group rotated to
// start at the primary (nil without coding groups).
func (p *Hash) CodingGroup(primary types.ServerID) []types.ServerID {
	if p.width == 0 {
		return nil
	}
	return window(primary, p.width)
}

// TokenLeader implements Placement: the first server of the primary's
// replication group.
func (p *Hash) TokenLeader(primary types.ServerID) types.ServerID {
	return types.ServerID(int(primary) / (p.replicas + 1) * (p.replicas + 1))
}

// FailoverTargets implements Placement: the primary's replica holders, which
// hold the object's copies already.
func (p *Hash) FailoverTargets(_ types.ObjectID, primary types.ServerID) []types.ServerID {
	return p.ReplicaHolders(primary)
}

// Members implements Placement: servers 0..n-1.
func (p *Hash) Members() []types.ServerID { return p.members }

// Epoch implements Placement: a static fleet's membership never moves.
func (p *Hash) Epoch() uint64 { return 0 }

func hashString(s string) uint64 {
	h := fnv.New64a()
	h.Write([]byte(s))
	return h.Sum64()
}

// DirectoryGroup returns the servers hosting a directory record: the
// primary shard plus `mirrors` ring successors (clamped so the group never
// exceeds the server count). Mirroring the directory to NLevel successors
// gives metadata the same failure tolerance as the data it describes.
func DirectoryGroup(shard types.ServerID, n, mirrors int) []types.ServerID {
	if mirrors < 1 {
		mirrors = 1
	}
	if mirrors >= n {
		mirrors = n - 1
	}
	out := make([]types.ServerID, 0, mirrors+1)
	for i := 0; i <= mirrors; i++ {
		out = append(out, types.ServerID((int(shard)+i)%n))
	}
	return out
}
