package placement

import (
	"corec/internal/topology"
	"corec/internal/types"
)

// Ring is the elastic placement: object primaries, groups and directory
// shards are resolved against a live DynamicRing instead of a fixed server
// count, so the mapping follows membership changes (join/drain/leave) as
// they happen. It stays a pure function of (key, current ring state); the
// ring's epoch is the version clients use to know their cached view went
// stale.
type Ring struct {
	ring     *topology.DynamicRing
	replicas int // copies besides the primary
	width    int // servers a stripe spans
}

var _ Placement = (*Ring)(nil)

// NewRing builds an elastic placement over the given ring whose objects keep
// `replicas` copies besides the primary and whose stripes span `width`
// servers.
func NewRing(r *topology.DynamicRing, replicas, width int) *Ring {
	if r == nil {
		panic("placement: nil dynamic ring")
	}
	return &Ring{ring: r, replicas: replicas, width: width}
}

// Epoch implements Placement: the ring's membership epoch.
func (p *Ring) Epoch() uint64 { return p.ring.Epoch() }

// Members implements Placement: the current ring members.
func (p *Ring) Members() []types.ServerID { return p.ring.Members() }

// Primary implements Placement: the ring owner of the object key.
func (p *Ring) Primary(id types.ObjectID) types.ServerID {
	return p.ring.OwnerKey(id.Key())
}

// KeyGroup implements Placement: the shard owner plus `mirrors`
// domain-diverse ring successors — the elastic analogue of DirectoryGroup.
// The "dir:" seed decorrelates the metadata owner from the data owner, as
// in Hash. Clients and servers both derive the group from the same ring
// state, so they agree without coordination.
func (p *Ring) KeyGroup(key string, mirrors int) []types.ServerID {
	if mirrors < 1 {
		mirrors = 1
	}
	n := p.ring.Size()
	if mirrors >= n {
		mirrors = n - 1
	}
	return p.ring.KeyGroup("dir:"+key, mirrors+1)
}

// ReplicaHolders implements Placement: the primary's domain-diverse ring
// successors.
func (p *Ring) ReplicaHolders(primary types.ServerID) []types.ServerID {
	return p.ring.Targets(primary, p.replicas)
}

// CodingGroup implements Placement: the primary plus width-1 domain-diverse
// ring successors.
func (p *Ring) CodingGroup(primary types.ServerID) []types.ServerID {
	out := make([]types.ServerID, 0, p.width)
	out = append(out, primary)
	return append(out, p.ring.Targets(primary, p.width-1)...)
}

// TokenLeader implements Placement: an elastic fleet has no static
// replication groups to elect a leader from, so each server arbitrates its
// own encodes. The token is a conflict-avoidance optimization, so
// self-granting stays correct.
func (p *Ring) TokenLeader(primary types.ServerID) types.ServerID { return primary }

// FailoverTargets implements Placement: the key's current owner first — a
// drain or gossip eviction may already have moved its arc — then the failed
// primary's ring successors, which stay stable after it left the ring.
func (p *Ring) FailoverTargets(id types.ObjectID, primary types.ServerID) []types.ServerID {
	out := make([]types.ServerID, 0, p.replicas+2)
	if cur := p.Primary(id); cur != primary {
		out = append(out, cur)
	}
	return append(out, p.ring.Targets(primary, p.replicas+1)...)
}
