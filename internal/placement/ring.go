package placement

import (
	"corec/internal/topology"
	"corec/internal/types"
)

// Ring is the elastic placement: object primaries and directory shards are
// resolved against a live DynamicRing instead of a fixed server count, so
// the mapping follows membership changes (join/drain/leave) as they happen.
// It stays a pure function of (key, current ring state); the ring's epoch is
// the version clients use to know their cached view went stale.
type Ring struct {
	ring *topology.DynamicRing
}

var _ Placement = (*Ring)(nil)

// NewRing builds an elastic placement over the given ring.
func NewRing(r *topology.DynamicRing) *Ring {
	if r == nil {
		panic("placement: nil dynamic ring")
	}
	return &Ring{ring: r}
}

// Ring returns the underlying dynamic ring.
func (p *Ring) Ring() *topology.DynamicRing { return p.ring }

// Epoch returns the ring's current membership epoch.
func (p *Ring) Epoch() uint64 { return p.ring.Epoch() }

// Members returns the current fleet in ascending id order.
func (p *Ring) Members() []types.ServerID { return p.ring.Members() }

// NumServers implements Placement: the current member count.
func (p *Ring) NumServers() int { return p.ring.Size() }

// Primary implements Placement: the ring owner of the object key.
func (p *Ring) Primary(id types.ObjectID) types.ServerID {
	return p.ring.OwnerKey(id.Key())
}

// DirectoryShard implements Placement. The "dir:" seed decorrelates the
// metadata owner from the data owner, as in the static placements.
func (p *Ring) DirectoryShard(key string) types.ServerID {
	return p.ring.OwnerKey("dir:" + key)
}

// KeyGroup implements Placement: the shard owner plus `mirrors`
// domain-diverse ring successors — the elastic analogue of DirectoryGroup.
// Clients and servers both derive the group from the same ring state, so
// they agree without coordination.
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
