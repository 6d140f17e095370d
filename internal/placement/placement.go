// Package placement maps objects to staging servers. Two deterministic
// mappings are provided: the primary-copy mapping (which server owns an
// object) and the directory mapping (which servers store the object's
// metadata record, see Directory). Both are pure functions of the object
// identity and the fleet, so any client or server computes them locally
// without coordination — the property DataSpaces gets from its distributed
// hash table.
//
// Every directory shard is mirrored on ring successors so that server
// failures within the resilience level never lose metadata (see
// internal/server's directory handlers).
package placement

import (
	"hash/fnv"

	"corec/internal/types"
)

// Placement maps object identities to servers.
type Placement interface {
	// Primary returns the server owning the authoritative copy of the
	// object.
	Primary(id types.ObjectID) types.ServerID
	// DirectoryShard returns the server owning the directory shard the key
	// hashes to.
	DirectoryShard(key string) types.ServerID
	// KeyGroup returns the servers hosting the key's directory shard: the
	// shard owner plus `mirrors` successors (at least one, never more than
	// the fleet has).
	KeyGroup(key string, mirrors int) []types.ServerID
	// NumServers returns the server count the placement was built for.
	NumServers() int
}

// Hash is the default placement: FNV-1a of the object key modulo the server
// count. It balances load irrespective of the write pattern (important for
// the hotspot workloads of Case 3, where spatial striping would concentrate
// hot objects on few servers).
type Hash struct {
	n int
}

var _ Placement = (*Hash)(nil)

// NewHash builds a hash placement over n servers. It panics if n <= 0 (a
// configuration bug, caught at cluster construction).
func NewHash(n int) *Hash {
	if n <= 0 {
		panic("placement: server count must be positive")
	}
	return &Hash{n: n}
}

// NumServers implements Placement.
func (p *Hash) NumServers() int { return p.n }

// Primary implements Placement.
func (p *Hash) Primary(id types.ObjectID) types.ServerID {
	return types.ServerID(hashString(id.Key()) % uint64(p.n))
}

// DirectoryShard implements Placement. A different seed decorrelates the
// directory shard from the primary so metadata load does not pile onto data
// owners.
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
