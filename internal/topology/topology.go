// Package topology models the physical organization of staging servers
// (cabinets and nodes) and derives from it the logical server ring that
// CoREC's grouped placement scheme (Section III-A of the paper) cuts into
// groups, plus the dynamic ring an elastic fleet places on.
//
// The key property: servers are reordered into a logical ring such that any
// window of up to FailureDomains() consecutive ring positions contains
// servers from pairwise-distinct failure domains. The static placement
// (placement.Hash) makes its replication and coding groups contiguous ring
// windows, so a correlated failure (one cabinet losing power) removes at
// most one member from any group.
package topology

import (
	"fmt"

	"corec/internal/types"
)

// Server describes one staging server's physical placement.
type Server struct {
	// Physical is the server's original (pre-reordering) index.
	Physical int
	// Cabinet and Node locate the server in the machine. Servers sharing a
	// cabinet form one failure domain for correlated-failure modelling.
	Cabinet int
	Node    int
}

// Topology is the immutable physical layout plus the derived logical ring.
type Topology struct {
	servers []Server // indexed by logical ServerID (ring order)
	domains int      // number of distinct cabinets
}

// New builds a topology from the physical server list and computes the
// logical ring ordering via round-robin interleaving across cabinets:
// position i of the ring takes the next unused server of cabinet i mod C.
// With equal-size cabinets this guarantees any C consecutive ring slots
// touch C distinct cabinets.
func New(servers []Server) (*Topology, error) {
	if len(servers) == 0 {
		return nil, fmt.Errorf("topology: no servers")
	}
	// Bucket by cabinet, preserving input order within a cabinet.
	buckets := make(map[int][]Server)
	var cabinets []int
	for _, s := range servers {
		if _, ok := buckets[s.Cabinet]; !ok {
			cabinets = append(cabinets, s.Cabinet)
		}
		buckets[s.Cabinet] = append(buckets[s.Cabinet], s)
	}
	ring := make([]Server, 0, len(servers))
	for len(ring) < len(servers) {
		progressed := false
		for _, c := range cabinets {
			if len(buckets[c]) > 0 {
				ring = append(ring, buckets[c][0])
				buckets[c] = buckets[c][1:]
				progressed = true
			}
		}
		if !progressed {
			break
		}
	}
	return &Topology{servers: ring, domains: len(cabinets)}, nil
}

// Uniform builds a topology of n servers spread evenly over the given
// number of cabinets (the common experimental configuration). Server i sits
// in cabinet i / ceil(n/cabinets).
func Uniform(n, cabinets int) (*Topology, error) {
	if n <= 0 {
		return nil, fmt.Errorf("topology: non-positive server count %d", n)
	}
	if cabinets <= 0 || cabinets > n {
		return nil, fmt.Errorf("topology: cabinet count %d out of range [1,%d]", cabinets, n)
	}
	perCab := (n + cabinets - 1) / cabinets
	servers := make([]Server, n)
	for i := range servers {
		servers[i] = Server{Physical: i, Cabinet: i / perCab, Node: i}
	}
	return New(servers)
}

// NumServers returns the server count.
func (t *Topology) NumServers() int { return len(t.servers) }

// FailureDomains returns the number of distinct cabinets.
func (t *Topology) FailureDomains() int { return t.domains }

// Server returns the physical description of the logical server id.
func (t *Topology) Server(id types.ServerID) Server {
	return t.servers[int(id)]
}

// RingNext returns the logical server that follows id on the ring.
func (t *Topology) RingNext(id types.ServerID) types.ServerID {
	return types.ServerID((int(id) + 1) % len(t.servers))
}

// RingWindow returns the window of size n starting at logical id start,
// wrapping around the ring.
func (t *Topology) RingWindow(start types.ServerID, n int) []types.ServerID {
	out := make([]types.ServerID, n)
	for i := 0; i < n; i++ {
		out[i] = types.ServerID((int(start) + i) % len(t.servers))
	}
	return out
}

// DistinctDomains reports whether the given logical servers all sit in
// pairwise distinct cabinets.
func (t *Topology) DistinctDomains(ids []types.ServerID) bool {
	seen := make(map[int]bool, len(ids))
	for _, id := range ids {
		c := t.servers[int(id)].Cabinet
		if seen[c] {
			return false
		}
		seen[c] = true
	}
	return true
}
