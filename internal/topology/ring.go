package topology

import (
	"fmt"
	"hash/fnv"
	"sort"
	"sync"

	"corec/internal/types"
)

// DynamicRing is the elastic counterpart of the static ring windows: a
// consistent-hash ring with virtual nodes whose membership changes at
// runtime (Join/Drain/Leave). Each change bumps an epoch counter — the
// version clients compare their cached view against — and moves only the
// arcs adjacent to the touched server's virtual nodes, so a join or leave
// relocates O(keys/n) of the key space instead of reshuffling everything.
//
// Successor selection is failure-domain aware: replica and coding targets
// walk the ring clockwise but prefer servers in cabinets not yet
// represented, so groups keep spanning distinct failure domains exactly as
// the static ring-window scheme guarantees for the fixed fleet.
type DynamicRing struct {
	mu      sync.RWMutex
	vnodes  int
	epoch   uint64
	points  []ringPoint
	domains map[types.ServerID]int
}

type ringPoint struct {
	hash  uint64
	owner types.ServerID
}

// Arc describes one ownership change produced by a membership change: the
// key-hash range (Start, End] moved from one server to another.
type Arc struct {
	Start, End uint64
	From, To   types.ServerID
}

// DefaultVirtualNodes is the per-server virtual node count. Enough to keep
// per-server load within a few percent of uniform at double-digit fleet
// sizes, small enough that joins stay cheap.
const DefaultVirtualNodes = 32

// NewDynamicRing builds an empty ring. vnodes <= 0 selects the default.
func NewDynamicRing(vnodes int) *DynamicRing {
	if vnodes <= 0 {
		vnodes = DefaultVirtualNodes
	}
	return &DynamicRing{vnodes: vnodes, domains: make(map[types.ServerID]int)}
}

// mix64 is a splitmix64-style finalizer. FNV-1a of short sequential
// strings ("vn/3/17") leaves the high bits correlated, which skews
// per-server arc shares badly at low virtual-node counts; the avalanche
// pass restores a near-uniform spread around the ring.
func mix64(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

func vnodeHash(id types.ServerID, v int) uint64 {
	h := fnv.New64a()
	fmt.Fprintf(h, "vn/%d/%d", id, v)
	return mix64(h.Sum64())
}

func keyHash(key string) uint64 {
	h := fnv.New64a()
	h.Write([]byte(key))
	return mix64(h.Sum64())
}

// Epoch returns the ring's version; it increments on every membership
// change.
func (r *DynamicRing) Epoch() uint64 {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return r.epoch
}

// Size returns the current member count.
func (r *DynamicRing) Size() int {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return len(r.domains)
}

// Contains reports whether the server is a ring member.
func (r *DynamicRing) Contains(id types.ServerID) bool {
	r.mu.RLock()
	defer r.mu.RUnlock()
	_, ok := r.domains[id]
	return ok
}

// Domain returns the failure domain recorded for a member.
func (r *DynamicRing) Domain(id types.ServerID) (int, bool) {
	r.mu.RLock()
	defer r.mu.RUnlock()
	d, ok := r.domains[id]
	return d, ok
}

// Members returns the current membership in ascending ID order.
func (r *DynamicRing) Members() []types.ServerID {
	r.mu.RLock()
	defer r.mu.RUnlock()
	out := make([]types.ServerID, 0, len(r.domains))
	for id := range r.domains {
		out = append(out, id)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// Join adds a server to the ring and returns the new epoch plus the arcs
// whose ownership moved to it. Joining a present member is a no-op (the
// current epoch and nil arcs are returned).
func (r *DynamicRing) Join(id types.ServerID, domain int) (uint64, []Arc) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, ok := r.domains[id]; ok {
		return r.epoch, nil
	}
	fresh := make([]ringPoint, 0, r.vnodes)
	for v := 0; v < r.vnodes; v++ {
		fresh = append(fresh, ringPoint{hash: vnodeHash(id, v), owner: id})
	}
	var arcs []Arc
	if len(r.points) > 0 {
		for _, p := range fresh {
			arcs = append(arcs, Arc{End: p.hash, From: r.ownerLocked(p.hash), To: id})
		}
	}
	r.points = append(r.points, fresh...)
	sort.Slice(r.points, func(i, j int) bool {
		if r.points[i].hash != r.points[j].hash {
			return r.points[i].hash < r.points[j].hash
		}
		return r.points[i].owner < r.points[j].owner
	})
	// Fill in arc starts now that predecessors are known.
	for i := range arcs {
		arcs[i].Start = r.predecessorLocked(arcs[i].End)
	}
	r.domains[id] = domain
	r.epoch++
	return r.epoch, arcs
}

// Leave removes a server and returns the new epoch plus the arcs that moved
// to the surviving successors. Removing a non-member is a no-op.
func (r *DynamicRing) Leave(id types.ServerID) (uint64, []Arc) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, ok := r.domains[id]; !ok {
		return r.epoch, nil
	}
	var removed []ringPoint
	kept := r.points[:0]
	for _, p := range r.points {
		if p.owner == id {
			removed = append(removed, p)
		} else {
			kept = append(kept, p)
		}
	}
	r.points = kept
	delete(r.domains, id)
	var arcs []Arc
	if len(r.points) > 0 {
		for _, p := range removed {
			arcs = append(arcs, Arc{
				Start: r.predecessorLocked(p.hash),
				End:   p.hash,
				From:  id,
				To:    r.ownerLocked(p.hash),
			})
		}
	}
	r.epoch++
	return r.epoch, arcs
}

// ownerLocked returns the owner of the arc containing hash h: the owner of
// the first point at or after h, wrapping.
func (r *DynamicRing) ownerLocked(h uint64) types.ServerID {
	idx := sort.Search(len(r.points), func(i int) bool { return r.points[i].hash >= h })
	if idx == len(r.points) {
		idx = 0
	}
	return r.points[idx].owner
}

// predecessorLocked returns the hash of the point preceding h (exclusive).
func (r *DynamicRing) predecessorLocked(h uint64) uint64 {
	idx := sort.Search(len(r.points), func(i int) bool { return r.points[i].hash >= h })
	if idx == 0 {
		return r.points[len(r.points)-1].hash
	}
	return r.points[idx-1].hash
}

// OwnerKey returns the member owning the key (the key's primary).
func (r *DynamicRing) OwnerKey(key string) types.ServerID {
	r.mu.RLock()
	defer r.mu.RUnlock()
	if len(r.points) == 0 {
		return 0
	}
	return r.ownerLocked(keyHash(key))
}

// successorsLocked walks the ring clockwise from the point index and
// returns up to n distinct servers (excluding `exclude` when >= 0),
// preferring servers in failure domains not yet represented.
func (r *DynamicRing) successorsLocked(startIdx int, exclude types.ServerID, n int) []types.ServerID {
	if len(r.points) == 0 || n <= 0 {
		return nil
	}
	// Candidates in clockwise first-encounter order.
	var candidates []types.ServerID
	seen := make(map[types.ServerID]bool)
	for i := 0; i < len(r.points) && len(candidates) < len(r.domains); i++ {
		p := r.points[(startIdx+i)%len(r.points)]
		if p.owner == exclude || seen[p.owner] {
			continue
		}
		seen[p.owner] = true
		candidates = append(candidates, p.owner)
	}
	// Greedy domain-diverse selection: first servers of unrepresented
	// cabinets in walk order, then fill with the remainder in walk order.
	out := make([]types.ServerID, 0, n)
	usedDomain := make(map[int]bool)
	if exclude >= 0 {
		if d, ok := r.domains[exclude]; ok {
			usedDomain[d] = true
		}
	}
	taken := make(map[types.ServerID]bool)
	for _, c := range candidates {
		if len(out) >= n {
			break
		}
		if usedDomain[r.domains[c]] {
			continue
		}
		usedDomain[r.domains[c]] = true
		taken[c] = true
		out = append(out, c)
	}
	for _, c := range candidates {
		if len(out) >= n {
			break
		}
		if !taken[c] {
			out = append(out, c)
		}
	}
	return out
}

// Targets returns n successor servers for a primary: the servers following
// the primary's first virtual node clockwise, domain-diverse, excluding the
// primary itself. This is the elastic replacement for the static
// replication/coding group window. It works even when `after` has already
// left the ring (its virtual position still anchors the walk), which keeps
// failover target selection stable during a drain.
func (r *DynamicRing) Targets(after types.ServerID, n int) []types.ServerID {
	r.mu.RLock()
	defer r.mu.RUnlock()
	if len(r.points) == 0 {
		return nil
	}
	h := vnodeHash(after, 0)
	idx := sort.Search(len(r.points), func(i int) bool { return r.points[i].hash > h })
	if idx == len(r.points) {
		idx = 0
	}
	return r.successorsLocked(idx, after, n)
}

// KeyGroup returns the n servers responsible for a key: its owner followed
// by domain-diverse ring successors. Used for directory shard groups.
func (r *DynamicRing) KeyGroup(key string, n int) []types.ServerID {
	r.mu.RLock()
	defer r.mu.RUnlock()
	if len(r.points) == 0 || n <= 0 {
		return nil
	}
	h := keyHash(key)
	idx := sort.Search(len(r.points), func(i int) bool { return r.points[i].hash >= h })
	if idx == len(r.points) {
		idx = 0
	}
	owner := r.points[idx].owner
	out := make([]types.ServerID, 0, n)
	out = append(out, owner)
	out = append(out, r.successorsLocked(idx, owner, n-1)...)
	return out
}
