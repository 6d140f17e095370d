package placement

import (
	"slices"
	"strconv"

	"corec/internal/geometry"
	"corec/internal/types"
)

// dirCells is the number of cells the directory cuts the domain into (the
// partitioner rounds it up to a power of two on uneven domains). More cells
// spread the records of one variable over more shard groups; fewer cells
// let a large object register in one group instead of several.
const dirCells = 64

// overflowCell indexes the records the tiling cannot place: boxes whose
// dimensionality is not the domain's share one cell per variable.
const overflowCell = -1

// Directory is the one mapping from a directory record to the servers that
// host it. Object records are placed by where their box is, not by the hash
// of their key: the domain is cut into cells with the partitioner's own
// tiling (Algorithm 1 applied to the domain), a record registers in the
// shard group of every cell its box touches, and a (variable, region) query
// asks only the groups of the cells the region touches — one group for a
// tile-aligned read, at any fleet size. Servers, clients, the migrator and
// recovery all resolve records through it, so they agree by construction.
type Directory struct {
	place   Placement
	mirrors int
	domain  geometry.Box
	cells   []geometry.Box
}

// NewDirectory cuts domain into directory cells over the given placement;
// every shard group holds the owner plus `mirrors` successors. It panics on
// an invalid domain (a configuration bug, caught at cluster construction).
func NewDirectory(p Placement, mirrors int, domain geometry.Box) *Directory {
	if p == nil || !domain.Valid() {
		panic("placement: directory needs a placement and a valid domain")
	}
	cells, err := geometry.FitPartition(domain, (domain.Volume()+dirCells-1)/dirCells)
	if err != nil {
		panic("placement: directory cells: " + err.Error())
	}
	return &Directory{place: p, mirrors: mirrors, domain: domain, cells: cells}
}

// Cells returns the indices of the cells box touches, nil for an invalid
// box. The box is clamped to the domain first — each coordinate moves to the
// nearest one inside — so a region beyond the boundary registers in, and is
// looked up in, the boundary cells. Clamping is monotone per dimension:
// two boxes that intersect still share a point, and so a cell, afterwards.
func (d *Directory) Cells(box geometry.Box) []int {
	if !box.Valid() {
		return nil
	}
	if box.Dims() != d.domain.Dims() {
		return []int{overflowCell}
	}
	var lo, hi [geometry.MaxDims]int64
	for dim := range box.Lo {
		first, last := d.domain.Lo[dim], d.domain.Hi[dim]-1
		lo[dim] = min(max(box.Lo[dim], first), last)
		hi[dim] = min(max(box.Hi[dim]-1, first), last) + 1
	}
	clamped := geometry.Box{Lo: lo[:box.Dims()], Hi: hi[:box.Dims()]}
	var out []int
	for i, cell := range d.cells {
		if cell.Intersects(clamped) {
			out = append(out, i)
		}
	}
	return out
}

// Group returns the shard group of one cell of the variable: the servers
// mirroring the records of the variable's objects that touch the cell.
func (d *Directory) Group(name string, cell int) []types.ServerID {
	return d.place.KeyGroup(name+"#"+strconv.Itoa(cell), d.mirrors)
}

// Servers returns the servers hosting the directory records of the
// variable's objects that touch box: the union of the shard groups of the
// cells box touches, in cell order. An object's record lives on Servers of
// its own box, and a region query that asks Servers of the region meets
// every intersecting record. It returns nil for an invalid box, which names
// no region: such a query must ask the whole fleet.
func (d *Directory) Servers(name string, box geometry.Box) []types.ServerID {
	var out []types.ServerID
	for _, cell := range d.Cells(box) {
		group := d.Group(name, cell)
		if out == nil {
			out = group
			continue
		}
		for _, s := range group {
			if !slices.Contains(out, s) {
				out = append(out, s)
			}
		}
	}
	return out
}
