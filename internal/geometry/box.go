// Package geometry provides the n-dimensional box algebra that underlies
// the staging service's shared-space abstraction: objects are axis-aligned
// regions of a discretized physical domain (a mesh or grid), puts and gets
// are expressed as bounding boxes, and the data-fitting component partitions
// oversized objects geometrically (Algorithm 1 of the paper).
//
// Boxes use inclusive lower and exclusive upper corners, so a box covering
// grid cells 0..3 in one dimension is {Lo: [0], Hi: [4]} with Size 4.
package geometry

import (
	"fmt"
	"strconv"
)

// MaxDims caps the supported dimensionality. Scientific staging workloads
// are 1-4 dimensional (space plus optional field index); 8 leaves headroom.
const MaxDims = 8

// Box is an axis-aligned n-dimensional region: Lo inclusive, Hi exclusive.
// A Box is valid when len(Lo) == len(Hi), 1 <= dims <= MaxDims and
// Lo[d] < Hi[d] for every dimension d.
type Box struct {
	Lo []int64
	Hi []int64
}

// NewBox constructs a box from corner slices, copying them.
func NewBox(lo, hi []int64) Box {
	return Box{Lo: append([]int64(nil), lo...), Hi: append([]int64(nil), hi...)}
}

// Box3D is a convenience constructor for the 3-dimensional domains used by
// the paper's synthetic and S3D experiments.
func Box3D(x0, y0, z0, x1, y1, z1 int64) Box {
	return Box{Lo: []int64{x0, y0, z0}, Hi: []int64{x1, y1, z1}}
}

// Dims returns the dimensionality of the box.
func (b Box) Dims() int { return len(b.Lo) }

// Valid reports whether the box is well-formed and non-empty.
func (b Box) Valid() bool {
	if len(b.Lo) != len(b.Hi) || len(b.Lo) == 0 || len(b.Lo) > MaxDims {
		return false
	}
	for d := range b.Lo {
		if b.Lo[d] >= b.Hi[d] {
			return false
		}
	}
	return true
}

// Size returns the extent of dimension d.
func (b Box) Size(d int) int64 { return b.Hi[d] - b.Lo[d] }

// Volume returns the number of grid cells the box covers.
func (b Box) Volume() int64 {
	v := int64(1)
	for d := range b.Lo {
		v *= b.Size(d)
	}
	return v
}

// Clone returns a deep copy of the box.
func (b Box) Clone() Box { return NewBox(b.Lo, b.Hi) }

// Equal reports whether two boxes cover exactly the same region.
func (b Box) Equal(o Box) bool {
	if len(b.Lo) != len(o.Lo) {
		return false
	}
	for d := range b.Lo {
		if b.Lo[d] != o.Lo[d] || b.Hi[d] != o.Hi[d] {
			return false
		}
	}
	return true
}

// Contains reports whether o lies entirely within b.
func (b Box) Contains(o Box) bool {
	if len(b.Lo) != len(o.Lo) {
		return false
	}
	for d := range b.Lo {
		if o.Lo[d] < b.Lo[d] || o.Hi[d] > b.Hi[d] {
			return false
		}
	}
	return true
}

// ContainsPoint reports whether the grid cell at p lies within b.
func (b Box) ContainsPoint(p []int64) bool {
	if len(p) != len(b.Lo) {
		return false
	}
	for d := range p {
		if p[d] < b.Lo[d] || p[d] >= b.Hi[d] {
			return false
		}
	}
	return true
}

// Intersects reports whether b and o share at least one grid cell.
func (b Box) Intersects(o Box) bool {
	if len(b.Lo) != len(o.Lo) {
		return false
	}
	for d := range b.Lo {
		if b.Lo[d] >= o.Hi[d] || o.Lo[d] >= b.Hi[d] {
			return false
		}
	}
	return true
}

// Intersection returns the overlapping region of b and o and whether it is
// non-empty.
func (b Box) Intersection(o Box) (Box, bool) {
	if !b.Intersects(o) {
		return Box{}, false
	}
	lo := make([]int64, len(b.Lo))
	hi := make([]int64, len(b.Lo))
	for d := range b.Lo {
		lo[d] = max64(b.Lo[d], o.Lo[d])
		hi[d] = min64(b.Hi[d], o.Hi[d])
	}
	return Box{Lo: lo, Hi: hi}, true
}

// Union returns the smallest box containing both b and o.
func (b Box) Union(o Box) Box {
	lo := make([]int64, len(b.Lo))
	hi := make([]int64, len(b.Lo))
	for d := range b.Lo {
		lo[d] = min64(b.Lo[d], o.Lo[d])
		hi[d] = max64(b.Hi[d], o.Hi[d])
	}
	return Box{Lo: lo, Hi: hi}
}

// Expand returns the box grown by r cells in every direction (clamped to
// within bounds if bounds is valid). It is used by the classifier's spatial
// locality rule: neighbours of a hot region within radius r are hot too.
func (b Box) Expand(r int64, bounds Box) Box {
	lo := make([]int64, len(b.Lo))
	hi := make([]int64, len(b.Lo))
	for d := range b.Lo {
		lo[d] = b.Lo[d] - r
		hi[d] = b.Hi[d] + r
		if bounds.Valid() {
			lo[d] = max64(lo[d], bounds.Lo[d])
			hi[d] = min64(hi[d], bounds.Hi[d])
		}
	}
	return Box{Lo: lo, Hi: hi}
}

// LongestDim returns the dimension with the greatest extent, breaking ties
// toward the lowest dimension index (matching Algorithm 1's "maximum
// boundary size" rule deterministically).
func (b Box) LongestDim() int {
	best := 0
	for d := 1; d < len(b.Lo); d++ {
		if b.Size(d) > b.Size(best) {
			best = d
		}
	}
	return best
}

// SplitHalf splits the box into two halves along dimension d, the first half
// taking the lower ceil(size/2) cells. It panics if the box has extent 1 in
// that dimension.
func (b Box) SplitHalf(d int) (Box, Box) {
	if b.Size(d) < 2 {
		panic(fmt.Sprintf("geometry: cannot split box %v along dim %d with extent %d", b, d, b.Size(d)))
	}
	mid := b.Lo[d] + (b.Size(d)+1)/2
	a, c := b.Clone(), b.Clone()
	a.Hi[d] = mid
	c.Lo[d] = mid
	return a, c
}

// String renders the box as, e.g., "[(0,0,0)-(4,4,4))". The result is the
// box's directory and wire identity (see Key), so it is built in one buffer
// rather than through fmt.
func (b Box) String() string {
	var scratch [64]byte // a 3-D box of five-digit coordinates fits; longer ones spill to the heap
	buf := append(scratch[:0], "[("...)
	buf = appendCoords(buf, b.Lo)
	buf = append(buf, ")-("...)
	buf = appendCoords(buf, b.Hi)
	buf = append(buf, "))"...)
	return string(buf)
}

func appendCoords(buf []byte, coords []int64) []byte {
	for d, v := range coords {
		if d > 0 {
			buf = append(buf, ',')
		}
		buf = strconv.AppendInt(buf, v, 10)
	}
	return buf
}

// Key returns a canonical string identity for the box, usable as a map key.
func (b Box) Key() string { return b.String() }

func max64(a, b int64) int64 {
	if a > b {
		return a
	}
	return b
}

func min64(a, b int64) int64 {
	if a < b {
		return a
	}
	return b
}
