// Package ndarray implements row-major n-dimensional array layout and the
// strided region copies the staging client uses to scatter object payloads
// into query buffers (and to extract sub-regions when writing). An array
// over box B with element size E stores the cell at point p at byte offset
// E * rowMajorIndex(p - B.Lo, B extents).
package ndarray

import (
	"fmt"

	"corec/internal/geometry"
)

// Offset returns the byte offset of point p within an array laid out over
// box b with elemSize-byte elements. It panics if p is outside b (a logic
// error in the caller).
func Offset(b geometry.Box, p []int64, elemSize int) int {
	if !b.ContainsPoint(p) {
		panic(fmt.Sprintf("ndarray: point %v outside box %v", p, b))
	}
	idx := int64(0)
	for d := 0; d < b.Dims(); d++ {
		idx = idx*b.Size(d) + (p[d] - b.Lo[d])
	}
	return int(idx) * elemSize
}

// BufferSize returns the byte size of an array over box b.
func BufferSize(b geometry.Box, elemSize int) int {
	return int(b.Volume()) * elemSize
}

// CopyRegion copies the intersection of srcBox and dstBox from src (laid
// out over srcBox) into dst (laid out over dstBox). Returns the number of
// cells copied (zero when the boxes do not overlap). Both buffers must be
// exactly BufferSize of their boxes.
func CopyRegion(srcBox geometry.Box, src []byte, dstBox geometry.Box, dst []byte, elemSize int) (int64, error) {
	if srcBox.Dims() != dstBox.Dims() {
		return 0, fmt.Errorf("ndarray: dimension mismatch %d vs %d", srcBox.Dims(), dstBox.Dims())
	}
	if elemSize <= 0 {
		return 0, fmt.Errorf("ndarray: non-positive element size %d", elemSize)
	}
	if len(src) != BufferSize(srcBox, elemSize) {
		return 0, fmt.Errorf("ndarray: src buffer is %d bytes, want %d", len(src), BufferSize(srcBox, elemSize))
	}
	if len(dst) != BufferSize(dstBox, elemSize) {
		return 0, fmt.Errorf("ndarray: dst buffer is %d bytes, want %d", len(dst), BufferSize(dstBox, elemSize))
	}
	if srcBox.Equal(dstBox) {
		// A get of exactly one stored object: both layouts are the same, so
		// the row walk would issue thousands of short copies for one long one.
		copy(dst, src)
		return srcBox.Volume(), nil
	}
	inter, ok := srcBox.Intersection(dstBox)
	if !ok {
		return 0, nil
	}
	copyRec(srcBox, src, dstBox, dst, inter, make([]int64, inter.Dims()), 0, elemSize)
	return inter.Volume(), nil
}

// copyRec walks the intersection recursively; the innermost dimension is
// copied as one contiguous run per row.
func copyRec(srcBox geometry.Box, src []byte, dstBox geometry.Box, dst []byte, inter geometry.Box, p []int64, dim, elemSize int) {
	last := inter.Dims() - 1
	if dim == last {
		p[last] = inter.Lo[last]
		run := int(inter.Size(last)) * elemSize
		so := Offset(srcBox, p, elemSize)
		do := Offset(dstBox, p, elemSize)
		copy(dst[do:do+run], src[so:so+run])
		return
	}
	for v := inter.Lo[dim]; v < inter.Hi[dim]; v++ {
		p[dim] = v
		copyRec(srcBox, src, dstBox, dst, inter, p, dim+1, elemSize)
	}
}

// Fill writes the given elemSize-byte pattern to every cell of buf (laid
// out over box b). Used by workload generators to stamp recognizable
// payloads.
func Fill(b geometry.Box, buf []byte, pattern []byte) error {
	if len(pattern) == 0 {
		return fmt.Errorf("ndarray: empty pattern")
	}
	if len(buf) != int(b.Volume())*len(pattern) {
		return fmt.Errorf("ndarray: buffer is %d bytes, want %d", len(buf), int(b.Volume())*len(pattern))
	}
	for off := 0; off < len(buf); off += len(pattern) {
		copy(buf[off:], pattern)
	}
	return nil
}
