package ndarray

import (
	"bytes"
	"encoding/binary"
	"math/rand"
	"testing"
	"testing/quick"

	"corec/internal/geometry"
)

func TestOffsetRowMajor(t *testing.T) {
	b := geometry.Box3D(0, 0, 0, 2, 3, 4)
	// Row-major: offset = ((x*3)+y)*4+z, elemSize 1.
	if got := Offset(b, []int64{0, 0, 0}, 1); got != 0 {
		t.Fatalf("origin offset = %d", got)
	}
	if got := Offset(b, []int64{0, 0, 1}, 1); got != 1 {
		t.Fatalf("z-step offset = %d", got)
	}
	if got := Offset(b, []int64{0, 1, 0}, 1); got != 4 {
		t.Fatalf("y-step offset = %d", got)
	}
	if got := Offset(b, []int64{1, 0, 0}, 1); got != 12 {
		t.Fatalf("x-step offset = %d", got)
	}
	if got := Offset(b, []int64{1, 2, 3}, 8); got != (12+8+3)*8 {
		t.Fatalf("general offset = %d", got)
	}
}

func TestOffsetRespectsBoxOrigin(t *testing.T) {
	b := geometry.Box3D(10, 10, 10, 12, 12, 12)
	if got := Offset(b, []int64{10, 10, 10}, 1); got != 0 {
		t.Fatalf("shifted origin offset = %d", got)
	}
	if got := Offset(b, []int64{11, 11, 11}, 1); got != 7 {
		t.Fatalf("shifted corner offset = %d", got)
	}
}

func TestOffsetPanicsOutside(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("out-of-box offset did not panic")
		}
	}()
	Offset(geometry.Box3D(0, 0, 0, 2, 2, 2), []int64{2, 0, 0}, 1)
}

func TestCopyRegionExact(t *testing.T) {
	// Copy a 2x2x2 object into the matching sub-region of a 4x4x4 buffer.
	src := geometry.Box3D(1, 1, 1, 3, 3, 3)
	dst := geometry.Box3D(0, 0, 0, 4, 4, 4)
	elem := 2
	srcBuf := make([]byte, BufferSize(src, elem))
	for i := range srcBuf {
		srcBuf[i] = byte(i + 1)
	}
	dstBuf := make([]byte, BufferSize(dst, elem))
	n, err := CopyRegion(src, srcBuf, dst, dstBuf, elem)
	if err != nil {
		t.Fatal(err)
	}
	if n != 8 {
		t.Fatalf("copied %d cells, want 8", n)
	}
	// Spot check: cell (1,1,1) of dst == cell (1,1,1) of src (src offset 0).
	off := Offset(dst, []int64{1, 1, 1}, elem)
	if dstBuf[off] != srcBuf[0] || dstBuf[off+1] != srcBuf[1] {
		t.Fatal("copied element mismatch at (1,1,1)")
	}
	// Cells outside the source region stay zero.
	if dstBuf[Offset(dst, []int64{0, 0, 0}, elem)] != 0 {
		t.Fatal("copy leaked outside the intersection")
	}
}

func TestCopyRegionEqualBoxes(t *testing.T) {
	// Identical boxes take the single-copy path instead of the row walk.
	box := geometry.Box3D(2, 0, 5, 6, 3, 9)
	elem := 8
	src := make([]byte, BufferSize(box, elem))
	for i := range src {
		src[i] = byte(i*7 + 1)
	}
	dst := make([]byte, len(src))
	n, err := CopyRegion(box, src, box, dst, elem)
	if err != nil {
		t.Fatal(err)
	}
	if n != box.Volume() {
		t.Fatalf("copied %d cells, want %d", n, box.Volume())
	}
	if !bytes.Equal(dst, src) {
		t.Fatal("equal-box copy differs from source")
	}
}

func TestCopyRegionNoOverlap(t *testing.T) {
	a := geometry.Box3D(0, 0, 0, 2, 2, 2)
	b := geometry.Box3D(4, 4, 4, 6, 6, 6)
	n, err := CopyRegion(a, make([]byte, BufferSize(a, 1)), b, make([]byte, BufferSize(b, 1)), 1)
	if err != nil || n != 0 {
		t.Fatalf("n=%d err=%v, want 0,nil", n, err)
	}
}

func TestCopyRegionValidation(t *testing.T) {
	a := geometry.Box3D(0, 0, 0, 2, 2, 2)
	b2 := geometry.NewBox([]int64{0, 0}, []int64{2, 2})
	if _, err := CopyRegion(a, make([]byte, 8), b2, make([]byte, 4), 1); err == nil {
		t.Error("dimension mismatch accepted")
	}
	if _, err := CopyRegion(a, make([]byte, 7), a, make([]byte, 8), 1); err == nil {
		t.Error("short src accepted")
	}
	if _, err := CopyRegion(a, make([]byte, 8), a, make([]byte, 7), 1); err == nil {
		t.Error("short dst accepted")
	}
	if _, err := CopyRegion(a, make([]byte, 8), a, make([]byte, 8), 0); err == nil {
		t.Error("zero element size accepted")
	}
}

func TestScatterGatherRoundTripProperty(t *testing.T) {
	// Write a region into a domain buffer via CopyRegion, read it back
	// into a fresh region buffer, and compare: the canonical put/get path.
	rng := rand.New(rand.NewSource(21))
	f := func() bool {
		domain := geometry.Box3D(0, 0, 0, 8, 8, 8)
		lo := []int64{int64(rng.Intn(6)), int64(rng.Intn(6)), int64(rng.Intn(6))}
		hi := []int64{lo[0] + 1 + int64(rng.Intn(int(8-lo[0]-1)+1)), lo[1] + 1 + int64(rng.Intn(int(8-lo[1]-1)+1)), lo[2] + 1 + int64(rng.Intn(int(8-lo[2]-1)+1))}
		region := geometry.Box{Lo: lo, Hi: hi}
		elem := 1 + rng.Intn(8)
		orig := make([]byte, BufferSize(region, elem))
		rng.Read(orig)
		domainBuf := make([]byte, BufferSize(domain, elem))
		if _, err := CopyRegion(region, orig, domain, domainBuf, elem); err != nil {
			return false
		}
		back := make([]byte, BufferSize(region, elem))
		if _, err := CopyRegion(domain, domainBuf, region, back, elem); err != nil {
			return false
		}
		return bytes.Equal(orig, back)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func TestCopyRegionAssemblesFromPieces(t *testing.T) {
	// Partition a domain into blocks, fill each block buffer with its
	// linear index, scatter all into the full buffer, verify every cell.
	domain := geometry.Box3D(0, 0, 0, 4, 4, 4)
	blocks, err := geometry.GridDecompose(domain, []int64{2, 2, 2})
	if err != nil {
		t.Fatal(err)
	}
	elem := 4
	full := make([]byte, BufferSize(domain, elem))
	for bi, blk := range blocks {
		buf := make([]byte, BufferSize(blk, elem))
		var pattern [4]byte
		binary.LittleEndian.PutUint32(pattern[:], uint32(bi+1))
		if err := Fill(blk, buf, pattern[:]); err != nil {
			t.Fatal(err)
		}
		if _, err := CopyRegion(blk, buf, domain, full, elem); err != nil {
			t.Fatal(err)
		}
	}
	for bi, blk := range blocks {
		for x := blk.Lo[0]; x < blk.Hi[0]; x++ {
			off := Offset(domain, []int64{x, blk.Lo[1], blk.Lo[2]}, elem)
			if got := binary.LittleEndian.Uint32(full[off:]); got != uint32(bi+1) {
				t.Fatalf("cell of block %d holds %d", bi, got)
			}
		}
	}
}

func TestFillValidation(t *testing.T) {
	b := geometry.Box3D(0, 0, 0, 2, 2, 2)
	if err := Fill(b, make([]byte, 8), nil); err == nil {
		t.Error("empty pattern accepted")
	}
	if err := Fill(b, make([]byte, 7), []byte{1}); err == nil {
		t.Error("short buffer accepted")
	}
	buf := make([]byte, 16)
	if err := Fill(b, buf, []byte{0xAA, 0xBB}); err != nil {
		t.Fatal(err)
	}
	if buf[0] != 0xAA || buf[1] != 0xBB || buf[14] != 0xAA || buf[15] != 0xBB {
		t.Fatal("pattern not stamped")
	}
}

func BenchmarkCopyRegion64(b *testing.B) {
	domain := geometry.Box3D(0, 0, 0, 64, 64, 64)
	region := geometry.Box3D(16, 16, 16, 48, 48, 48)
	elem := 8
	src := make([]byte, BufferSize(region, elem))
	dst := make([]byte, BufferSize(domain, elem))
	b.SetBytes(int64(len(src)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := CopyRegion(region, src, domain, dst, elem); err != nil {
			b.Fatal(err)
		}
	}
}
