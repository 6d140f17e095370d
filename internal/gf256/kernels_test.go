package gf256

import (
	"bytes"
	"math/rand"
	"testing"
)

// kernelIDs enumerates every implementation behind the dispatch point
// (KernelSIMD only where the platform registered it). It is a function, not
// a package variable: the amd64 kernel registers in an init function, and
// those run after package variables are initialised.
func kernelIDs() []KernelID {
	ids := []KernelID{KernelTable, KernelRef}
	if SIMDAvailable() {
		ids = append(ids, KernelSIMD)
	}
	return ids
}

// TestKernelsDifferentialExhaustiveCoefficients is the differential
// property test of the dispatch point: for every kernel implementation,
// every coefficient c (all 256), seeded-random slices and every unaligned
// tail length 1..64, MulSlice/MulAddSlice must agree byte-exactly with the
// scalar reference kernel. The base length exceeds the SIMD kernel's
// 16-byte block and the fused kernels' stride so both the unrolled body
// and the tail loop are exercised at every alignment.
func TestKernelsDifferentialExhaustiveCoefficients(t *testing.T) {
	rng := rand.New(rand.NewSource(61))
	base := make([]byte, 256+64)
	acc := make([]byte, len(base))
	rng.Read(base)
	rng.Read(acc)
	for _, id := range kernelIDs() {
		restore := SelectKernel(id)
		for c := 0; c < 256; c++ {
			for _, n := range []int{1, 2, 3, 31, 64, 256 + 63} {
				src := base[:n]
				want := make([]byte, n)
				got := make([]byte, n)
				MulSliceRef(byte(c), src, want)
				MulSlice(byte(c), src, got)
				if !bytes.Equal(want, got) {
					t.Fatalf("kernel %v: MulSlice differs at c=%d n=%d", id, c, n)
				}
				copy(want, acc[:n])
				copy(got, acc[:n])
				MulAddSliceRef(byte(c), src, want)
				MulAddSlice(byte(c), src, got)
				if !bytes.Equal(want, got) {
					t.Fatalf("kernel %v: MulAddSlice differs at c=%d n=%d", id, c, n)
				}
			}
		}
		restore()
	}
	if got := Kernel(); got != KernelTable && got != KernelSIMD {
		t.Fatalf("kernel not restored to platform default: %v", got)
	}
}

// TestKernelsDifferentialUnalignedTails sweeps every tail length 1..64
// with fresh seeded-random data per length, under every kernel.
func TestKernelsDifferentialUnalignedTails(t *testing.T) {
	rng := rand.New(rand.NewSource(62))
	for _, id := range kernelIDs() {
		restore := SelectKernel(id)
		for n := 1; n <= 64; n++ {
			src := make([]byte, n)
			acc := make([]byte, n)
			rng.Read(src)
			rng.Read(acc)
			c := byte(2 + rng.Intn(254)) // dispatch path: c >= 2
			want := make([]byte, n)
			got := make([]byte, n)
			MulSliceRef(c, src, want)
			MulSlice(c, src, got)
			if !bytes.Equal(want, got) {
				t.Fatalf("kernel %v: MulSlice differs at c=%d n=%d", id, c, n)
			}
			copy(want, acc)
			copy(got, acc)
			MulAddSliceRef(c, src, want)
			MulAddSlice(c, src, got)
			if !bytes.Equal(want, got) {
				t.Fatalf("kernel %v: MulAddSlice differs at c=%d n=%d", id, c, n)
			}
		}
		restore()
	}
}

// TestFusedKernelsMatchComposedReference checks MulAddSlice2/4 against the
// composition of single-coefficient reference passes, over every
// coefficient value (rotated through the lanes so each lane sees all 256,
// including the 0 and 1 specials) and unaligned tail lengths 1..64.
func TestFusedKernelsMatchComposedReference(t *testing.T) {
	for _, id := range kernelIDs() {
		restore := SelectKernel(id)
		t.Run(id.String(), testFusedKernelsMatchComposedReference)
		restore()
	}
}

func testFusedKernelsMatchComposedReference(t *testing.T) {
	rng := rand.New(rand.NewSource(63))
	srcs := make([][]byte, 4)
	for i := range srcs {
		srcs[i] = make([]byte, 256+64)
		rng.Read(srcs[i])
	}
	acc := make([]byte, 256+64)
	rng.Read(acc)
	for c := 0; c < 256; c++ {
		cs := [4]byte{byte(c), byte(c + 85), byte(c + 170), byte(255 - c)}
		n := 1 + (c*67)%(len(acc)-1) // deterministic sweep of lengths incl. 1..64 tails
		want := append([]byte(nil), acc[:n]...)
		for lane := 0; lane < 4; lane++ {
			MulAddSliceRef(cs[lane], srcs[lane][:n], want)
		}
		got := append([]byte(nil), acc[:n]...)
		MulAddSlice4(cs[0], cs[1], cs[2], cs[3], srcs[0][:n], srcs[1][:n], srcs[2][:n], srcs[3][:n], got)
		if !bytes.Equal(want, got) {
			t.Fatalf("MulAddSlice4 differs at c=%d n=%d", c, n)
		}
		want2 := append([]byte(nil), acc[:n]...)
		MulAddSliceRef(cs[0], srcs[0][:n], want2)
		MulAddSliceRef(cs[1], srcs[1][:n], want2)
		got2 := append([]byte(nil), acc[:n]...)
		MulAddSlice2(cs[0], cs[1], srcs[0][:n], srcs[1][:n], got2)
		if !bytes.Equal(want2, got2) {
			t.Fatalf("MulAddSlice2 differs at c=%d n=%d", c, n)
		}
		// Set variants: reference is the same composition over a zeroed
		// accumulator; the destination's prior garbage must not leak in.
		set4 := append([]byte(nil), acc[:n]...)
		MulSlice4(cs[0], cs[1], cs[2], cs[3], srcs[0][:n], srcs[1][:n], srcs[2][:n], srcs[3][:n], set4)
		wantSet4 := make([]byte, n)
		for lane := 0; lane < 4; lane++ {
			MulAddSliceRef(cs[lane], srcs[lane][:n], wantSet4)
		}
		if !bytes.Equal(wantSet4, set4) {
			t.Fatalf("MulSlice4 differs at c=%d n=%d", c, n)
		}
		set2 := append([]byte(nil), acc[:n]...)
		MulSlice2(cs[0], cs[1], srcs[0][:n], srcs[1][:n], set2)
		wantSet2 := make([]byte, n)
		MulAddSliceRef(cs[0], srcs[0][:n], wantSet2)
		MulAddSliceRef(cs[1], srcs[1][:n], wantSet2)
		if !bytes.Equal(wantSet2, set2) {
			t.Fatalf("MulSlice2 differs at c=%d n=%d", c, n)
		}
	}
	// Every tail length 1..64 explicitly, with zero/one coefficients mixed in.
	for n := 1; n <= 64; n++ {
		cs := [4]byte{0, 1, byte(n), byte(255 - n)}
		want := append([]byte(nil), acc[:n]...)
		for lane := 0; lane < 4; lane++ {
			MulAddSliceRef(cs[lane], srcs[lane][:n], want)
		}
		got := append([]byte(nil), acc[:n]...)
		MulAddSlice4(cs[0], cs[1], cs[2], cs[3], srcs[0][:n], srcs[1][:n], srcs[2][:n], srcs[3][:n], got)
		if !bytes.Equal(want, got) {
			t.Fatalf("MulAddSlice4 with 0/1 coefficients differs at n=%d", n)
		}
	}
}

// TestCoefficientOneLanes covers coefficient one — every entry of an RS(k+1)
// parity row and of its single-loss decode rows — under every kernel. Each
// fused kernel runs every lane mask, the masked lanes set to one and the
// others to mixed coefficients, so ones meet in any pair of lanes (the lane
// rotation above never puts them side by side). Lengths run 0..300 from odd
// offsets; the reference is the composition of single-lane reference passes.
func TestCoefficientOneLanes(t *testing.T) {
	for _, id := range kernelIDs() {
		restore := SelectKernel(id)
		t.Run(id.String(), testCoefficientOneLanes)
		restore()
	}
}

func testCoefficientOneLanes(t *testing.T) {
	const maxN = 300
	rng := rand.New(rand.NewSource(64))
	bufs := make([][]byte, 5) // four sources, then the accumulator
	for i := range bufs {
		bufs[i] = make([]byte, maxN+16)
		rng.Read(bufs[i])
	}
	others := [4]byte{0x57, 0, 2, 0xff}
	for n := 0; n <= maxN; n++ {
		off := 1 + 2*(n%8)
		var srcs [4][]byte
		for i := range srcs {
			srcs[i] = bufs[i][off : off+n]
		}
		acc := bufs[4][off : off+n]

		want := append([]byte(nil), acc...)
		MulAddSliceRef(1, srcs[0], want)
		got := append([]byte(nil), acc...)
		MulAddSlice(1, srcs[0], got)
		if !bytes.Equal(want, got) {
			t.Fatalf("MulAddSlice(1) differs at n=%d", n)
		}
		MulSlice(1, srcs[0], got)
		if !bytes.Equal(srcs[0], got) {
			t.Fatalf("MulSlice(1) differs at n=%d", n)
		}
		// Exact aliasing: x ^= 1*x clears x, and x = 1*x leaves it so.
		MulAddSlice(1, got, got)
		MulSlice(1, got, got)
		if !bytes.Equal(got, make([]byte, n)) {
			t.Fatalf("aliased coefficient-one passes left bytes at n=%d", n)
		}

		for mask := 0; mask < 16; mask++ {
			var cs [4]byte
			for lane := range cs {
				cs[lane] = others[(lane+n)%4]
				if mask&(1<<lane) != 0 {
					cs[lane] = 1
				}
			}
			set2, set4 := make([]byte, n), make([]byte, n)
			for lane := 0; lane < 4; lane++ {
				if lane < 2 {
					MulAddSliceRef(cs[lane], srcs[lane], set2)
				}
				MulAddSliceRef(cs[lane], srcs[lane], set4)
			}
			add2, add4 := append([]byte(nil), acc...), append([]byte(nil), acc...)
			MulAddSliceRef(1, set2, add2)
			MulAddSliceRef(1, set4, add4)

			got := append([]byte(nil), acc...) // garbage the set forms must not keep
			MulSlice2(cs[0], cs[1], srcs[0], srcs[1], got)
			if !bytes.Equal(set2, got) {
				t.Fatalf("MulSlice2(% x) differs at n=%d", cs[:2], n)
			}
			copy(got, acc)
			MulSlice4(cs[0], cs[1], cs[2], cs[3], srcs[0], srcs[1], srcs[2], srcs[3], got)
			if !bytes.Equal(set4, got) {
				t.Fatalf("MulSlice4(% x) differs at n=%d", cs, n)
			}
			copy(got, acc)
			MulAddSlice2(cs[0], cs[1], srcs[0], srcs[1], got)
			if !bytes.Equal(add2, got) {
				t.Fatalf("MulAddSlice2(% x) differs at n=%d", cs[:2], n)
			}
			copy(got, acc)
			MulAddSlice4(cs[0], cs[1], cs[2], cs[3], srcs[0], srcs[1], srcs[2], srcs[3], got)
			if !bytes.Equal(add4, got) {
				t.Fatalf("MulAddSlice4(% x) differs at n=%d", cs, n)
			}
		}
	}
}

func TestKernelLengthMismatchPanics(t *testing.T) {
	a3, a4 := make([]byte, 3), make([]byte, 4)
	for name, f := range map[string]func(){
		"MulAddSlice2/s0":  func() { MulAddSlice2(2, 3, a3, a4, a4) },
		"MulAddSlice2/s1":  func() { MulAddSlice2(2, 3, a4, a3, a4) },
		"MulAddSlice4/s2":  func() { MulAddSlice4(2, 3, 4, 5, a4, a4, a3, a4, a4) },
		"MulAddSlice4/dst": func() { MulAddSlice4(2, 3, 4, 5, a4, a4, a4, a4, a3) },
		"MulSlice2/s1":     func() { MulSlice2(2, 3, a4, a3, a4) },
		"MulSlice4/s3":     func() { MulSlice4(2, 3, 4, 5, a4, a4, a4, a3, a4) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s length mismatch did not panic", name)
				}
			}()
			f()
		}()
	}
}

func TestSelectKernelValidation(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("unknown kernel id accepted")
		}
	}()
	SelectKernel(KernelID(99))
}

func TestKernelNames(t *testing.T) {
	if KernelTable.String() != "table" ||
		KernelRef.String() != "ref" || KernelSIMD.String() != "simd" ||
		KernelID(9).String() != "unknown" {
		t.Fatal("kernel names wrong")
	}
}

func benchKernel(b *testing.B, id KernelID) {
	restore := SelectKernel(id)
	defer restore()
	src := make([]byte, 64*1024)
	dst := make([]byte, 64*1024)
	rand.New(rand.NewSource(2)).Read(src)
	b.SetBytes(int64(len(src)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		MulAddSlice(0x57, src, dst)
	}
}

func BenchmarkMulAddSliceTable(b *testing.B) { benchKernel(b, KernelTable) }
func BenchmarkMulAddSliceRef(b *testing.B)   { benchKernel(b, KernelRef) }

func BenchmarkMulAddSlice4Fused(b *testing.B) {
	srcs := make([][]byte, 4)
	rng := rand.New(rand.NewSource(2))
	for i := range srcs {
		srcs[i] = make([]byte, 64*1024)
		rng.Read(srcs[i])
	}
	dst := make([]byte, 64*1024)
	b.SetBytes(int64(4 * len(dst))) // four coefficient applications per pass
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		MulAddSlice4(0x57, 0x8E, 0x13, 0xB1, srcs[0], srcs[1], srcs[2], srcs[3], dst)
	}
}
