package gf256

import "crypto/subtle"

// Slice kernels: the inner loops of erasure encoding and decoding. A kernel
// applies one (or, fused, several) fixed coefficients against a full data
// word, matching how generator-matrix rows are applied to shards.
//
// This file is the single dispatch point for all of them. The exported
// entry points (MulSlice, MulAddSlice) share one argument-checking prologue
// — length match, zero-length, c==0 and c==1 fast paths — and then jump
// through the active kernelImpl, so the per-byte loops exist exactly once
// per implementation instead of being duplicated across call sites.
//
// Three interchangeable implementations are kept:
//
//   - KernelTable indexes one 256-byte mulTable row per coefficient. One
//     lookup per byte with the row resident in L1; the fastest scalar form
//     Go can express, and the default.
//   - KernelSIMD is the assembly kernel (kernels_amd64.s) over the 4-bit
//     split-table layout ISA-L and Jerasure's "good" code paths use:
//     c*x = lo[x&0xF] ^ hi[x>>4] over two 16-entry tables, which PSHUFB
//     looks up sixteen bytes at a time. It is registered at init after a
//     CPUID probe and becomes the default where supported; other platforms
//     keep KernelTable.
//   - KernelRef is the trivially auditable scalar reference — a plain loop
//     over Mul — that the differential property tests hold every other
//     kernel (and the fused variants below) against.
//
// The fused kernels (MulSlice2/4 setting, MulAddSlice2/4 accumulating)
// apply several source slices to one destination per pass. They are the
// erasure engine's inner loop: fusing k sources into a parity chunk turns k
// read-modify-write passes over dst into a set pass plus fused accumulates,
// which measured 2-3x faster than row-major single-coefficient scalar
// passes on stripe-sized data (BenchmarkMulAddSlice4Fused against
// BenchmarkMulAddSliceTable under KernelTable). Under KernelSIMD
// they instead decompose into per-coefficient SIMD passes — sixteen
// lookups per instruction beat scalar fusion, and the extra destination
// traffic stays in L1 because the erasure engine hands them cache-sized
// chunks. Under every other kernel they run the scalar fused loops. The
// reference they are tested against is the composition of
// single-coefficient KernelRef passes.
//
// Coefficient one skips the kernel, under every kernel: 1*x = x, so
// MulAddSlice(1, …) is a word-wide XOR (crypto/subtle.XORBytes),
// MulSlice(1, …) a copy, and a MulSlice2 set pass whose lanes are both one
// one XOR of the sources into dst, with no copy first. Those are all the
// passes an RS(3+1) parity row and every single-loss decode row make, so
// the deployed geometry encodes, decodes and verifies at memory speed.
// MulSlice4 and MulAddSlice2/4, which only k >= 4 reaches, run ones
// through their table loops (mulTable[1] is the identity).

// KernelID selects the slice-kernel implementation behind the dispatch
// point.
type KernelID int

// Available kernel implementations.
const (
	// KernelTable is the 256-entry-row table kernel (default, fastest
	// scalar form).
	KernelTable KernelID = iota
	// KernelRef is the auditable scalar reference kernel.
	KernelRef
	// KernelSIMD is the assembly port of the split-table layout (PSHUFB on
	// amd64). Registered at init only where the CPU supports it; the
	// default kernel when available.
	KernelSIMD
)

// SIMDAvailable reports whether the assembly kernel is registered on this
// platform, i.e. whether SelectKernel(KernelSIMD) is valid.
func SIMDAvailable() bool { return kernelImpls[KernelSIMD].mul != nil }

// String implements fmt.Stringer.
func (k KernelID) String() string {
	switch k {
	case KernelTable:
		return "table"
	case KernelRef:
		return "ref"
	case KernelSIMD:
		return "simd"
	}
	return "unknown"
}

// kernelImpl holds the raw inner loops of one implementation. The loops are
// only entered with c >= 2 and len(src) == len(dst) > 0; the shared
// prologue in MulSlice/MulAddSlice has already handled everything else.
type kernelImpl struct {
	mul    func(c byte, src, dst []byte)
	mulAdd func(c byte, src, dst []byte)
}

var kernelImpls = [...]kernelImpl{
	KernelTable: {mulSliceTable, mulAddSliceTable},
	KernelRef:   {MulSliceRef, MulAddSliceRef},
	KernelSIMD:  {}, // registered by the amd64 init when the CPU supports it
}

// activeKernel is the implementation the dispatch point jumps through.
var activeKernel = &kernelImpls[KernelTable]

// activeKernelID mirrors activeKernel for Kernel().
var activeKernelID = KernelTable

// Kernel reports the active kernel implementation.
func Kernel() KernelID { return activeKernelID }

// SelectKernel switches the implementation behind MulSlice/MulAddSlice and
// returns a function restoring the previous choice. It exists for the
// differential tests and benchmarks; it is not synchronized, so it must not
// race with in-flight kernel calls.
func SelectKernel(id KernelID) (restore func()) {
	if int(id) < 0 || int(id) >= len(kernelImpls) {
		panic("gf256: unknown kernel")
	}
	if kernelImpls[id].mul == nil {
		panic("gf256: kernel unavailable on this platform")
	}
	prev, prevID := activeKernel, activeKernelID
	activeKernel, activeKernelID = &kernelImpls[id], id
	return func() { activeKernel, activeKernelID = prev, prevID }
}

// MulSlice sets dst[i] = c * src[i] for all i. dst and src must have the
// same length; they may alias. A zero coefficient zeroes dst; coefficient
// one degenerates to a copy.
func MulSlice(c byte, src, dst []byte) {
	if len(src) != len(dst) {
		panic("gf256: MulSlice length mismatch")
	}
	switch {
	case len(src) == 0:
	case c == 0:
		for i := range dst {
			dst[i] = 0
		}
	case c == 1:
		copy(dst, src)
	default:
		activeKernel.mul(c, src, dst)
	}
}

// MulAddSlice sets dst[i] ^= c * src[i] for all i: the fused
// multiply-accumulate at the heart of matrix-vector products over GF(2^8).
// dst and src must have the same length and must not alias unless equal.
func MulAddSlice(c byte, src, dst []byte) {
	if len(src) != len(dst) {
		panic("gf256: MulAddSlice length mismatch")
	}
	switch {
	case len(src) == 0:
	case c == 0:
		// No contribution.
	case c == 1:
		subtle.XORBytes(dst, dst, src)
	default:
		activeKernel.mulAdd(c, src, dst)
	}
}

// MulSlice2 sets dst[i] = c0*s0[i] ^ c1*s1[i]: the "set" form of
// MulAddSlice2, sparing the destination pre-clear and its read-modify-write
// on the first generator-row group. Aliasing and coefficient rules match
// MulAddSlice2.
func MulSlice2(c0, c1 byte, s0, s1, dst []byte) {
	if len(s0) != len(dst) || len(s1) != len(dst) {
		panic("gf256: MulSlice2 length mismatch")
	}
	if c0 == 1 && c1 == 1 {
		subtle.XORBytes(dst, s0, s1)
		return
	}
	if activeKernelID == KernelSIMD {
		MulSlice(c0, s0, dst)
		MulAddSlice(c1, s1, dst)
		return
	}
	t0, t1 := &mulTable[c0], &mulTable[c1]
	s0 = s0[:len(dst)]
	s1 = s1[:len(dst)]
	for i := range dst {
		dst[i] = t0[s0[i]] ^ t1[s1[i]]
	}
}

// MulSlice4 sets dst[i] = c0*s0[i] ^ c1*s1[i] ^ c2*s2[i] ^ c3*s3[i]: the
// "set" form of MulAddSlice4. Aliasing and coefficient rules match
// MulAddSlice4.
func MulSlice4(c0, c1, c2, c3 byte, s0, s1, s2, s3, dst []byte) {
	if len(s0) != len(dst) || len(s1) != len(dst) || len(s2) != len(dst) || len(s3) != len(dst) {
		panic("gf256: MulSlice4 length mismatch")
	}
	if activeKernelID == KernelSIMD {
		MulSlice(c0, s0, dst)
		MulAddSlice(c1, s1, dst)
		MulAddSlice(c2, s2, dst)
		MulAddSlice(c3, s3, dst)
		return
	}
	t0, t1, t2, t3 := &mulTable[c0], &mulTable[c1], &mulTable[c2], &mulTable[c3]
	s0 = s0[:len(dst)]
	s1 = s1[:len(dst)]
	s2 = s2[:len(dst)]
	s3 = s3[:len(dst)]
	for i := range dst {
		dst[i] = t0[s0[i]] ^ t1[s1[i]] ^ t2[s2[i]] ^ t3[s3[i]]
	}
}

// MulAddSlice2 sets dst[i] ^= c0*s0[i] ^ c1*s1[i]: two generator-row
// coefficients applied in one pass over dst. Both sources must have the
// destination's length and must not alias it. Zero and one coefficients
// are handled by the table rows themselves (mulTable[0] is all-zero and
// mulTable[1] the identity), so any coefficients are accepted.
func MulAddSlice2(c0, c1 byte, s0, s1, dst []byte) {
	if len(s0) != len(dst) || len(s1) != len(dst) {
		panic("gf256: MulAddSlice2 length mismatch")
	}
	if activeKernelID == KernelSIMD {
		MulAddSlice(c0, s0, dst)
		MulAddSlice(c1, s1, dst)
		return
	}
	t0, t1 := &mulTable[c0], &mulTable[c1]
	s0 = s0[:len(dst)]
	s1 = s1[:len(dst)]
	for i := range dst {
		dst[i] ^= t0[s0[i]] ^ t1[s1[i]]
	}
}

// MulAddSlice4 sets dst[i] ^= c0*s0[i] ^ c1*s1[i] ^ c2*s2[i] ^ c3*s3[i]:
// four generator-row coefficients fused into one pass over dst — the
// erasure engine's widest inner loop. All sources must have the
// destination's length and must not alias it; any coefficients are
// accepted (see MulAddSlice2).
func MulAddSlice4(c0, c1, c2, c3 byte, s0, s1, s2, s3, dst []byte) {
	if len(s0) != len(dst) || len(s1) != len(dst) || len(s2) != len(dst) || len(s3) != len(dst) {
		panic("gf256: MulAddSlice4 length mismatch")
	}
	if activeKernelID == KernelSIMD {
		MulAddSlice(c0, s0, dst)
		MulAddSlice(c1, s1, dst)
		MulAddSlice(c2, s2, dst)
		MulAddSlice(c3, s3, dst)
		return
	}
	t0, t1, t2, t3 := &mulTable[c0], &mulTable[c1], &mulTable[c2], &mulTable[c3]
	s0 = s0[:len(dst)]
	s1 = s1[:len(dst)]
	s2 = s2[:len(dst)]
	s3 = s3[:len(dst)]
	for i := range dst {
		dst[i] ^= t0[s0[i]] ^ t1[s1[i]] ^ t2[s2[i]] ^ t3[s3[i]]
	}
}

// --- KernelTable: one 256-byte mulTable row, indexed per byte ---

func mulSliceTable(c byte, src, dst []byte) {
	mt := &mulTable[c]
	for i, s := range src {
		dst[i] = mt[s]
	}
}

func mulAddSliceTable(c byte, src, dst []byte) {
	mt := &mulTable[c]
	for i, s := range src {
		dst[i] ^= mt[s]
	}
}

// --- 4-bit split tables, read by the KernelSIMD assembly ---

// nibbleTables holds, for every coefficient, the products of the
// coefficient with every low nibble and every high nibble.
var nibbleTables [256][2][16]byte

func init() {
	for c := 0; c < 256; c++ {
		for n := 0; n < 16; n++ {
			nibbleTables[c][0][n] = Mul(byte(c), byte(n))    // low nibble
			nibbleTables[c][1][n] = Mul(byte(c), byte(n)<<4) // high nibble
		}
	}
}

// --- KernelRef: the auditable scalar reference ---

// MulSliceRef sets dst[i] = c * src[i] with a plain scalar loop over Mul.
// It is the reference the differential tests hold every other kernel
// against; the prologue-handled cases (length 0, c of 0 or 1) are valid
// here too since Mul covers the whole field.
func MulSliceRef(c byte, src, dst []byte) {
	for i, s := range src {
		dst[i] = Mul(c, s)
	}
}

// MulAddSliceRef sets dst[i] ^= c * src[i] with a plain scalar loop over
// Mul; the reference for MulAddSlice and, composed, for the fused kernels.
func MulAddSliceRef(c byte, src, dst []byte) {
	for i, s := range src {
		dst[i] ^= Mul(c, s)
	}
}
