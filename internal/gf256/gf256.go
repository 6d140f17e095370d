// Package gf256 implements arithmetic over the finite field GF(2^8).
//
// The field is constructed as GF(2)[x]/(x^8 + x^4 + x^3 + x^2 + 1), i.e.
// with the primitive polynomial 0x11D that is standard for Reed-Solomon
// storage codes (the same polynomial used by Jerasure and ISA-L for w=8).
// Elements are bytes; addition is XOR; multiplication is carried out with
// log/exp tables built once at package initialization.
//
// The package exposes both scalar operations (Mul, Div, Inv, Exp) and slice
// kernels (MulSlice, MulAddSlice and the fused MulAddSlice2/MulAddSlice4)
// which are the inner loops of erasure encoding and decoding. The slice
// kernels live behind a single dispatch point in kernels.go: every exported
// kernel shares one argument-checking prologue with consistent zero-length,
// c==0 and c==1 fast paths, and the inner loop is selected from a small
// table of interchangeable implementations (see KernelID).
package gf256

import "fmt"

// Polynomial is the primitive polynomial used to construct the field,
// x^8 + x^4 + x^3 + x^2 + 1, written with the implicit x^8 term as 0x11D.
const Polynomial = 0x11D

// Order is the number of elements in the multiplicative group of GF(2^8).
const Order = 255

var (
	expTable [512]byte // expTable[i] = g^i, doubled to avoid mod in Mul
	logTable [256]byte // logTable[x] = log_g(x); logTable[0] is unused
	invTable [256]byte // invTable[x] = x^-1; invTable[0] is unused
	// mulTable[a][b] = a*b. 64 KiB; makes random-access multiplies and the
	// slice kernels cache-friendly.
	mulTable [256][256]byte
)

func init() {
	x := 1
	for i := 0; i < Order; i++ {
		expTable[i] = byte(x)
		logTable[x] = byte(i)
		x <<= 1
		if x&0x100 != 0 {
			x ^= Polynomial
		}
	}
	for i := Order; i < len(expTable); i++ {
		expTable[i] = expTable[i-Order]
	}
	for i := 1; i < 256; i++ {
		invTable[i] = expTable[Order-int(logTable[i])]
	}
	for a := 1; a < 256; a++ {
		la := int(logTable[a])
		for b := 1; b < 256; b++ {
			mulTable[a][b] = expTable[la+int(logTable[b])]
		}
	}
}

// Add returns a+b in GF(2^8). Addition and subtraction coincide (XOR).
func Add(a, b byte) byte { return a ^ b }

// Sub returns a-b in GF(2^8); identical to Add.
func Sub(a, b byte) byte { return a ^ b }

// Mul returns a*b in GF(2^8).
func Mul(a, b byte) byte { return mulTable[a][b] }

// Div returns a/b in GF(2^8). It panics if b is zero.
func Div(a, b byte) byte {
	if b == 0 {
		panic("gf256: division by zero")
	}
	if a == 0 {
		return 0
	}
	d := int(logTable[a]) - int(logTable[b])
	if d < 0 {
		d += Order
	}
	return expTable[d]
}

// Inv returns the multiplicative inverse of a. It panics if a is zero.
func Inv(a byte) byte {
	if a == 0 {
		panic("gf256: inverse of zero")
	}
	return invTable[a]
}

// Exp returns g^n where g = 2 is the generator used to build the tables.
// Negative n is accepted and interpreted modulo the group order.
func Exp(n int) byte {
	n %= Order
	if n < 0 {
		n += Order
	}
	return expTable[n]
}

// Log returns log_g(a). It panics if a is zero, which has no logarithm.
func Log(a byte) int {
	if a == 0 {
		panic("gf256: log of zero")
	}
	return int(logTable[a])
}

// Pow returns a^n in GF(2^8) for n >= 0. Pow(0, 0) is 1 by convention.
func Pow(a byte, n int) byte {
	if n < 0 {
		panic(fmt.Sprintf("gf256: negative exponent %d", n))
	}
	if n == 0 {
		return 1
	}
	if a == 0 {
		return 0
	}
	return Exp(int(logTable[a]) % Order * (n % Order) % Order)
}

// AddSlice sets dst[i] ^= src[i] for all i: MulAddSlice with coefficient
// one, a word-wide XOR.
func AddSlice(src, dst []byte) { MulAddSlice(1, src, dst) }
