package gf256

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestAddIsXor(t *testing.T) {
	if Add(0x53, 0xCA) != 0x53^0xCA {
		t.Fatalf("Add(0x53,0xCA) = %#x, want %#x", Add(0x53, 0xCA), 0x53^0xCA)
	}
	if Sub(0x53, 0xCA) != Add(0x53, 0xCA) {
		t.Fatal("Sub must equal Add in characteristic 2")
	}
}

func TestMulKnownValues(t *testing.T) {
	// Hand-checked products under polynomial 0x11D.
	cases := []struct{ a, b, want byte }{
		{0, 0, 0},
		{0, 7, 0},
		{1, 7, 7},
		{2, 2, 4},
		{0x80, 2, 0x1D}, // x^7 * x = x^8 = x^4+x^3+x^2+1
		{0xFF, 1, 0xFF},
	}
	for _, c := range cases {
		if got := Mul(c.a, c.b); got != c.want {
			t.Errorf("Mul(%#x,%#x) = %#x, want %#x", c.a, c.b, got, c.want)
		}
	}
}

func TestMulCommutativeExhaustive(t *testing.T) {
	for a := 0; a < 256; a++ {
		for b := a; b < 256; b++ {
			if Mul(byte(a), byte(b)) != Mul(byte(b), byte(a)) {
				t.Fatalf("Mul not commutative at (%d,%d)", a, b)
			}
		}
	}
}

func TestFieldAxiomsProperty(t *testing.T) {
	// Associativity and distributivity over random triples.
	assoc := func(a, b, c byte) bool {
		return Mul(Mul(a, b), c) == Mul(a, Mul(b, c))
	}
	if err := quick.Check(assoc, nil); err != nil {
		t.Errorf("associativity: %v", err)
	}
	distrib := func(a, b, c byte) bool {
		return Mul(a, Add(b, c)) == Add(Mul(a, b), Mul(a, c))
	}
	if err := quick.Check(distrib, nil); err != nil {
		t.Errorf("distributivity: %v", err)
	}
}

func TestInverseExhaustive(t *testing.T) {
	for a := 1; a < 256; a++ {
		inv := Inv(byte(a))
		if Mul(byte(a), inv) != 1 {
			t.Fatalf("a*Inv(a) != 1 for a=%d (inv=%d)", a, inv)
		}
		if Div(1, byte(a)) != inv {
			t.Fatalf("Div(1,a) != Inv(a) for a=%d", a)
		}
	}
}

func TestDivMulRoundTrip(t *testing.T) {
	f := func(a, b byte) bool {
		if b == 0 {
			return true
		}
		return Mul(Div(a, b), b) == a
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestDivByZeroPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Div by zero did not panic")
		}
	}()
	Div(5, 0)
}

func TestInvZeroPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Inv(0) did not panic")
		}
	}()
	Inv(0)
}

func TestExpLogRoundTrip(t *testing.T) {
	for a := 1; a < 256; a++ {
		if Exp(Log(byte(a))) != byte(a) {
			t.Fatalf("Exp(Log(%d)) != %d", a, a)
		}
	}
	if Exp(-1) != Exp(Order-1) {
		t.Fatal("negative exponent not reduced mod group order")
	}
}

func TestGeneratorHasFullOrder(t *testing.T) {
	// The generator 2 must produce all 255 nonzero elements.
	seen := make(map[byte]bool)
	for i := 0; i < Order; i++ {
		seen[Exp(i)] = true
	}
	if len(seen) != Order {
		t.Fatalf("generator produced %d distinct elements, want %d", len(seen), Order)
	}
}

func TestPow(t *testing.T) {
	if Pow(0, 0) != 1 {
		t.Fatal("Pow(0,0) must be 1")
	}
	if Pow(0, 3) != 0 {
		t.Fatal("Pow(0,3) must be 0")
	}
	for a := 1; a < 256; a++ {
		want := byte(1)
		for n := 0; n < 10; n++ {
			if got := Pow(byte(a), n); got != want {
				t.Fatalf("Pow(%d,%d) = %d, want %d", a, n, got, want)
			}
			want = Mul(want, byte(a))
		}
	}
}

func TestPowNegativePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Pow with negative exponent did not panic")
		}
	}()
	Pow(3, -1)
}

func TestMulSlice(t *testing.T) {
	src := []byte{0, 1, 2, 0x80, 0xFF}
	dst := make([]byte, len(src))
	for _, c := range []byte{0, 1, 2, 0x1D, 0xFF} {
		MulSlice(c, src, dst)
		for i := range src {
			if dst[i] != Mul(c, src[i]) {
				t.Fatalf("MulSlice c=%d i=%d: got %d want %d", c, i, dst[i], Mul(c, src[i]))
			}
		}
	}
}

func TestMulSliceAliasing(t *testing.T) {
	buf := []byte{3, 5, 7, 11}
	want := make([]byte, len(buf))
	MulSlice(9, buf, want)
	MulSlice(9, buf, buf)
	for i := range buf {
		if buf[i] != want[i] {
			t.Fatalf("aliased MulSlice differs at %d", i)
		}
	}
}

func TestMulAddSlice(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	src := make([]byte, 257)
	dst := make([]byte, 257)
	ref := make([]byte, 257)
	rng.Read(src)
	rng.Read(dst)
	copy(ref, dst)
	for _, c := range []byte{0, 1, 37, 255} {
		MulAddSlice(c, src, dst)
		for i := range ref {
			ref[i] ^= Mul(c, src[i])
		}
		for i := range dst {
			if dst[i] != ref[i] {
				t.Fatalf("MulAddSlice c=%d differs at %d", c, i)
			}
		}
	}
}

func TestAddSlice(t *testing.T) {
	a := []byte{1, 2, 3}
	b := []byte{4, 5, 6}
	AddSlice(a, b)
	for i := range b {
		if b[i] != a[i]^([]byte{4, 5, 6})[i] {
			t.Fatalf("AddSlice wrong at %d", i)
		}
	}
}

func TestSliceLengthMismatchPanics(t *testing.T) {
	for name, f := range map[string]func(){
		"MulSlice":    func() { MulSlice(2, make([]byte, 3), make([]byte, 4)) },
		"MulAddSlice": func() { MulAddSlice(2, make([]byte, 3), make([]byte, 4)) },
		"AddSlice":    func() { AddSlice(make([]byte, 3), make([]byte, 4)) },
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

func BenchmarkMulAddSlice(b *testing.B) { benchMulAddSlice(b, 0x57) }

// BenchmarkMulAddSliceOne runs the coefficient every entry of an RS(k+1)
// parity row holds: a word-wide XOR, not a kernel pass.
func BenchmarkMulAddSliceOne(b *testing.B) { benchMulAddSlice(b, 1) }

func benchMulAddSlice(b *testing.B, c byte) {
	src := make([]byte, 64*1024)
	dst := make([]byte, 64*1024)
	rand.New(rand.NewSource(2)).Read(src)
	b.SetBytes(int64(len(src)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		MulAddSlice(c, src, dst)
	}
}
