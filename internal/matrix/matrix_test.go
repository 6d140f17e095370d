package matrix

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func randomInvertible(rng *rand.Rand, n int) *Matrix {
	for {
		m := New(n, n)
		for i := range m.data {
			m.data[i] = byte(rng.Intn(256))
		}
		if _, err := m.Invert(); err == nil {
			return m
		}
	}
}

func TestIdentityMul(t *testing.T) {
	id := Identity(4)
	m := New(4, 4)
	rng := rand.New(rand.NewSource(7))
	for i := range m.data {
		m.data[i] = byte(rng.Intn(256))
	}
	if !id.Mul(m).Equal(m) || !m.Mul(id).Equal(m) {
		t.Fatal("identity is not a multiplicative identity")
	}
}

func TestNewFromData(t *testing.T) {
	m := NewFromData([][]byte{{1, 2}, {3, 4}})
	if m.Rows() != 2 || m.Cols() != 2 || m.At(1, 0) != 3 {
		t.Fatalf("NewFromData produced wrong matrix: %v", m)
	}
}

func TestNewFromDataRaggedPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("ragged rows did not panic")
		}
	}()
	NewFromData([][]byte{{1, 2}, {3}})
}

func TestInvertRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for n := 1; n <= 8; n++ {
		m := randomInvertible(rng, n)
		inv, err := m.Invert()
		if err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		if !m.Mul(inv).Equal(Identity(n)) {
			t.Fatalf("n=%d: m*inv != I", n)
		}
		if !inv.Mul(m).Equal(Identity(n)) {
			t.Fatalf("n=%d: inv*m != I", n)
		}
	}
}

func TestInvertSingular(t *testing.T) {
	m := NewFromData([][]byte{{1, 2}, {1, 2}})
	if _, err := m.Invert(); err != ErrSingular {
		t.Fatalf("got %v, want ErrSingular", err)
	}
	z := New(3, 3)
	if _, err := z.Invert(); err != ErrSingular {
		t.Fatalf("zero matrix: got %v, want ErrSingular", err)
	}
}

func TestInvertNonSquare(t *testing.T) {
	m := New(2, 3)
	if _, err := m.Invert(); err == nil {
		t.Fatal("inverting non-square matrix did not error")
	}
}

func TestMulAssociativityProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	f := func() bool {
		a, b, c := New(3, 4), New(4, 2), New(2, 5)
		for _, m := range []*Matrix{a, b, c} {
			for i := range m.data {
				m.data[i] = byte(rng.Intn(256))
			}
		}
		return a.Mul(b).Mul(c).Equal(a.Mul(b.Mul(c)))
	}
	cfg := &quick.Config{MaxCount: 50}
	if err := quick.Check(f, cfg); err != nil {
		t.Error(err)
	}
}

func TestMulVecMatchesMul(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	m := New(4, 6)
	for i := range m.data {
		m.data[i] = byte(rng.Intn(256))
	}
	src := make([]byte, 6)
	rng.Read(src)
	dst := make([]byte, 4)
	m.MulVec(src, dst)
	col := New(6, 1)
	for i, v := range src {
		col.Set(i, 0, v)
	}
	prod := m.Mul(col)
	for i := range dst {
		if dst[i] != prod.At(i, 0) {
			t.Fatalf("MulVec differs from Mul at row %d", i)
		}
	}
}

func TestSubMatrixAndSelectRows(t *testing.T) {
	m := NewFromData([][]byte{{1, 2, 3}, {4, 5, 6}, {7, 8, 9}})
	s := m.SubMatrix(1, 3, 0, 2)
	want := NewFromData([][]byte{{4, 5}, {7, 8}})
	if !s.Equal(want) {
		t.Fatalf("SubMatrix = %v, want %v", s, want)
	}
	r := m.SelectRows([]int{2, 0})
	wantR := NewFromData([][]byte{{7, 8, 9}, {1, 2, 3}})
	if !r.Equal(wantR) {
		t.Fatalf("SelectRows = %v, want %v", r, wantR)
	}
}

func TestVandermondeRowsIndependent(t *testing.T) {
	v := Vandermonde(8, 5)
	// Any 5 of the 8 rows must be invertible (distinct evaluation points).
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 20; trial++ {
		perm := rng.Perm(8)[:5]
		if _, err := v.SelectRows(perm).Invert(); err != nil {
			t.Fatalf("rows %v singular: %v", perm, err)
		}
	}
}

func TestRSGeneratorSystematic(t *testing.T) {
	for _, p := range []struct{ k, m int }{{2, 1}, {3, 1}, {4, 2}, {6, 3}, {10, 4}} {
		g, err := RSGenerator(p.k, p.m)
		if err != nil {
			t.Fatalf("k=%d m=%d: %v", p.k, p.m, err)
		}
		if g.Rows() != p.k+p.m || g.Cols() != p.k {
			t.Fatalf("k=%d m=%d: bad shape %dx%d", p.k, p.m, g.Rows(), g.Cols())
		}
		if !g.SubMatrix(0, p.k, 0, p.k).Equal(Identity(p.k)) {
			t.Fatalf("k=%d m=%d: top block is not identity", p.k, p.m)
		}
	}
}

func TestRSGeneratorMDSProperty(t *testing.T) {
	// Every k-row subset of the generator must be invertible; this is the
	// guarantee that any k surviving stripe members can reconstruct.
	k, m := 4, 3
	g, err := RSGenerator(k, m)
	if err != nil {
		t.Fatal(err)
	}
	n := k + m
	var rows []int
	var rec func(start int)
	rec = func(start int) {
		if len(rows) == k {
			sel := make([]int, k)
			copy(sel, rows)
			if _, err := g.SelectRows(sel).Invert(); err != nil {
				t.Fatalf("rows %v singular: MDS property violated", sel)
			}
			return
		}
		for i := start; i < n; i++ {
			rows = append(rows, i)
			rec(i + 1)
			rows = rows[:len(rows)-1]
		}
	}
	rec(0)
}

func TestRSGeneratorParamValidation(t *testing.T) {
	if _, err := RSGenerator(0, 2); err == nil {
		t.Error("k=0 accepted")
	}
	if _, err := RSGenerator(3, -1); err == nil {
		t.Error("m<0 accepted")
	}
	if _, err := RSGenerator(200, 100); err == nil {
		t.Error("k+m>256 accepted")
	}
}

func TestInvertPropertyRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	for trial := 0; trial < 50; trial++ {
		n := 1 + rng.Intn(10)
		m := randomInvertible(rng, n)
		inv, err := m.Invert()
		if err != nil {
			t.Fatal(err)
		}
		// (m^-1)^-1 == m
		inv2, err := inv.Invert()
		if err != nil {
			t.Fatal(err)
		}
		if !inv2.Equal(m) {
			t.Fatal("double inversion does not round-trip")
		}
	}
}

func TestMulVecShapeMismatchPanics(t *testing.T) {
	m := New(2, 3)
	defer func() {
		if recover() == nil {
			t.Fatal("shape mismatch did not panic")
		}
	}()
	m.MulVec(make([]byte, 2), make([]byte, 2))
}

func TestSwapRows(t *testing.T) {
	m := NewFromData([][]byte{{1, 2}, {3, 4}})
	m.SwapRows(0, 1)
	if m.At(0, 0) != 3 || m.At(1, 1) != 2 {
		t.Fatal("SwapRows failed")
	}
	m.SwapRows(1, 1) // no-op must be safe
	if m.At(1, 0) != 1 {
		t.Fatal("self-swap corrupted the row")
	}
}

func TestApplyGeneratorRecoverData(t *testing.T) {
	// End-to-end at the matrix level: encode a data vector, drop rows,
	// invert the surviving rows and recover the original.
	k, m := 3, 2
	g, err := RSGenerator(k, m)
	if err != nil {
		t.Fatal(err)
	}
	data := []byte{10, 20, 30}
	coded := make([]byte, k+m)
	g.MulVec(data, coded)
	// Lose rows 0 and 3 (one data, one parity); survive 1, 2, 4.
	survivors := []int{1, 2, 4}
	dec, err := g.SelectRows(survivors).Invert()
	if err != nil {
		t.Fatal(err)
	}
	sub := []byte{coded[1], coded[2], coded[4]}
	got := make([]byte, k)
	dec.MulVec(sub, got)
	for i := range data {
		if got[i] != data[i] {
			t.Fatalf("recovered %v, want %v", got, data)
		}
	}
}

func BenchmarkInvert8x8(b *testing.B) {
	rng := rand.New(rand.NewSource(5))
	m := randomInvertible(rng, 8)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := m.Invert(); err != nil {
			b.Fatal(err)
		}
	}
}
