// Package matrix provides dense matrix algebra over GF(2^8), the linear
// algebra substrate of the Reed-Solomon codec in internal/erasure.
//
// Matrices are small (at most tens of rows/columns: one row per stripe
// member), so the implementation favours clarity over blocking. The critical
// operation for decoding is Invert, which recovers the decoding matrix from
// the surviving rows of the generator matrix.
package matrix

import (
	"errors"
	"fmt"

	"corec/internal/gf256"
)

// ErrSingular is returned by Invert when the matrix has no inverse.
var ErrSingular = errors.New("matrix: singular matrix")

// Matrix is a dense rows x cols matrix over GF(2^8). The zero value is an
// empty matrix; use New or NewFromData to construct usable instances.
type Matrix struct {
	rows, cols int
	data       []byte // row-major
}

// New returns a zero-filled rows x cols matrix. It panics if either
// dimension is not positive.
func New(rows, cols int) *Matrix {
	if rows <= 0 || cols <= 0 {
		panic(fmt.Sprintf("matrix: invalid dimensions %dx%d", rows, cols))
	}
	return &Matrix{rows: rows, cols: cols, data: make([]byte, rows*cols)}
}

// NewFromData builds a matrix from row slices. All rows must have equal,
// positive length. The data is copied.
func NewFromData(rows [][]byte) *Matrix {
	if len(rows) == 0 || len(rows[0]) == 0 {
		panic("matrix: empty data")
	}
	m := New(len(rows), len(rows[0]))
	for r, row := range rows {
		if len(row) != m.cols {
			panic("matrix: ragged rows")
		}
		copy(m.data[r*m.cols:], row)
	}
	return m
}

// Identity returns the n x n identity matrix.
func Identity(n int) *Matrix {
	m := New(n, n)
	for i := 0; i < n; i++ {
		m.Set(i, i, 1)
	}
	return m
}

// Rows returns the number of rows.
func (m *Matrix) Rows() int { return m.rows }

// Cols returns the number of columns.
func (m *Matrix) Cols() int { return m.cols }

// At returns the element at row r, column c.
func (m *Matrix) At(r, c int) byte { return m.data[r*m.cols+c] }

// Set assigns the element at row r, column c.
func (m *Matrix) Set(r, c int, v byte) { m.data[r*m.cols+c] = v }

// Row returns a view (not a copy) of row r.
func (m *Matrix) Row(r int) []byte { return m.data[r*m.cols : (r+1)*m.cols] }

// Clone returns a deep copy of m.
func (m *Matrix) Clone() *Matrix {
	c := New(m.rows, m.cols)
	copy(c.data, m.data)
	return c
}

// Equal reports whether two matrices have identical shape and contents.
func (m *Matrix) Equal(o *Matrix) bool {
	if m.rows != o.rows || m.cols != o.cols {
		return false
	}
	for i := range m.data {
		if m.data[i] != o.data[i] {
			return false
		}
	}
	return true
}

// String renders the matrix for debugging.
func (m *Matrix) String() string {
	s := ""
	for r := 0; r < m.rows; r++ {
		s += fmt.Sprintf("%v\n", m.Row(r))
	}
	return s
}

// Mul returns the matrix product m * o. It panics on a shape mismatch.
func (m *Matrix) Mul(o *Matrix) *Matrix {
	if m.cols != o.rows {
		panic(fmt.Sprintf("matrix: cannot multiply %dx%d by %dx%d", m.rows, m.cols, o.rows, o.cols))
	}
	p := New(m.rows, o.cols)
	for r := 0; r < m.rows; r++ {
		mrow := m.Row(r)
		prow := p.Row(r)
		for k, a := range mrow {
			if a == 0 {
				continue
			}
			gf256.MulAddSlice(a, o.Row(k), prow)
		}
	}
	return p
}

// MulVec computes dst = m * src where src has one byte per column and dst
// one byte per row. It panics on a shape mismatch.
func (m *Matrix) MulVec(src, dst []byte) {
	if len(src) != m.cols || len(dst) != m.rows {
		panic("matrix: MulVec shape mismatch")
	}
	for r := 0; r < m.rows; r++ {
		var acc byte
		for c, a := range m.Row(r) {
			acc ^= gf256.Mul(a, src[c])
		}
		dst[r] = acc
	}
}

// SubMatrix returns a copy of the rectangle [r0,r1) x [c0,c1).
func (m *Matrix) SubMatrix(r0, r1, c0, c1 int) *Matrix {
	if r0 < 0 || c0 < 0 || r1 > m.rows || c1 > m.cols || r0 >= r1 || c0 >= c1 {
		panic("matrix: SubMatrix bounds out of range")
	}
	s := New(r1-r0, c1-c0)
	for r := r0; r < r1; r++ {
		copy(s.Row(r-r0), m.Row(r)[c0:c1])
	}
	return s
}

// SelectRows returns a new matrix made of the given rows of m, in order.
func (m *Matrix) SelectRows(rows []int) *Matrix {
	if len(rows) == 0 {
		panic("matrix: SelectRows with no rows")
	}
	s := New(len(rows), m.cols)
	for i, r := range rows {
		if r < 0 || r >= m.rows {
			panic(fmt.Sprintf("matrix: SelectRows index %d out of range", r))
		}
		copy(s.Row(i), m.Row(r))
	}
	return s
}

// SwapRows exchanges rows i and j in place.
func (m *Matrix) SwapRows(i, j int) {
	if i == j {
		return
	}
	ri, rj := m.Row(i), m.Row(j)
	for k := range ri {
		ri[k], rj[k] = rj[k], ri[k]
	}
}

// Invert returns the inverse of a square matrix using Gauss-Jordan
// elimination with partial pivoting, or ErrSingular if none exists.
func (m *Matrix) Invert() (*Matrix, error) {
	if m.rows != m.cols {
		return nil, fmt.Errorf("matrix: cannot invert non-square %dx%d matrix", m.rows, m.cols)
	}
	n := m.rows
	work := m.Clone()
	inv := Identity(n)
	for col := 0; col < n; col++ {
		// Find a pivot.
		pivot := -1
		for r := col; r < n; r++ {
			if work.At(r, col) != 0 {
				pivot = r
				break
			}
		}
		if pivot < 0 {
			return nil, ErrSingular
		}
		work.SwapRows(col, pivot)
		inv.SwapRows(col, pivot)
		// Normalize the pivot row.
		if p := work.At(col, col); p != 1 {
			ip := gf256.Inv(p)
			gf256.MulSlice(ip, work.Row(col), work.Row(col))
			gf256.MulSlice(ip, inv.Row(col), inv.Row(col))
		}
		// Eliminate the column from every other row.
		for r := 0; r < n; r++ {
			if r == col {
				continue
			}
			if f := work.At(r, col); f != 0 {
				gf256.MulAddSlice(f, work.Row(col), work.Row(r))
				gf256.MulAddSlice(f, inv.Row(col), inv.Row(r))
			}
		}
	}
	return inv, nil
}

// Vandermonde returns the rows x cols Vandermonde matrix V[r][c] = r^c over
// GF(2^8), with 0^0 = 1. Any k rows of a Vandermonde matrix with distinct
// evaluation points are linearly independent, but the top k x k block is not
// the identity, so it is not directly a systematic code generator; see
// RSGenerator.
func Vandermonde(rows, cols int) *Matrix {
	m := New(rows, cols)
	for r := 0; r < rows; r++ {
		for c := 0; c < cols; c++ {
			m.Set(r, c, gf256.Pow(byte(r), c))
		}
	}
	return m
}

// RSGenerator builds the (k+m) x k generator matrix of a systematic
// Reed-Solomon code: the top k rows are the identity (data passes through
// unchanged) and the bottom m rows produce parity. It is derived from an
// extended Vandermonde matrix by right-multiplying with the inverse of its
// top square block, which preserves the MDS property: every k x k submatrix
// of the result is invertible, so any k of the k+m stripe members suffice to
// reconstruct the data.
func RSGenerator(k, m int) (*Matrix, error) {
	if k <= 0 || m < 0 {
		return nil, fmt.Errorf("matrix: invalid RS parameters k=%d m=%d", k, m)
	}
	if k+m > 256 {
		return nil, fmt.Errorf("matrix: RS stripe width %d exceeds field size 256", k+m)
	}
	v := Vandermonde(k+m, k)
	top := v.SubMatrix(0, k, 0, k)
	topInv, err := top.Invert()
	if err != nil {
		// Cannot happen: distinct evaluation points guarantee invertibility.
		return nil, err
	}
	return v.Mul(topInv), nil
}
