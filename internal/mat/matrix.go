// Package mat provides small dense matrix and vector algebra: the generic
// Kalman filter's covariance updates (the altitude-EKF baseline), and the
// generic references that the phone's fixed-size grade filter and LOESS fit
// are tested against.
//
// The Go standard library has no linear algebra, so this package implements
// the needed subset from scratch. Matrices are row-major, value-semantics-free
// (methods mutate the receiver only where documented) and sized for the tiny
// systems this project solves (state dimension 2-4, regression degree <= 3).
package mat

import (
	"errors"
	"fmt"
	"math"
)

// ErrSingular is returned when a factorization or solve encounters a matrix
// that is singular to working precision.
var ErrSingular = errors.New("mat: matrix is singular")

// Matrix is a dense, row-major matrix.
type Matrix struct {
	rows, cols int
	data       []float64
}

// New returns a rows x cols zero matrix.
func New(rows, cols int) *Matrix {
	if rows <= 0 || cols <= 0 {
		panic(fmt.Sprintf("mat: invalid dimensions %dx%d", rows, cols))
	}
	return &Matrix{rows: rows, cols: cols, data: make([]float64, rows*cols)}
}

// FromRows builds a matrix from row slices. All rows must share one length.
func FromRows(rows [][]float64) *Matrix {
	if len(rows) == 0 || len(rows[0]) == 0 {
		panic("mat: FromRows requires at least one row and column")
	}
	m := New(len(rows), len(rows[0]))
	for i, r := range rows {
		if len(r) != m.cols {
			panic(fmt.Sprintf("mat: ragged row %d: got %d cols, want %d", i, len(r), m.cols))
		}
		copy(m.data[i*m.cols:(i+1)*m.cols], r)
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

// Diag returns a square matrix with d on the diagonal.
func Diag(d ...float64) *Matrix {
	m := New(len(d), len(d))
	for i, v := range d {
		m.Set(i, i, v)
	}
	return m
}

// Rows returns the number of rows.
func (m *Matrix) Rows() int { return m.rows }

// Cols returns the number of columns.
func (m *Matrix) Cols() int { return m.cols }

// At returns the element at (i, j).
func (m *Matrix) At(i, j int) float64 {
	m.check(i, j)
	return m.data[i*m.cols+j]
}

// Set assigns the element at (i, j).
func (m *Matrix) Set(i, j int, v float64) {
	m.check(i, j)
	m.data[i*m.cols+j] = v
}

// Add increments the element at (i, j) by v.
func (m *Matrix) Add(i, j int, v float64) {
	m.check(i, j)
	m.data[i*m.cols+j] += v
}

func (m *Matrix) check(i, j int) {
	if i < 0 || i >= m.rows || j < 0 || j >= m.cols {
		panic(fmt.Sprintf("mat: index (%d,%d) out of range %dx%d", i, j, m.rows, m.cols))
	}
}

// Clone returns a deep copy.
func (m *Matrix) Clone() *Matrix {
	c := New(m.rows, m.cols)
	copy(c.data, m.data)
	return c
}

// Mul returns a * b.
func Mul(a, b *Matrix) *Matrix {
	if a.cols != b.rows {
		panic(fmt.Sprintf("mat: Mul dimension mismatch %dx%d * %dx%d", a.rows, a.cols, b.rows, b.cols))
	}
	out := New(a.rows, b.cols)
	for i := 0; i < a.rows; i++ {
		arow := a.data[i*a.cols : (i+1)*a.cols]
		orow := out.data[i*out.cols : (i+1)*out.cols]
		for k, av := range arow {
			if av == 0 {
				continue
			}
			brow := b.data[k*b.cols : (k+1)*b.cols]
			for j, bv := range brow {
				orow[j] += av * bv
			}
		}
	}
	return out
}

// Sum returns a + b.
func Sum(a, b *Matrix) *Matrix {
	if a.rows != b.rows || a.cols != b.cols {
		panic(fmt.Sprintf("mat: Sum dimension mismatch %dx%d + %dx%d", a.rows, a.cols, b.rows, b.cols))
	}
	out := New(a.rows, a.cols)
	for i := range out.data {
		out.data[i] = a.data[i] + b.data[i]
	}
	return out
}

// Sub returns a - b.
func Sub(a, b *Matrix) *Matrix {
	if a.rows != b.rows || a.cols != b.cols {
		panic(fmt.Sprintf("mat: Sub dimension mismatch %dx%d - %dx%d", a.rows, a.cols, b.rows, b.cols))
	}
	out := New(a.rows, a.cols)
	for i := range out.data {
		out.data[i] = a.data[i] - b.data[i]
	}
	return out
}

// Transpose returns the transpose of a.
func Transpose(a *Matrix) *Matrix {
	out := New(a.cols, a.rows)
	for i := 0; i < a.rows; i++ {
		for j := 0; j < a.cols; j++ {
			out.data[j*out.cols+i] = a.data[i*a.cols+j]
		}
	}
	return out
}

// Symmetrize returns (a + aᵀ)/2, used to keep covariance matrices symmetric
// under floating-point drift.
func Symmetrize(a *Matrix) *Matrix {
	if a.rows != a.cols {
		panic("mat: Symmetrize requires a square matrix")
	}
	out := New(a.rows, a.cols)
	for i := 0; i < a.rows; i++ {
		for j := 0; j < a.cols; j++ {
			out.data[i*a.cols+j] = 0.5 * (a.data[i*a.cols+j] + a.data[j*a.cols+i])
		}
	}
	return out
}

// lu holds an LU factorization with partial pivoting: PA = LU.
type lu struct {
	f    *Matrix // packed L (unit lower, implicit 1s) and U
	perm []int   // row permutation
}

func factorLU(a *Matrix) (*lu, error) {
	if a.rows != a.cols {
		return nil, fmt.Errorf("mat: LU requires square matrix, got %dx%d", a.rows, a.cols)
	}
	n := a.rows
	f := a.Clone()
	perm := make([]int, n)
	for i := range perm {
		perm[i] = i
	}
	for k := 0; k < n; k++ {
		// Partial pivot: largest magnitude in column k at/below the diagonal.
		p, max := k, math.Abs(f.data[k*n+k])
		for i := k + 1; i < n; i++ {
			if v := math.Abs(f.data[i*n+k]); v > max {
				p, max = i, v
			}
		}
		if max == 0 || math.IsNaN(max) {
			return nil, ErrSingular
		}
		if p != k {
			for j := 0; j < n; j++ {
				f.data[k*n+j], f.data[p*n+j] = f.data[p*n+j], f.data[k*n+j]
			}
			perm[k], perm[p] = perm[p], perm[k]
		}
		piv := f.data[k*n+k]
		for i := k + 1; i < n; i++ {
			l := f.data[i*n+k] / piv
			f.data[i*n+k] = l
			for j := k + 1; j < n; j++ {
				f.data[i*n+j] -= l * f.data[k*n+j]
			}
		}
	}
	return &lu{f: f, perm: perm}, nil
}

// solveVec solves Ax = b given the factorization.
func (d *lu) solveVec(b []float64) []float64 {
	n := d.f.rows
	x := make([]float64, n)
	// Apply permutation.
	for i := 0; i < n; i++ {
		x[i] = b[d.perm[i]]
	}
	// Forward substitution (unit lower).
	for i := 1; i < n; i++ {
		for j := 0; j < i; j++ {
			x[i] -= d.f.data[i*n+j] * x[j]
		}
	}
	// Back substitution.
	for i := n - 1; i >= 0; i-- {
		for j := i + 1; j < n; j++ {
			x[i] -= d.f.data[i*n+j] * x[j]
		}
		x[i] /= d.f.data[i*n+i]
	}
	return x
}

// Solve solves A X = B for X. A must be square and nonsingular.
func Solve(a, b *Matrix) (*Matrix, error) {
	if a.rows != b.rows {
		return nil, fmt.Errorf("mat: Solve dimension mismatch %dx%d vs %dx%d", a.rows, a.cols, b.rows, b.cols)
	}
	f, err := factorLU(a)
	if err != nil {
		return nil, err
	}
	out := New(a.rows, b.cols)
	col := make([]float64, a.rows)
	for j := 0; j < b.cols; j++ {
		for i := 0; i < a.rows; i++ {
			col[i] = b.data[i*b.cols+j]
		}
		x := f.solveVec(col)
		for i := 0; i < a.rows; i++ {
			out.data[i*out.cols+j] = x[i]
		}
	}
	return out, nil
}

// SolveVec solves A x = b for a vector b.
func SolveVec(a *Matrix, b []float64) ([]float64, error) {
	if a.rows != len(b) {
		return nil, fmt.Errorf("mat: SolveVec dimension mismatch %dx%d vs %d", a.rows, a.cols, len(b))
	}
	f, err := factorLU(a)
	if err != nil {
		return nil, err
	}
	return f.solveVec(b), nil
}

// Inverse returns A⁻¹.
func Inverse(a *Matrix) (*Matrix, error) {
	return Solve(a, Identity(a.rows))
}

// MulVec returns A v as a new slice.
func MulVec(a *Matrix, v []float64) []float64 {
	if a.cols != len(v) {
		panic(fmt.Sprintf("mat: MulVec dimension mismatch %dx%d * %d", a.rows, a.cols, len(v)))
	}
	out := make([]float64, a.rows)
	for i := 0; i < a.rows; i++ {
		row := a.data[i*a.cols : (i+1)*a.cols]
		var s float64
		for j, rv := range row {
			s += rv * v[j]
		}
		out[i] = s
	}
	return out
}
