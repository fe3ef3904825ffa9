package mat

import "fmt"

// In-place variants of the allocation-heavy operations. They exist for hot
// loops — kalman.Filter runs a predict/update pair per sensor tick, and the
// allocating API was the dominant heap churn of the evaluation suite. Each
// *Into function reuses dst when it has the right shape (allocating
// otherwise) and returns it, and performs the exact same arithmetic in the
// same order as its allocating counterpart, so results are bit-identical.

// ensureShape returns dst if it is rows x cols, else a fresh matrix.
func ensureShape(dst *Matrix, rows, cols int) *Matrix {
	if dst == nil || dst.rows != rows || dst.cols != cols {
		return New(rows, cols)
	}
	return dst
}

// MulInto computes a*b into dst and returns it. dst must not alias a or b.
func MulInto(dst, a, b *Matrix) *Matrix {
	if a.cols != b.rows {
		panic(fmt.Sprintf("mat: MulInto dimension mismatch %dx%d * %dx%d", a.rows, a.cols, b.rows, b.cols))
	}
	dst = ensureShape(dst, a.rows, b.cols)
	if dst == a || dst == b {
		panic("mat: MulInto dst aliases an input")
	}
	for i := range dst.data {
		dst.data[i] = 0
	}
	for i := 0; i < a.rows; i++ {
		arow := a.data[i*a.cols : (i+1)*a.cols]
		orow := dst.data[i*dst.cols : (i+1)*dst.cols]
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
	return dst
}

// TransposeInto computes aᵀ into dst and returns it. dst must not alias a.
func TransposeInto(dst, a *Matrix) *Matrix {
	dst = ensureShape(dst, a.cols, a.rows)
	if dst == a {
		panic("mat: TransposeInto dst aliases the input")
	}
	for i := 0; i < a.rows; i++ {
		for j := 0; j < a.cols; j++ {
			dst.data[j*dst.cols+i] = a.data[i*a.cols+j]
		}
	}
	return dst
}

// SumInto computes a+b into dst and returns it. dst may alias a or b.
func SumInto(dst, a, b *Matrix) *Matrix {
	if a.rows != b.rows || a.cols != b.cols {
		panic(fmt.Sprintf("mat: SumInto dimension mismatch %dx%d + %dx%d", a.rows, a.cols, b.rows, b.cols))
	}
	dst = ensureShape(dst, a.rows, a.cols)
	for i := range dst.data {
		dst.data[i] = a.data[i] + b.data[i]
	}
	return dst
}

// SubInto computes a-b into dst and returns it. dst may alias a or b.
func SubInto(dst, a, b *Matrix) *Matrix {
	if a.rows != b.rows || a.cols != b.cols {
		panic(fmt.Sprintf("mat: SubInto dimension mismatch %dx%d - %dx%d", a.rows, a.cols, b.rows, b.cols))
	}
	dst = ensureShape(dst, a.rows, a.cols)
	for i := range dst.data {
		dst.data[i] = a.data[i] - b.data[i]
	}
	return dst
}

// SymmetrizeInto computes (a + aᵀ)/2 into dst and returns it. dst must not
// alias a (elements are read transposed after their mirror is written).
func SymmetrizeInto(dst, a *Matrix) *Matrix {
	if a.rows != a.cols {
		panic("mat: SymmetrizeInto requires a square matrix")
	}
	dst = ensureShape(dst, a.rows, a.cols)
	if dst == a {
		panic("mat: SymmetrizeInto dst aliases the input")
	}
	for i := 0; i < a.rows; i++ {
		for j := 0; j < a.cols; j++ {
			dst.data[i*a.cols+j] = 0.5 * (a.data[i*a.cols+j] + a.data[j*a.cols+i])
		}
	}
	return dst
}

// MulVecInto computes A*v into dst (reused when len matches) and returns it.
// dst must not alias v.
func MulVecInto(dst []float64, a *Matrix, v []float64) []float64 {
	if a.cols != len(v) {
		panic(fmt.Sprintf("mat: MulVecInto dimension mismatch %dx%d * %d", a.rows, a.cols, len(v)))
	}
	if len(dst) != a.rows {
		dst = make([]float64, a.rows)
	}
	for i := 0; i < a.rows; i++ {
		row := a.data[i*a.cols : (i+1)*a.cols]
		var s float64
		for j, rv := range row {
			s += rv * v[j]
		}
		dst[i] = s
	}
	return dst
}

// SubVecInto computes u-v into dst (reused when len matches) and returns it.
func SubVecInto(dst, u, v []float64) []float64 {
	if len(u) != len(v) {
		panic(fmt.Sprintf("mat: SubVecInto length mismatch %d vs %d", len(u), len(v)))
	}
	if len(dst) != len(u) {
		dst = make([]float64, len(u))
	}
	for i := range u {
		dst[i] = u[i] - v[i]
	}
	return dst
}

// CopyInto copies a into dst (reusing dst when shapes match) and returns it.
func CopyInto(dst, a *Matrix) *Matrix {
	dst = ensureShape(dst, a.rows, a.cols)
	copy(dst.data, a.data)
	return dst
}
