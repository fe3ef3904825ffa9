package mat

import (
	"errors"
	"math"
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"
)

func TestNewAndAccessors(t *testing.T) {
	m := New(2, 3)
	if m.Rows() != 2 || m.Cols() != 3 {
		t.Fatalf("dims = %dx%d, want 2x3", m.Rows(), m.Cols())
	}
	m.Set(1, 2, 4.5)
	if got := m.At(1, 2); got != 4.5 {
		t.Errorf("At(1,2) = %v, want 4.5", got)
	}
	m.Add(1, 2, 0.5)
	if got := m.At(1, 2); got != 5.0 {
		t.Errorf("after Add, At(1,2) = %v, want 5.0", got)
	}
}

func TestFromRows(t *testing.T) {
	m := FromRows([][]float64{{1, 2}, {3, 4}})
	if m.At(0, 1) != 2 || m.At(1, 0) != 3 {
		t.Errorf("FromRows layout wrong: %v", m)
	}
}

func TestFromRowsRaggedPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("FromRows with ragged rows did not panic")
		}
	}()
	FromRows([][]float64{{1, 2}, {3}})
}

func TestIdentityAndDiag(t *testing.T) {
	mustEqual(t, Identity(3), Diag(1, 1, 1), "Identity(3) against Diag(1,1,1)")
}

func TestMul(t *testing.T) {
	a := FromRows([][]float64{{1, 2}, {3, 4}})
	b := FromRows([][]float64{{5, 6}, {7, 8}})
	mustEqual(t, Mul(a, b), FromRows([][]float64{{19, 22}, {43, 50}}), "Mul")
}

func TestMulIdentity(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	a := randomMatrix(rng, 4, 4)
	mustEqual(t, Mul(a, Identity(4)), a, "A*I")
	mustEqual(t, Mul(Identity(4), a), a, "I*A")
}

func TestSumSub(t *testing.T) {
	a := FromRows([][]float64{{1, 2}, {3, 4}})
	b := FromRows([][]float64{{4, 3}, {2, 1}})
	mustEqual(t, Sum(a, b), FromRows([][]float64{{5, 5}, {5, 5}}), "Sum")
	mustEqual(t, Sub(a, b), FromRows([][]float64{{-3, -1}, {1, 3}}), "Sub")
}

func TestTranspose(t *testing.T) {
	a := FromRows([][]float64{{1, 2, 3}, {4, 5, 6}})
	at := Transpose(a)
	if at.Rows() != 3 || at.Cols() != 2 {
		t.Fatalf("transpose dims %dx%d", at.Rows(), at.Cols())
	}
	for i := 0; i < 2; i++ {
		for j := 0; j < 3; j++ {
			if a.At(i, j) != at.At(j, i) {
				t.Fatalf("transpose mismatch at (%d,%d)", i, j)
			}
		}
	}
}

func TestSolveKnownSystem(t *testing.T) {
	a := FromRows([][]float64{{2, 1}, {1, 3}})
	b := FromRows([][]float64{{3}, {5}})
	x, err := Solve(a, b)
	if err != nil {
		t.Fatalf("Solve: %v", err)
	}
	// 2x + y = 3; x + 3y = 5 => x = 4/5, y = 7/5.
	if math.Abs(x.At(0, 0)-0.8) > 1e-12 || math.Abs(x.At(1, 0)-1.4) > 1e-12 {
		t.Errorf("Solve = %v", x)
	}
}

func TestSolveSingular(t *testing.T) {
	a := FromRows([][]float64{{1, 2}, {2, 4}})
	if _, err := Solve(a, Identity(2)); !errors.Is(err, ErrSingular) {
		t.Errorf("Solve singular err = %v, want ErrSingular", err)
	}
}

func TestInverseRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for n := 1; n <= 6; n++ {
		a := diagonallyDominant(rng, n)
		inv, err := Inverse(a)
		if err != nil {
			t.Fatalf("n=%d Inverse: %v", n, err)
		}
		prod, id := Mul(a, inv), Identity(n)
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				if d := math.Abs(prod.At(i, j) - id.At(i, j)); d > 1e-9 {
					t.Errorf("n=%d: (A*A^-1 - I)[%d][%d] = %g", n, i, j, d)
				}
			}
		}
	}
}

func TestMulVec(t *testing.T) {
	a := FromRows([][]float64{{1, 2}, {3, 4}})
	got := MulVec(a, []float64{1, 1})
	if got[0] != 3 || got[1] != 7 {
		t.Errorf("MulVec = %v", got)
	}
}

func TestSymmetrize(t *testing.T) {
	a := FromRows([][]float64{{1, 2}, {4, 3}})
	s := Symmetrize(a)
	if s.At(0, 1) != 3 || s.At(1, 0) != 3 {
		t.Errorf("Symmetrize = %v", s)
	}
}

func TestClone(t *testing.T) {
	a := FromRows([][]float64{{1, 2}, {3, 4}})
	cl := a.Clone()
	cl.Set(0, 0, -1)
	if a.At(0, 0) != 1 {
		t.Error("Clone aliases original")
	}
}

// Property: Solve(A, b) recovers x with Ax = b for diagonally dominant A.
func TestSolveProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := 1 + r.Intn(5)
		a := diagonallyDominant(r, n)
		x := make([]float64, n)
		for i := range x {
			x[i] = r.NormFloat64()
		}
		b := MulVec(a, x)
		got, err := SolveVec(a, b)
		if err != nil {
			return false
		}
		for i := range x {
			if math.Abs(got[i]-x[i]) > 1e-8 {
				return false
			}
		}
		return true
	}
	cfg := &quick.Config{MaxCount: 200, Rand: rng}
	if err := quick.Check(f, cfg); err != nil {
		t.Error(err)
	}
}

// Property: (A B)^T = B^T A^T, bit for bit: both sides sum the same products
// in the same order.
func TestTransposeMulProperty(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n, m, p := 1+r.Intn(4), 1+r.Intn(4), 1+r.Intn(4)
		a := randomMatrix(r, n, m)
		b := randomMatrix(r, m, p)
		lhs := Transpose(Mul(a, b))
		rhs := Mul(Transpose(b), Transpose(a))
		return reflect.DeepEqual(lhs, rhs)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestVecHelpers(t *testing.T) {
	u := []float64{1, 2, 3}
	v := []float64{4, 5, 6}
	if got := SubVec(v, u); got[0] != 3 || got[2] != 3 {
		t.Errorf("SubVec = %v", got)
	}
	c := CloneVec(u)
	c[0] = 9
	if u[0] != 1 {
		t.Error("CloneVec aliases input")
	}
}

func randomMatrix(r *rand.Rand, rows, cols int) *Matrix {
	m := New(rows, cols)
	for i := 0; i < rows; i++ {
		for j := 0; j < cols; j++ {
			m.Set(i, j, r.NormFloat64())
		}
	}
	return m
}

// diagonallyDominant returns a random well-conditioned square matrix.
func diagonallyDominant(r *rand.Rand, n int) *Matrix {
	m := randomMatrix(r, n, n)
	for i := 0; i < n; i++ {
		var rowSum float64
		for j := 0; j < n; j++ {
			rowSum += math.Abs(m.At(i, j))
		}
		m.Set(i, i, rowSum+1)
	}
	return m
}

func BenchmarkMul4x4(b *testing.B) {
	rng := rand.New(rand.NewSource(3))
	x := randomMatrix(rng, 4, 4)
	y := randomMatrix(rng, 4, 4)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		Mul(x, y)
	}
}

func BenchmarkInverse4x4(b *testing.B) {
	rng := rand.New(rand.NewSource(3))
	x := diagonallyDominant(rng, 4)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := Inverse(x); err != nil {
			b.Fatal(err)
		}
	}
}
