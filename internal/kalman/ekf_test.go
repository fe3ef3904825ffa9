package kalman

import (
	"math"
	"math/rand"
	"testing"

	"roadgrade/internal/mat"
)

// constVelModel is a linear constant-velocity model: state [pos, vel],
// measurement pos.
func constVelModel(dt float64) Model {
	return Model{
		StateDim: 2,
		MeasDim:  1,
		Predict: func(x []float64) []float64 {
			return []float64{x[0] + dt*x[1], x[1]}
		},
		PredictJacobian: func(x []float64) *mat.Matrix {
			return mat.FromRows([][]float64{{1, dt}, {0, 1}})
		},
		Measure: func(x []float64) []float64 { return []float64{x[0]} },
		MeasureJacobian: func(x []float64) *mat.Matrix {
			return mat.FromRows([][]float64{{1, 0}})
		},
	}
}

func TestModelValidate(t *testing.T) {
	good := constVelModel(0.1)
	if err := good.Validate(); err != nil {
		t.Fatalf("valid model rejected: %v", err)
	}
	tests := []struct {
		name   string
		mutate func(*Model)
	}{
		{"state-dim", func(m *Model) { m.StateDim = 0 }},
		{"meas-dim", func(m *Model) { m.MeasDim = 0 }},
		{"predict", func(m *Model) { m.Predict = nil }},
		{"predict-jac", func(m *Model) { m.PredictJacobian = nil }},
		{"measure", func(m *Model) { m.Measure = nil }},
		{"measure-jac", func(m *Model) { m.MeasureJacobian = nil }},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			m := constVelModel(0.1)
			tt.mutate(&m)
			if err := m.Validate(); err == nil {
				t.Error("expected validation error")
			}
		})
	}
}

func TestNewFilterValidation(t *testing.T) {
	m := constVelModel(0.1)
	p := mat.Identity(2)
	q := mat.Diag(0.01, 0.01)
	r := mat.Diag(0.5)
	if _, err := NewFilter(m, []float64{0}, p, q, r); err == nil {
		t.Error("wrong x0 dim should error")
	}
	if _, err := NewFilter(m, []float64{0, 0}, mat.Identity(3), q, r); err == nil {
		t.Error("wrong p0 dim should error")
	}
	if _, err := NewFilter(m, []float64{0, 0}, p, nil, r); err == nil {
		t.Error("nil q should error")
	}
	if _, err := NewFilter(m, []float64{0, 0}, p, q, mat.Identity(2)); err == nil {
		t.Error("wrong r dim should error")
	}
	bad := m
	bad.Predict = nil
	if _, err := NewFilter(bad, []float64{0, 0}, p, q, r); err == nil {
		t.Error("invalid model should error")
	}
}

func TestFilterTracksConstantVelocity(t *testing.T) {
	const dt = 0.1
	m := constVelModel(dt)
	f, err := NewFilter(m,
		[]float64{0, 0},
		mat.Diag(10, 10),
		mat.Diag(1e-5, 1e-4),
		mat.Diag(0.25),
	)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(1))
	const trueVel = 3.0
	for i := 0; i < 600; i++ {
		truePos := trueVel * dt * float64(i)
		f.Predict()
		if _, err := f.Update([]float64{truePos + rng.NormFloat64()*0.5}); err != nil {
			t.Fatal(err)
		}
	}
	if v := f.StateAt(1); math.Abs(v-trueVel) > 0.1 {
		t.Errorf("velocity estimate %v, want ~%v", v, trueVel)
	}
	// Covariance must have contracted from the generous prior.
	p := f.Covariance()
	if p.At(0, 0) >= 10 || p.At(1, 1) >= 10 {
		t.Errorf("covariance did not contract: %v", p)
	}
}

// A nonlinear model: state [x], measurement x².
func TestFilterNonlinearMeasurement(t *testing.T) {
	m := Model{
		StateDim: 1,
		MeasDim:  1,
		Predict:  func(x []float64) []float64 { return []float64{x[0]} },
		PredictJacobian: func(x []float64) *mat.Matrix {
			return mat.Diag(1)
		},
		Measure: func(x []float64) []float64 { return []float64{x[0] * x[0]} },
		MeasureJacobian: func(x []float64) *mat.Matrix {
			return mat.Diag(2 * x[0])
		},
	}
	f, err := NewFilter(m, []float64{2.5}, mat.Diag(1), mat.Diag(1e-6), mat.Diag(0.01))
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(2))
	const trueX = 3.0
	for i := 0; i < 300; i++ {
		f.Predict()
		if _, err := f.Update([]float64{trueX*trueX + rng.NormFloat64()*0.1}); err != nil {
			t.Fatal(err)
		}
	}
	if got := f.StateAt(0); math.Abs(got-trueX) > 0.05 {
		t.Errorf("nonlinear estimate %v, want ~%v", got, trueX)
	}
}

func TestCovarianceStaysPSD(t *testing.T) {
	const dt = 0.05
	m := constVelModel(dt)
	f, err := NewFilter(m,
		[]float64{0, 0},
		mat.Diag(100, 100),
		mat.Diag(1e-6, 1e-5),
		mat.Diag(0.01),
	)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(3))
	for i := 0; i < 2000; i++ {
		f.Predict()
		if i%3 == 0 { // intermittent measurements, like GPS
			if _, err := f.Update([]float64{rng.NormFloat64() * 3}); err != nil {
				t.Fatal(err)
			}
		}
		// Sylvester's criterion on the symmetrized 2×2 covariance, with
		// 1e-9 of slack on the diagonal.
		p := f.Covariance()
		a, b, d := p.At(0, 0)+1e-9, (p.At(0, 1)+p.At(1, 0))/2, p.At(1, 1)+1e-9
		if !(a > 0 && a*d-b*b > 0) {
			t.Fatalf("covariance lost PSD at step %d", i)
		}
	}
}

func TestInnovationReturned(t *testing.T) {
	m := constVelModel(0.1)
	f, err := NewFilter(m, []float64{5, 0}, mat.Diag(1, 1), mat.Diag(1e-6, 1e-6), mat.Diag(1))
	if err != nil {
		t.Fatal(err)
	}
	innov, err := f.Update([]float64{7})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(innov[0]-2) > 1e-12 {
		t.Errorf("innovation = %v, want 2", innov[0])
	}
}

func TestUpdateDimensionError(t *testing.T) {
	m := constVelModel(0.1)
	f, _ := NewFilter(m, []float64{0, 0}, mat.Diag(1, 1), mat.Diag(1, 1), mat.Diag(1))
	if _, err := f.Update([]float64{1, 2}); err == nil {
		t.Error("wrong measurement dim should error")
	}
}

func TestCovarianceIsCopy(t *testing.T) {
	m := constVelModel(0.1)
	f, _ := NewFilter(m, []float64{1, 2}, mat.Diag(1, 1), mat.Diag(1, 1), mat.Diag(1))
	p := f.Covariance()
	p.Set(0, 0, 99)
	if f.Covariance().At(0, 0) == 99 {
		t.Error("Covariance aliases filter internals")
	}
}

func BenchmarkPredictUpdate(b *testing.B) {
	m := constVelModel(0.05)
	f, err := NewFilter(m, []float64{0, 0}, mat.Diag(1, 1), mat.Diag(1e-5, 1e-4), mat.Diag(0.25))
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		f.Predict()
		if _, err := f.Update([]float64{float64(i % 100)}); err != nil {
			b.Fatal(err)
		}
	}
}
