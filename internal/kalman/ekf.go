// Package kalman provides a generic Extended Kalman Filter and an RTS
// smoother over it, used by the altitude-EKF baseline. The filter is generic
// over a user-supplied nonlinear process/measurement model with analytic
// Jacobians, and uses the Joseph-form covariance update for numerical
// robustness over long traces. The road gradient estimator runs its own
// fixed-size [v, θ] filter, which reproduces this one's arithmetic bit for
// bit.
package kalman

import (
	"errors"
	"fmt"
	"math"

	"roadgrade/internal/mat"
	"roadgrade/internal/obs"
)

// nisHist is the distribution of normalized innovation squared across every
// gated update in the process — the filter-consistency signal (NIS ≈ 1 when
// healthy; mass near the gate means the model disagrees with the sensors).
// Observing is three uncontended atomics, cheap enough for the per-tick path.
var nisHist = obs.Default.Histogram("kalman_nis", obs.NISBuckets)

// Model describes a discrete-time nonlinear system
//
//	x(t+1) = f(x(t)) + w,  w ~ N(0, Q)
//	z(t)   = h(x(t)) + v,  v ~ N(0, R)
//
// with analytic Jacobians F = ∂f/∂x and H = ∂h/∂x.
//
// Implementations may reuse one Matrix/slice buffer across calls of the
// same function (the hot models do, to keep the per-tick allocation count
// at zero); callers that retain a returned value past the next call must
// clone it.
type Model struct {
	StateDim int
	MeasDim  int
	// Predict evaluates f.
	Predict func(x []float64) []float64
	// PredictJacobian evaluates F at x.
	PredictJacobian func(x []float64) *mat.Matrix
	// Measure evaluates h.
	Measure func(x []float64) []float64
	// MeasureJacobian evaluates H at x.
	MeasureJacobian func(x []float64) *mat.Matrix
}

// Validate reports whether the model is complete.
func (m Model) Validate() error {
	switch {
	case m.StateDim <= 0:
		return fmt.Errorf("kalman: state dimension %d must be positive", m.StateDim)
	case m.MeasDim <= 0:
		return fmt.Errorf("kalman: measurement dimension %d must be positive", m.MeasDim)
	case m.Predict == nil || m.PredictJacobian == nil:
		return errors.New("kalman: Predict and PredictJacobian are required")
	case m.Measure == nil || m.MeasureJacobian == nil:
		return errors.New("kalman: Measure and MeasureJacobian are required")
	}
	return nil
}

// Filter is an EKF instance. Not safe for concurrent use.
type Filter struct {
	model Model
	x     []float64
	p     *mat.Matrix
	q     *mat.Matrix
	r     *mat.Matrix

	// Scratch buffers reused across steps (and across Reset): the filter
	// runs a predict/update pair per sensor tick, and allocating the
	// intermediates dominated the evaluation suite's heap churn.
	scr scratch
}

// scratch holds the intermediates of one predict/update step.
type scratch struct {
	nnA, nnB, nnC, nnD *mat.Matrix // n×n intermediates
	nnT                *mat.Matrix // n×n transpose scratch
	eye                *mat.Matrix // n×n identity (constant)
	mnHP               *mat.Matrix // m×n  H·P
	nmHT               *mat.Matrix // n×m  Hᵀ
	nmPHT              *mat.Matrix // n×m  P·Hᵀ
	nmK                *mat.Matrix // n×m  gain
	nmKR               *mat.Matrix // n×m  K·R
	mnKT               *mat.Matrix // m×n  Kᵀ
	mmS                *mat.Matrix // m×m  innovation covariance
	mmSInv             *mat.Matrix // m×m
	innov, kv          []float64
}

// NewFilter builds a filter with initial state x0, initial covariance p0,
// process noise q and measurement noise r.
func NewFilter(model Model, x0 []float64, p0, q, r *mat.Matrix) (*Filter, error) {
	if err := model.Validate(); err != nil {
		return nil, err
	}
	n, m := model.StateDim, model.MeasDim
	if len(x0) != n {
		return nil, fmt.Errorf("kalman: x0 has dim %d, want %d", len(x0), n)
	}
	for name, mm := range map[string]*mat.Matrix{"p0": p0, "q": q} {
		if mm == nil || mm.Rows() != n || mm.Cols() != n {
			return nil, fmt.Errorf("kalman: %s must be %dx%d", name, n, n)
		}
	}
	if r == nil || r.Rows() != m || r.Cols() != m {
		return nil, fmt.Errorf("kalman: r must be %dx%d", m, m)
	}
	return &Filter{
		model: model,
		x:     mat.CloneVec(x0),
		p:     p0.Clone(),
		q:     q.Clone(),
		r:     r.Clone(),
		scr:   scratch{eye: mat.Identity(n)},
	}, nil
}

// Predict advances the state one step through the process model.
func (f *Filter) Predict() {
	s := &f.scr
	fj := f.model.PredictJacobian(f.x)
	f.x = f.model.Predict(f.x)
	if len(f.x) != f.model.StateDim {
		panic(fmt.Sprintf("kalman: Predict returned dim %d, want %d", len(f.x), f.model.StateDim))
	}
	// P = F P Fᵀ + Q
	s.nnA = mat.MulInto(s.nnA, fj, f.p)
	s.nnT = mat.TransposeInto(s.nnT, fj)
	s.nnB = mat.MulInto(s.nnB, s.nnA, s.nnT)
	s.nnB = mat.SumInto(s.nnB, s.nnB, f.q)
	f.p = mat.SymmetrizeInto(f.p, s.nnB)
}

// Update folds in measurement z and returns the innovation z − h(x). The
// returned slice is a scratch buffer valid until the next Update; clone it to
// retain.
func (f *Filter) Update(z []float64) ([]float64, error) {
	innov, _, err := f.UpdateGated(z, 0)
	return innov, err
}

// UpdateGated is Update with innovation gating: if gate > 0 and the
// normalized innovation squared νᵀS⁻¹ν exceeds the gate, the measurement is
// rejected — the state and covariance are left untouched — and accepted is
// false. Non-finite measurements are likewise rejected rather than erroring,
// so a stream carrying NaN bursts degrades to prediction-only instead of
// corrupting the filter. The returned innovation is a scratch buffer valid
// until the next update; clone it to retain.
func (f *Filter) UpdateGated(z []float64, gate float64) (innov []float64, accepted bool, err error) {
	if len(z) != f.model.MeasDim {
		return nil, false, fmt.Errorf("kalman: measurement dim %d, want %d", len(z), f.model.MeasDim)
	}
	for _, v := range z {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return nil, false, nil
		}
	}
	s := &f.scr
	h := f.model.MeasureJacobian(f.x)
	pred := f.model.Measure(f.x)
	s.innov = mat.SubVecInto(s.innov, z, pred)

	// S = H P Hᵀ + R
	s.nmHT = mat.TransposeInto(s.nmHT, h)
	s.mnHP = mat.MulInto(s.mnHP, h, f.p)
	s.mmS = mat.MulInto(s.mmS, s.mnHP, s.nmHT)
	s.mmS = mat.SumInto(s.mmS, s.mmS, f.r)
	var sInv *mat.Matrix
	if f.model.MeasDim == 1 {
		// 1×1 inverse inline; same result (and same singularity test) as the
		// LU path below, without the factorization allocations.
		s00 := s.mmS.At(0, 0)
		if s00 == 0 || math.IsNaN(s00) {
			return nil, false, fmt.Errorf("kalman: innovation covariance singular: %w", mat.ErrSingular)
		}
		if s.mmSInv == nil {
			s.mmSInv = mat.New(1, 1)
		}
		s.mmSInv.Set(0, 0, 1/s00)
		sInv = s.mmSInv
	} else {
		var err error
		sInv, err = mat.Inverse(s.mmS)
		if err != nil {
			return nil, false, fmt.Errorf("kalman: innovation covariance singular: %w", err)
		}
	}
	if gate > 0 {
		// νᵀ S⁻¹ ν — for the common 1-D case this is ν²/S.
		var nis float64
		for i := 0; i < f.model.MeasDim; i++ {
			var row float64
			for j := 0; j < f.model.MeasDim; j++ {
				row += sInv.At(i, j) * s.innov[j]
			}
			nis += s.innov[i] * row
		}
		nisHist.Observe(nis)
		if nis > gate {
			return s.innov, false, nil
		}
	}
	// K = P Hᵀ S⁻¹
	s.nmPHT = mat.MulInto(s.nmPHT, f.p, s.nmHT)
	s.nmK = mat.MulInto(s.nmK, s.nmPHT, sInv)
	// x += K·innov
	s.kv = mat.MulVecInto(s.kv, s.nmK, s.innov)
	for i := range f.x {
		f.x[i] += s.kv[i]
	}
	// Joseph form: P = (I−KH) P (I−KH)ᵀ + K R Kᵀ
	s.nnA = mat.MulInto(s.nnA, s.nmK, h)
	s.nnB = mat.SubInto(s.nnB, s.eye, s.nnA)
	s.nnC = mat.MulInto(s.nnC, s.nnB, f.p)
	s.nnT = mat.TransposeInto(s.nnT, s.nnB)
	s.nnD = mat.MulInto(s.nnD, s.nnC, s.nnT)
	s.nmKR = mat.MulInto(s.nmKR, s.nmK, f.r)
	s.mnKT = mat.TransposeInto(s.mnKT, s.nmK)
	s.nnA = mat.MulInto(s.nnA, s.nmKR, s.mnKT)
	s.nnD = mat.SumInto(s.nnD, s.nnD, s.nnA)
	f.p = mat.SymmetrizeInto(f.p, s.nnD)
	return s.innov, true, nil
}

// Healthy reports whether the state and covariance are finite — the
// divergence test callers run before trusting (or resetting) the filter.
func (f *Filter) Healthy() bool {
	for _, v := range f.x {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return false
		}
	}
	n := f.model.StateDim
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			if v := f.p.At(i, j); math.IsNaN(v) || math.IsInf(v, 0) {
				return false
			}
		}
	}
	return true
}

// State returns a copy of the current state estimate.
func (f *Filter) State() []float64 { return mat.CloneVec(f.x) }

// StateAt returns one component of the state estimate without copying.
func (f *Filter) StateAt(i int) float64 { return f.x[i] }

// SetState overwrites the state estimate (e.g. re-anchoring after a gap).
func (f *Filter) SetState(x []float64) error {
	if len(x) != f.model.StateDim {
		return fmt.Errorf("kalman: state dim %d, want %d", len(x), f.model.StateDim)
	}
	f.x = mat.CloneVec(x)
	return nil
}

// Covariance returns a copy of the current estimate covariance.
func (f *Filter) Covariance() *mat.Matrix { return f.p.Clone() }

// CovarianceAt returns one element of the estimate covariance without
// copying the matrix.
func (f *Filter) CovarianceAt(i, j int) float64 { return f.p.At(i, j) }

// Reset reinitializes the state and covariance, keeping the model, noise
// matrices and scratch buffers. It lets one filter run several passes (e.g.
// the forward/backward sweeps of the two-pass estimator) without rebuilding.
func (f *Filter) Reset(x0 []float64, p0 *mat.Matrix) error {
	n := f.model.StateDim
	if len(x0) != n {
		return fmt.Errorf("kalman: x0 has dim %d, want %d", len(x0), n)
	}
	if p0 == nil || p0.Rows() != n || p0.Cols() != n {
		return fmt.Errorf("kalman: p0 must be %dx%d", n, n)
	}
	copy(f.x, x0)
	f.p = mat.CopyInto(f.p, p0)
	return nil
}
