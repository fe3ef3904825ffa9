package core

import (
	"errors"
	"math"

	"roadgrade/internal/obs"
)

// obsNIS is the kalman_nis series the generic kalman.Filter also feeds: one
// normalized innovation squared per gated update.
var obsNIS = obs.Default.Histogram("kalman_nis", obs.NISBuckets)

// errSingularInnovation reports an innovation covariance S = P₀₀ + R that is
// zero or NaN, so the gain is undefined.
var errSingularInnovation = errors.New("core: innovation covariance singular")

// gradeFilter is the EKF of §III-C2 over GradeModel's state [v, θ], with
// the measured velocity as its measurement (H = [1 0]). The predict/update
// pair runs up to nine times per sensor record on the phone, so each step
// works on x, P and F as scalars and stores x and P once: no 2×2 array is
// copied through memory.
//
// It performs every floating-point operation of the generic kalman.Filter
// running GradeModel (a Joseph-form covariance update), in the same order.
// Each matrix product entry is summed from +0 in index order, and a zero
// left-hand factor contributes nothing, as in mat.MulInto; that skip decides
// how a NaN or Inf in the covariance spreads. States, covariances and
// innovations are therefore Float64bits-identical to the generic filter's.
//
// The zero value is unusable; build one with newGradeFilter.
type gradeFilter struct {
	model GradeModel
	x     [2]float64 // [v, θ]
	p     [4]float64 // covariance, row-major
	p0    [4]float64 // covariance a reset restores
	q     [4]float64 // process noise
	r     float64    // velocity measurement noise variance
	// maxGrade bounds a plausible |θ| (Config.DivergenceGradeRad).
	maxGrade float64
}

// newGradeFilter returns a filter with the config's noise model for sensor
// period dt and velocity noise σ, at state [v0, 0] with the initial
// covariance.
func newGradeFilter(cfg Config, dt, sigma, v0 float64) gradeFilter {
	f := gradeFilter{
		model: GradeModel{Params: cfg.Params, DT: dt},
		p0:    [4]float64{1, 0, 0, cfg.InitialGradeVar},
		q: [4]float64{
			cfg.ProcessNoiseV * cfg.ProcessNoiseV * dt, 0,
			0, cfg.ProcessNoiseTheta * cfg.ProcessNoiseTheta * dt,
		},
		r:        sigma * sigma,
		maxGrade: cfg.DivergenceGradeRad,
	}
	f.reset(v0)
	return f
}

// reset re-initializes the state to [v0, 0] and the covariance to its
// initial value, keeping the model and noise.
func (f *gradeFilter) reset(v0 float64) {
	f.x = [2]float64{v0, 0}
	f.p = f.p0
}

// predict advances the state one step under specific force accel:
// x = f(x), P = F P Fᵀ + Q.
func (f *gradeFilter) predict(accel float64) {
	f.model.Accel = accel
	v, theta, f00, f01, f10, f11 := f.model.transition(f.x[0], f.x[1])
	f.x[0], f.x[1] = v, theta
	p00, p01, p10, p11 := f.p[0], f.p[1], f.p[2], f.p[3]
	// F·P.
	a00 := mulAdd(mulAdd(0, f00, p00), f01, p10)
	a01 := mulAdd(mulAdd(0, f00, p01), f01, p11)
	a10 := mulAdd(mulAdd(0, f10, p00), f11, p10)
	a11 := mulAdd(mulAdd(0, f10, p01), f11, p11)
	// (F·P)·Fᵀ + Q.
	f.setSymmetric(
		mulAdd(mulAdd(0, a00, f00), a01, f01)+f.q[0],
		mulAdd(mulAdd(0, a00, f10), a01, f11)+f.q[1],
		mulAdd(mulAdd(0, a10, f00), a11, f01)+f.q[2],
		mulAdd(mulAdd(0, a10, f10), a11, f11)+f.q[3],
	)
}

// update folds in the velocity measurement z and returns the innovation
// z − v. With gate > 0 a measurement whose normalized innovation squared
// exceeds the gate is refused: x and P stay as they were and accepted is
// false. A non-finite z is refused the same way without being scored. The
// error reports a singular innovation covariance.
func (f *gradeFilter) update(z, gate float64) (innov float64, accepted bool, err error) {
	if !isFinite(z) {
		return 0, false, nil
	}
	p00, p01, p10, p11 := f.p[0], f.p[1], f.p[2], f.p[3]
	innov = z - f.x[0]
	// H·P, then S = H·P·Hᵀ + R. H's zero entry contributes nothing to H·P,
	// while Hᵀ's is a right-hand factor, so its term stays.
	hp0, hp1 := mulAdd(0, 1, p00), mulAdd(0, 1, p01)
	s := mulAdd(mulAdd(0, hp0, 1), hp1, 0) + f.r
	if s == 0 || math.IsNaN(s) {
		return 0, false, errSingularInnovation
	}
	sInv := 1 / s
	if gate > 0 {
		nis := 0 + innov*(0+sInv*innov)
		obsNIS.Observe(nis)
		if nis > gate {
			return innov, false, nil
		}
	}
	// K = P·Hᵀ·S⁻¹, then x += K·innov.
	k0 := mulAdd(0, mulAdd(mulAdd(0, p00, 1), p01, 0), sInv)
	k1 := mulAdd(0, mulAdd(mulAdd(0, p10, 1), p11, 0), sInv)
	f.x[0] += 0 + k0*innov
	f.x[1] += 0 + k1*innov
	// Joseph form: P = (I − K·H) P (I − K·H)ᵀ + K·R·Kᵀ, with I − K·H as m.
	m00, m01 := 1-mulAdd(0, k0, 1), 0-mulAdd(0, k0, 0)
	m10, m11 := 0-mulAdd(0, k1, 1), 1-mulAdd(0, k1, 0)
	a00 := mulAdd(mulAdd(0, m00, p00), m01, p10)
	a01 := mulAdd(mulAdd(0, m00, p01), m01, p11)
	a10 := mulAdd(mulAdd(0, m10, p00), m11, p10)
	a11 := mulAdd(mulAdd(0, m10, p01), m11, p11)
	kr0, kr1 := mulAdd(0, k0, f.r), mulAdd(0, k1, f.r)
	f.setSymmetric(
		mulAdd(mulAdd(0, a00, m00), a01, m01)+mulAdd(0, kr0, k0),
		mulAdd(mulAdd(0, a00, m10), a01, m11)+mulAdd(0, kr0, k1),
		mulAdd(mulAdd(0, a10, m00), a11, m01)+mulAdd(0, kr1, k0),
		mulAdd(mulAdd(0, a10, m10), a11, m11)+mulAdd(0, kr1, k1),
	)
	return innov, true, nil
}

// setSymmetric stores (B + Bᵀ)/2 as P, entry by entry as mat.SymmetrizeInto
// forms it: the diagonal is 0.5·(b + b), which overflows where b alone
// would not.
func (f *gradeFilter) setSymmetric(b00, b01, b10, b11 float64) {
	f.p[0], f.p[1], f.p[2], f.p[3] = 0.5*(b00+b00), 0.5*(b01+b10), 0.5*(b10+b01), 0.5*(b11+b11)
}

// resetIfDiverged runs the divergence test — a non-finite state or
// covariance, an implausibly steep grade or an impossible speed — and on
// failure resets the filter to speed v0, reporting that it did.
func (f *gradeFilter) resetIfDiverged(v0 float64) bool {
	v, theta := f.x[0], f.x[1]
	healthy := isFinite(v) && isFinite(theta) &&
		isFinite(f.p[0]) && isFinite(f.p[1]) && isFinite(f.p[2]) && isFinite(f.p[3])
	if !healthy || math.Abs(theta) > f.maxGrade ||
		math.Abs(v) > 150 { // m/s; no road vehicle goes there
		f.reset(v0)
		return true
	}
	return false
}

// mulAdd adds one product term a·b to a matrix product entry acc as
// mat.MulInto does: a zero left-hand factor a adds nothing, not even the NaN
// an infinite or NaN b would make.
func mulAdd(acc, a, b float64) float64 {
	if a == 0 {
		return acc
	}
	return acc + a*b
}
