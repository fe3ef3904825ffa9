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
// the measured velocity as its measurement (H = [1 0]), on fixed-size
// arrays: the predict/update pair runs up to nine times per sensor record on
// the phone, and the generic matrix layer's calls dominated its cost.
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
	next, jac := f.model.transition(f.x)
	f.x = next
	fp := mul2(jac, f.p)
	b := mul2(fp, transpose2(jac))
	for i := range b {
		b[i] += f.q[i]
	}
	f.p = symmetrize2(b)
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
	innov = z - f.x[0]
	// H·P, then S = H·P·Hᵀ + R. H's zero entry contributes nothing to H·P,
	// while Hᵀ's is a right-hand factor, so its term stays.
	hp := [2]float64{mulAdd(0, 1, f.p[0]), mulAdd(0, 1, f.p[1])}
	s := mulAdd(mulAdd(0, hp[0], 1), hp[1], 0) + f.r
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
	var k [2]float64
	for i := range k {
		pht := mulAdd(mulAdd(0, f.p[2*i], 1), f.p[2*i+1], 0)
		k[i] = mulAdd(0, pht, sInv)
		f.x[i] += 0 + k[i]*innov
	}
	// Joseph form: P = (I − K·H) P (I − K·H)ᵀ + K·R·Kᵀ.
	ikh := [4]float64{
		1 - mulAdd(0, k[0], 1), 0 - mulAdd(0, k[0], 0),
		0 - mulAdd(0, k[1], 1), 1 - mulAdd(0, k[1], 0),
	}
	d := mul2(mul2(ikh, f.p), transpose2(ikh))
	kr := [2]float64{mulAdd(0, k[0], f.r), mulAdd(0, k[1], f.r)}
	for i := range d {
		d[i] += mulAdd(0, kr[i/2], k[i%2])
	}
	f.p = symmetrize2(d)
	return innov, true, nil
}

// resetIfDiverged runs the divergence test — a non-finite state or
// covariance, an implausibly steep grade or an impossible speed — and on
// failure resets the filter to speed v0, reporting that it did.
func (f *gradeFilter) resetIfDiverged(v0 float64) bool {
	healthy := isFinite(f.x[0]) && isFinite(f.x[1])
	for _, v := range f.p {
		healthy = healthy && isFinite(v)
	}
	if !healthy || math.Abs(f.x[1]) > f.maxGrade ||
		math.Abs(f.x[0]) > 150 { // m/s; no road vehicle goes there
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

// mul2 returns the row-major 2×2 product a·b.
func mul2(a, b [4]float64) [4]float64 {
	return [4]float64{
		mulAdd(mulAdd(0, a[0], b[0]), a[1], b[2]), mulAdd(mulAdd(0, a[0], b[1]), a[1], b[3]),
		mulAdd(mulAdd(0, a[2], b[0]), a[3], b[2]), mulAdd(mulAdd(0, a[2], b[1]), a[3], b[3]),
	}
}

func transpose2(a [4]float64) [4]float64 { return [4]float64{a[0], a[2], a[1], a[3]} }

// symmetrize2 returns (a + aᵀ)/2, entry by entry as mat.SymmetrizeInto
// forms it.
func symmetrize2(a [4]float64) [4]float64 {
	return [4]float64{
		0.5 * (a[0] + a[0]), 0.5 * (a[1] + a[2]),
		0.5 * (a[2] + a[1]), 0.5 * (a[3] + a[3]),
	}
}
