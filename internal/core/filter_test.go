package core

import (
	"errors"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"testing"

	"roadgrade/internal/kalman"
	"roadgrade/internal/mat"
	"roadgrade/internal/sensors"
	"roadgrade/internal/vehicle"
)

// kalmanModel adapts GradeModel to the generic EKF interface. It is the
// reference gradeFilter is checked against: each closure evaluates its part
// of Eq. (5) on its own, reusing one output buffer per function as the
// kalman.Model contract allows. All inputs are read into locals before the
// shared buffer is written, so aliasing x with a previous output is safe.
func (g *GradeModel) kalmanModel() kalman.Model {
	predictOut := make([]float64, 2)
	fj := mat.FromRows([][]float64{{1, 0}, {0, 1}})
	measureOut := make([]float64, 1)
	hj := mat.FromRows([][]float64{{1, 0}})
	return kalman.Model{
		StateDim: 2,
		MeasDim:  1,
		Predict: func(x []float64) []float64 {
			v, theta := x[0], clampGrade(x[1])
			vNext := v + (g.Accel-vehicle.Gravity*math.Sin(theta))*g.DT
			thetaNext := theta + g.Params.GradeDrift(v, g.Accel, theta)*g.DT
			predictOut[0] = math.Max(0, vNext)
			predictOut[1] = clampGrade(thetaNext)
			return predictOut
		},
		PredictJacobian: func(x []float64) *mat.Matrix {
			v, theta := x[0], clampGrade(x[1])
			cos := math.Cos(theta)
			k := g.Params.AirDensity * g.Params.FrontalAreaM2 * g.Params.DragCoeff /
				(g.Params.MassKg * vehicle.Gravity)
			fj.Set(0, 0, 1)
			fj.Set(0, 1, -vehicle.Gravity*cos*g.DT)
			fj.Set(1, 0, k*g.Accel*g.DT/cos)
			fj.Set(1, 1, 1+k*v*g.Accel*g.DT*math.Sin(theta)/(cos*cos))
			return fj
		},
		Measure: func(x []float64) []float64 {
			measureOut[0] = x[0]
			return measureOut
		},
		MeasureJacobian: func(x []float64) *mat.Matrix { return hj },
	}
}

// FilterPair runs gradeFilter and its reference side by side: kalman.Filter
// over GradeModel.kalmanModel, with the divergence test and reset the
// pipeline and the streaming estimator each ran on it. Exported for the
// external test package, which drives it with faultinject traces.
type FilterPair struct {
	f        gradeFilter
	gate     float64
	ref      *kalman.Filter
	refModel *GradeModel
}

// StepOutcome is what one predict/update step did, identically on both
// sides.
type StepOutcome struct {
	Accepted bool  // the measurement was folded in
	Err      error // the update's error; the pipeline stops on it
}

// NewFilterPair pairs the filters EstimateTrack builds for src under the
// default Config at speed v0, sweeping backward in time (Δt < 0) if asked.
func NewFilterPair(src sensors.VelocitySource, dt, v0 float64, backward bool) (*FilterPair, error) {
	cfg := Config{}.withDefaults()
	f := newGradeFilter(cfg, dt, sourceNoise(src), v0)
	if backward {
		f.model.DT = -dt
	}
	return newFilterPair(f, cfg.NISGate)
}

// newFilterPair builds the reference from f's model, state, covariance and
// noise.
func newFilterPair(f gradeFilter, gate float64) (*FilterPair, error) {
	model := &GradeModel{Params: f.model.Params, DT: f.model.DT}
	rows := func(a [4]float64) *mat.Matrix { return mat.FromRows([][]float64{{a[0], a[1]}, {a[2], a[3]}}) }
	ref, err := kalman.NewFilter(model.kalmanModel(), f.x[:], rows(f.p), rows(f.q), mat.Diag(f.r))
	if err != nil {
		return nil, err
	}
	return &FilterPair{f: f, gate: gate, ref: ref, refModel: model}, nil
}

// Step predicts under accel and, if valid, folds in z through the gated
// update, on both sides. It returns an error naming the first difference: in
// x or P by Float64bits after each stage, in the innovation, in the
// acceptance or error outcome, or in how many kalman_nis observations the
// update made.
func (fp *FilterPair) Step(accel, z float64, valid bool) (StepOutcome, error) {
	fp.f.predict(accel)
	fp.refModel.Accel = accel
	fp.ref.Predict()
	if err := fp.sameState("predict"); err != nil || !valid {
		return StepOutcome{}, err
	}
	n0 := obsNIS.Count()
	innov, accepted, err := fp.f.update(z, fp.gate)
	n1 := obsNIS.Count()
	refInnov, refAccepted, refErr := fp.ref.UpdateGated([]float64{z}, fp.gate)
	n2 := obsNIS.Count()
	switch {
	case accepted != refAccepted || (err == nil) != (refErr == nil):
		return StepOutcome{}, fmt.Errorf("update: accepted %v, error %v; reference accepted %v, error %v", accepted, err, refAccepted, refErr)
	case refInnov != nil && !sameBits(innov, refInnov[0]):
		return StepOutcome{}, fmt.Errorf("update: innovation %v, reference %v", innov, refInnov[0])
	case n1-n0 != n2-n1:
		return StepOutcome{}, fmt.Errorf("update: %d kalman_nis observations, reference %d", n1-n0, n2-n1)
	}
	return StepOutcome{Accepted: accepted, Err: err}, fp.sameState("update")
}

// ResetIfDiverged runs the divergence test on both sides, resetting to
// speed v0, and reports whether it reset, or an error naming a difference.
func (fp *FilterPair) ResetIfDiverged(v0 float64) (bool, error) {
	reset := fp.f.resetIfDiverged(v0)
	refReset := !fp.ref.Healthy() ||
		math.Abs(fp.ref.StateAt(1)) > fp.f.maxGrade || math.Abs(fp.ref.StateAt(0)) > 150
	if refReset {
		if err := fp.ref.Reset([]float64{v0, 0}, mat.Diag(1, fp.f.p0[3])); err != nil {
			return false, err
		}
	}
	if reset != refReset {
		return false, fmt.Errorf("divergence reset %v, reference %v", reset, refReset)
	}
	return reset, fp.sameState("divergence check")
}

func (fp *FilterPair) sameState(stage string) error {
	for i, v := range fp.f.x {
		if want := fp.ref.StateAt(i); !sameBits(v, want) {
			return fmt.Errorf("after %s: x[%d] = %v (%#x), reference %v (%#x)", stage, i, v, math.Float64bits(v), want, math.Float64bits(want))
		}
	}
	for i, v := range fp.f.p {
		if want := fp.ref.CovarianceAt(i/2, i%2); !sameBits(v, want) {
			return fmt.Errorf("after %s: P[%d][%d] = %v (%#x), reference %v (%#x)", stage, i/2, i%2, v, math.Float64bits(v), want, math.Float64bits(want))
		}
	}
	return nil
}

func sameBits(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }

// fuzzDT is the sensor period of FuzzGradeFilterStep's filters, the
// simulator's 20 Hz.
const fuzzDT = 0.05

// gradeStepCase is one FuzzGradeFilterStep input: the state, the
// covariance, the specific force, the sweep direction, the measurement, the
// measurement noise variance and the gate.
type gradeStepCase struct {
	v, theta, p00, p01, p10, p11, accel float64
	backward                            bool
	z, r, gate                          float64
}

// gradeStepResult is what one FuzzGradeFilterStep input did.
type gradeStepResult struct {
	StepOutcome
	reset bool
}

// gradeStep runs one step of c and the divergence check through a
// FilterPair, with z as the speed a reset restores.
func gradeStep(c gradeStepCase) (gradeStepResult, error) {
	f := newGradeFilter(Config{}.withDefaults(), fuzzDT, 0, 0)
	if c.backward {
		f.model.DT = -fuzzDT
	}
	f.x = [2]float64{c.v, c.theta}
	f.p = [4]float64{c.p00, c.p01, c.p10, c.p11}
	f.r = c.r
	fp, err := newFilterPair(f, c.gate)
	if err != nil {
		return gradeStepResult{}, err
	}
	o, err := fp.Step(c.accel, c.z, true)
	if err != nil || o.Err != nil {
		return gradeStepResult{StepOutcome: o}, err
	}
	reset, err := fp.ResetIfDiverged(c.z)
	return gradeStepResult{o, reset}, err
}

var negZero = math.Copysign(0, -1)

// gradeStepCases are FuzzGradeFilterStep's seed corpus, each with the
// outcome it must have: testdata/fuzz/FuzzGradeFilterStep holds one file per
// case, named after it (TestGradeFilterStepCorpus keeps the two in step).
var gradeStepCases = []struct {
	name string
	in   gradeStepCase
	want string // accepted | gated | refused | singular | reset
}{
	{"nominal", gradeStepCase{12, 0.02, 0.01, 1e-4, 1e-4, 1e-3, 0.3, false, 12.1, 0.0625, 25}, "accepted"},
	{"backward", gradeStepCase{12, 0.02, 0.01, 1e-4, 1e-4, 1e-3, 0.3, true, 12.1, 0.0625, 25}, "accepted"},
	{"ungated", gradeStepCase{12, -0.05, 0.5, -0.01, -0.01, 0.002, -1.5, false, 30, 0.0064, -1}, "accepted"},
	{"gated-out", gradeStepCase{12, 0.02, 0.01, 1e-4, 1e-4, 1e-3, 0.3, false, 40, 0.0625, 25}, "gated"},
	// P = 0, so S = Q₀₀ + r = 0.250125 and NIS = 2²/S: the gate is that
	// NIS exactly, then the float64 just below it.
	{"nis-at-gate", gradeStepCase{10, 0, 0, 0, 0, 0, 0, false, 12, 0.25, 15.992003998001}, "accepted"},
	{"nis-above-gate", gradeStepCase{10, 0, 0, 0, 0, 0, 0, false, 12, 0.25, 15.992003998000998}, "gated"},
	{"nan-z", gradeStepCase{12, 0.02, 0.01, 1e-4, 1e-4, 1e-3, 0.3, false, math.NaN(), 0.0625, 25}, "refused"},
	{"inf-z", gradeStepCase{12, 0.02, 0.01, 1e-4, 1e-4, 1e-3, 0.3, false, math.Inf(1), 0.0625, 25}, "refused"},
	{"neg-inf-z", gradeStepCase{12, 0.02, 0.01, 1e-4, 1e-4, 1e-3, 0.3, false, math.Inf(-1), 0.0625, 25}, "refused"},
	{"nan-p", gradeStepCase{12, 0.02, 0.01, math.NaN(), 1e-4, 1e-3, 0.3, false, 12.1, 0.0625, 25}, "singular"},
	{"inf-p", gradeStepCase{12, 0.02, 0.01, 1e-4, 1e-4, math.Inf(1), 0.3, false, 12.1, 0.0625, 25}, "singular"},
	// With â = 0, F₁₀ = 0: mat.MulInto skips it, so F·P's second row never
	// meets the infinite P₀₀ and P₁₁ stays finite.
	{"inf-p-zero-jacobian", gradeStepCase{12, 0.02, math.Inf(1), 0, 0, 1e-3, 0, false, 12.1, 0.0625, 25}, "singular"},
	// (a + aᵀ)/2 overflows on a diagonal entry past MaxFloat64/2 where the
	// entry itself would not.
	{"overflowing-p", gradeStepCase{12, 0.02, 1e308, 1e-4, 1e-4, 1e-3, 0.3, false, 12.1, 0.0625, 25}, "reset"},
	// P = 0 and r = −Q₀₀ make S exactly 0.
	{"singular", gradeStepCase{10, 0, 0, 0, 0, 0, 0, false, 10, -0.00012500000000000003, 25}, "singular"},
	{"negative-zero", gradeStepCase{negZero, negZero, 0.01, negZero, negZero, 1e-3, negZero, false, negZero, 0.0625, 25}, "accepted"},
	// A finite 1e5 m/s² spike drives v past 150 m/s.
	{"diverges", gradeStepCase{140, 0.02, 0.01, 1e-4, 1e-4, 1e-3, 1e5, false, 140, 0.0625, 25}, "reset"},
}

// TestGradeFilterStepCases runs the seed table through both filters and
// checks each case takes the path it is named for.
func TestGradeFilterStepCases(t *testing.T) {
	for _, tc := range gradeStepCases {
		t.Run(tc.name, func(t *testing.T) {
			n0 := obsNIS.Count()
			o, err := gradeStep(tc.in)
			if err != nil {
				t.Fatal(err)
			}
			var got string
			switch {
			case errors.Is(o.Err, errSingularInnovation):
				got = "singular"
			case o.Err != nil:
				t.Fatal(o.Err)
			case o.reset:
				got = "reset"
			case o.Accepted:
				got = "accepted"
			case obsNIS.Count() > n0:
				got = "gated"
			default:
				got = "refused"
			}
			if got != tc.want {
				t.Errorf("outcome %s, want %s", got, tc.want)
			}
		})
	}
}

// TestGradeFilterStepCorpus checks every seed case has its corpus file, in
// the go test fuzz v1 encoding of the case's inputs.
func TestGradeFilterStepCorpus(t *testing.T) {
	for _, tc := range gradeStepCases {
		c := tc.in
		want := "go test fuzz v1\n"
		for _, v := range []any{c.v, c.theta, c.p00, c.p01, c.p10, c.p11, c.accel, c.backward, c.z, c.r, c.gate} {
			want += fmt.Sprintf("%T(%v)\n", v, v)
		}
		got, err := os.ReadFile(filepath.Join("testdata", "fuzz", "FuzzGradeFilterStep", tc.name))
		if err != nil || string(got) != want {
			t.Errorf("seed %s: corpus file %q (%v), want %q", tc.name, got, err, want)
		}
	}
}

// FuzzGradeFilterStep runs one predict, one gated update and the divergence
// check through gradeFilter and the generic reference from arbitrary state,
// covariance, input, measurement, noise and gate, and requires the same
// bits, the same acceptance and error outcome, and no panic.
func FuzzGradeFilterStep(f *testing.F) {
	f.Fuzz(func(t *testing.T, v, theta, p00, p01, p10, p11, accel float64, backward bool, z, r, gate float64) {
		if _, err := gradeStep(gradeStepCase{v, theta, p00, p01, p10, p11, accel, backward, z, r, gate}); err != nil {
			t.Fatal(err)
		}
	})
}
