// Package baseline implements the two road-gradient estimators the paper
// compares against (§IV "Compared Methods"):
//
//   - EKF: the altitude-based Extended Kalman Filter of Sahlholm &
//     Johansson [7], here driven by the smartphone barometer and
//     speedometer, with the driving torque derived from vehicle speed,
//     acceleration and mass exactly as the paper's comparison does.
//   - ANN: the artificial-neural-network method of [8], trained on 4,320
//     samples of (velocity, acceleration, altitude) features with
//     ground-truth gradient labels.
//
// Both are causal single-pass estimators without lane-change handling or
// track fusion, which is the methodological gap the paper's system closes.
package baseline

import (
	"errors"
	"fmt"
	"math"

	"roadgrade/internal/kalman"
	"roadgrade/internal/mat"
	"roadgrade/internal/sensors"
	"roadgrade/internal/vehicle"
)

// Result is a baseline gradient estimate series, aligned with the trace.
type Result struct {
	T        []float64
	S        []float64
	GradeRad []float64
}

// AltEKFConfig tunes the altitude-EKF baseline.
type AltEKFConfig struct {
	// SpeedoSigma / BaroSigma are measurement noise standard deviations
	// (defaults 0.25 m/s, 2.5 m).
	SpeedoSigma float64
	BaroSigma   float64
	// ProcessNoiseV, ProcessNoiseZ, ProcessNoiseTheta per √s
	// (defaults 0.05, 0.05, 0.012).
	ProcessNoiseV     float64
	ProcessNoiseZ     float64
	ProcessNoiseTheta float64
}

func (c AltEKFConfig) withDefaults() AltEKFConfig {
	if c.SpeedoSigma <= 0 {
		c.SpeedoSigma = 0.25
	}
	if c.BaroSigma <= 0 {
		c.BaroSigma = 2.5
	}
	if c.ProcessNoiseV <= 0 {
		c.ProcessNoiseV = 0.05
	}
	if c.ProcessNoiseZ <= 0 {
		c.ProcessNoiseZ = 0.05
	}
	if c.ProcessNoiseTheta <= 0 {
		c.ProcessNoiseTheta = 0.012
	}
	return c
}

// AltitudeEKF runs the [7]-style filter over a trace. s is the per-tick arc
// position used only to georeference the output (the same localization every
// method shares in the evaluation).
func AltitudeEKF(trace *sensors.Trace, s []float64, cfg AltEKFConfig) (*Result, error) {
	if trace == nil || len(trace.Records) == 0 {
		return nil, errors.New("baseline: empty trace")
	}
	if len(s) != len(trace.Records) {
		return nil, fmt.Errorf("baseline: position series %d != records %d", len(s), len(trace.Records))
	}
	cfg = cfg.withDefaults()
	dt := trace.DT

	// State [v, z, θ]; â is fed per-step like the core model.
	var accel float64
	model := kalman.Model{
		StateDim: 3,
		MeasDim:  2,
		Predict: func(x []float64) []float64 {
			v, z, theta := x[0], x[1], clamp(x[2])
			return []float64{
				math.Max(0, v+(accel-vehicle.Gravity*math.Sin(theta))*dt),
				z + v*math.Sin(theta)*dt,
				theta,
			}
		},
		PredictJacobian: func(x []float64) *mat.Matrix {
			v, theta := x[0], clamp(x[2])
			return mat.FromRows([][]float64{
				{1, 0, -vehicle.Gravity * math.Cos(theta) * dt},
				{math.Sin(theta) * dt, 1, v * math.Cos(theta) * dt},
				{0, 0, 1},
			})
		},
		Measure: func(x []float64) []float64 { return []float64{x[0], x[1]} },
		MeasureJacobian: func(x []float64) *mat.Matrix {
			return mat.FromRows([][]float64{{1, 0, 0}, {0, 1, 0}})
		},
	}
	first := trace.Records[0]
	f, err := kalman.NewFilter(model,
		[]float64{first.Speedometer, first.BaroAlt, 0},
		mat.Diag(1, cfg.BaroSigma*cfg.BaroSigma, deg2(2)),
		mat.Diag(
			cfg.ProcessNoiseV*cfg.ProcessNoiseV*dt,
			cfg.ProcessNoiseZ*cfg.ProcessNoiseZ*dt,
			cfg.ProcessNoiseTheta*cfg.ProcessNoiseTheta*dt,
		),
		mat.Diag(cfg.SpeedoSigma*cfg.SpeedoSigma, cfg.BaroSigma*cfg.BaroSigma),
	)
	if err != nil {
		return nil, fmt.Errorf("baseline: building altitude EKF: %w", err)
	}
	res := &Result{
		T:        make([]float64, 0, len(trace.Records)),
		S:        make([]float64, 0, len(trace.Records)),
		GradeRad: make([]float64, 0, len(trace.Records)),
	}
	for i, rec := range trace.Records {
		accel = rec.AccelLong
		f.Predict()
		if _, err := f.Update([]float64{rec.Speedometer, rec.BaroAlt}); err != nil {
			return nil, fmt.Errorf("baseline: altitude EKF update at t=%.2f: %w", rec.T, err)
		}
		res.T = append(res.T, rec.T)
		res.S = append(res.S, s[i])
		res.GradeRad = append(res.GradeRad, f.StateAt(2))
	}
	return res, nil
}

func clamp(theta float64) float64 {
	const lim = math.Pi / 6
	if theta > lim {
		return lim
	}
	if theta < -lim {
		return -lim
	}
	return theta
}

func deg2(d float64) float64 {
	r := d * math.Pi / 180
	return r * r
}
