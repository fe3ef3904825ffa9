// Package core implements the paper's primary contribution: road gradient
// estimation from smartphone measurements. It combines the vehicle state
// space equation (Eq. 5) with an Extended Kalman Filter whose velocity
// innovation corrects the gradient estimate (§III-C2), the steering-rate
// derivation and lane-change velocity correction (§III-B), and produces one
// gradient track per velocity source for fusion (§III-C3).
package core

import (
	"math"

	"roadgrade/internal/vehicle"
)

// GradeModel is the discrete-time vehicle state space equation of Eq. (5)
// over the state x = [v, θ]:
//
//	v(t+1) = v(t) + (â(t) − g·sin θ(t))·Δt
//	θ(t+1) = θ(t) + ρ·A_f·C_d·v(t)·â(t)/(m·g·cos θ(t))·Δt
//
// where â is the measured longitudinal specific force. The −g·sinθ term
// reflects that a phone accelerometer measures specific force, which is what
// couples the velocity innovation Δ = v̂ − v(t+1|t) to the gradient state
// (DESIGN.md interpretation choice 1); the θ drift term is the paper's
// Eq. (4). The measurement is the longitudinal velocity v̂ from one of the
// four sources.
type GradeModel struct {
	Params vehicle.Params
	DT     float64
	// Accel is the current specific-force input â(t); the filter sets it
	// before each predict.
	Accel float64
}

// transition evaluates Eq. (5) at x together with its Jacobian F = ∂f/∂x
// (row-major). Both read one sin θ and one cos θ; the arithmetic is
// otherwise exactly the model's, term by term, so it matches the generic
// EKF adapter the tests keep as a reference bit for bit.
func (g *GradeModel) transition(x [2]float64) (next [2]float64, jac [4]float64) {
	v, theta := x[0], clampGrade(x[1])
	sin, cos := math.Sin(theta), math.Cos(theta)
	drag := g.Params.AirDensity * g.Params.FrontalAreaM2 * g.Params.DragCoeff
	mg := g.Params.MassKg * vehicle.Gravity
	k := drag / mg
	jac = [4]float64{
		1, -vehicle.Gravity * cos * g.DT,
		k * g.Accel * g.DT / cos, 1 + k*v*g.Accel*g.DT*sin/(cos*cos),
	}
	vNext := v + (g.Accel-vehicle.Gravity*sin)*g.DT
	// Eq. (4), vehicle.Params.GradeDrift, on the shared cos θ.
	thetaNext := theta + drag*v*g.Accel/(mg*cos)*g.DT
	return [2]float64{math.Max(0, vNext), clampGrade(thetaNext)}, jac
}

// clampGrade keeps θ in a physically plausible band (±30°) so cosθ stays
// well conditioned even if the filter is perturbed early on.
func clampGrade(theta float64) float64 {
	const lim = math.Pi / 6
	if theta > lim {
		return lim
	}
	if theta < -lim {
		return -lim
	}
	return theta
}
