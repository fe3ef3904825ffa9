// Package lanechange implements §III-B of the paper: bump feature extraction
// from steering-rate profiles (Table I), the lane-change detection state
// machine (Algorithm 1) with the horizontal-displacement test of Eq. (1)
// that separates lane changes from S-curves, and the longitudinal-velocity
// correction of Eq. (2).
package lanechange

import (
	"errors"
	"fmt"
	"math"

	"roadgrade/internal/smoothing"
)

// Bump is one steering-rate lobe: a maximal same-sign excursion of the
// profile.
type Bump struct {
	StartIdx int     // first sample of the lobe
	EndIdx   int     // one past the last sample
	Sign     int     // +1 positive lobe, -1 negative
	PeakRad  float64 // δ: maximum |w| in the lobe (rad/s)
	// DurAt07S is T: how long |w| stays within [0.7·peak, peak] (s).
	DurAt07S float64
}

// StartT returns the lobe start time given the sample interval.
func (b Bump) StartT(dt float64) float64 { return float64(b.StartIdx) * dt }

// EndT returns the lobe end time given the sample interval.
func (b Bump) EndT(dt float64) float64 { return float64(b.EndIdx) * dt }

// FindBumps scans a (smoothed) steering-rate profile for lobes whose peak
// magnitude reaches at least minPeak and whose time above 70% of their own
// peak lasts at least minDur — the two necessary bump conditions of
// §III-B1. Pass minPeak = 0 and minDur = 0 to enumerate all lobes above the
// noise floor (used during calibration).
func FindBumps(dt float64, steer []float64, minPeak, minDur float64) []Bump {
	const noiseFloor = 0.02 // rad/s; below this a sample belongs to no lobe
	var bumps []Bump
	i := 0
	n := len(steer)
	for i < n {
		if math.Abs(steer[i]) < noiseFloor {
			i++
			continue
		}
		sign := 1
		if steer[i] < 0 {
			sign = -1
		}
		start := i
		peak := 0.0
		for i < n && float64(sign)*steer[i] >= noiseFloor {
			if v := math.Abs(steer[i]); v > peak {
				peak = v
			}
			i++
		}
		end := i
		// Time within [0.7 peak, peak].
		var above int
		for j := start; j < end; j++ {
			if math.Abs(steer[j]) >= 0.7*peak {
				above++
			}
		}
		dur := float64(above) * dt
		if peak >= minPeak && dur >= minDur {
			bumps = append(bumps, Bump{
				StartIdx: start, EndIdx: end, Sign: sign,
				PeakRad: peak, DurAt07S: dur,
			})
		}
	}
	return bumps
}

// ManeuverFeatures are the Table I quantities for one lane-change maneuver:
// peak magnitude and 0.7δ-band duration of the positive and negative bumps.
type ManeuverFeatures struct {
	DeltaPos float64 // δ⁺ (rad/s)
	DeltaNeg float64 // δ⁻ (rad/s)
	TPos     float64 // T⁺ (s)
	TNeg     float64 // T⁻ (s)
}

// ExtractManeuverFeatures reduces one maneuver's steering-rate profile to
// its bump features. The profile must contain exactly one positive and one
// negative dominant lobe (a single lane change).
func ExtractManeuverFeatures(dt float64, steer []float64) (ManeuverFeatures, error) {
	if dt <= 0 {
		return ManeuverFeatures{}, fmt.Errorf("lanechange: invalid dt %v", dt)
	}
	bumps := FindBumps(dt, steer, 0, 0)
	var pos, neg *Bump
	for i := range bumps {
		b := &bumps[i]
		switch {
		case b.Sign > 0 && (pos == nil || b.PeakRad > pos.PeakRad):
			pos = b
		case b.Sign < 0 && (neg == nil || b.PeakRad > neg.PeakRad):
			neg = b
		}
	}
	if pos == nil || neg == nil {
		return ManeuverFeatures{}, errors.New("lanechange: profile lacks an opposite bump pair")
	}
	return ManeuverFeatures{
		DeltaPos: pos.PeakRad,
		DeltaNeg: neg.PeakRad,
		TPos:     pos.DurAt07S,
		TNeg:     neg.DurAt07S,
	}, nil
}

// Thresholds are the calibrated detection thresholds: δ and T are the
// minimum peak magnitude and minimum 0.7δ-band duration over every observed
// bump, per the Table I procedure ("minimum values ... in order not to miss
// any bumps").
type Thresholds struct {
	DeltaRad float64
	TMinS    float64
}

// PaperThresholds are the values Table I reports: δ = 0.1167 rad/s,
// T = 1.383 s. They describe the paper's human drivers, whose steering-rate
// bumps have flatter tops (longer time in the 0.7δ band) than this
// simulator's sinusoidal maneuvers.
var PaperThresholds = Thresholds{DeltaRad: 0.1167, TMinS: 1.383}

// SimulatorThresholds match the maneuvers this repository's driver model
// produces, obtained with the same calibration procedure
// (experiment.CalibrateFromStudy). Use Calibrate on your own driver data
// when plugging in real traces.
var SimulatorThresholds = Thresholds{DeltaRad: 0.11, TMinS: 0.55}

// Calibrate reduces a set of maneuver features (e.g. 10 drivers × left and
// right changes) to detection thresholds.
func Calibrate(features []ManeuverFeatures) (Thresholds, error) {
	if len(features) == 0 {
		return Thresholds{}, errors.New("lanechange: no features to calibrate from")
	}
	th := Thresholds{DeltaRad: math.Inf(1), TMinS: math.Inf(1)}
	for _, f := range features {
		th.DeltaRad = math.Min(th.DeltaRad, math.Min(f.DeltaPos, f.DeltaNeg))
		th.TMinS = math.Min(th.TMinS, math.Min(f.TPos, f.TNeg))
	}
	if th.DeltaRad <= 0 || th.TMinS <= 0 {
		return Thresholds{}, fmt.Errorf("lanechange: degenerate calibration %+v", th)
	}
	return th, nil
}

// SmoothProfile applies the paper's local-regression smoothing [16] to a raw
// steering-rate profile, using a fixed time window (default 1.2 s) converted
// to a LOESS span.
func SmoothProfile(dt float64, steer []float64, windowS float64) ([]float64, error) {
	if dt <= 0 {
		return nil, fmt.Errorf("lanechange: invalid dt %v", dt)
	}
	if len(steer) == 0 {
		return nil, errors.New("lanechange: empty profile")
	}
	if windowS <= 0 {
		windowS = 1.2
	}
	total := float64(len(steer)) * dt
	span := windowS / total
	if span > 1 {
		span = 1
	}
	// The local quadratic needs at least three points in the window.
	if span*float64(len(steer)) < 4 {
		span = 4 / float64(len(steer))
		if span > 1 {
			span = 1
		}
	}
	l, err := smoothing.NewLoess(span)
	if err != nil {
		return nil, fmt.Errorf("lanechange: building smoother: %w", err)
	}
	xs := make([]float64, len(steer))
	for i := range xs {
		xs[i] = float64(i) * dt
	}
	out, err := l.Smooth(xs, steer)
	if err != nil {
		return nil, fmt.Errorf("lanechange: smoothing profile: %w", err)
	}
	return out, nil
}
