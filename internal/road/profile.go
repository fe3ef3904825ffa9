// Package road models the road infrastructure the estimation system drives
// over: altitude/grade profiles along arc length, lane sections, individual
// roads with planar geometry, an S-curve construction (Figure 5), the
// seven-section evaluation route of Table III, and a procedural city road
// network standing in for the 164.8 km Charlottesville experiment area.
package road

import (
	"errors"
	"fmt"
	"math"
)

// Profile is a vertical road profile: altitude sampled at fixed arc-length
// spacing. Grade is exposed in radians as θ(s) = arcsin(dz/ds), matching the
// ground-truth construction of §III-D of the paper.
type Profile struct {
	spacing float64
	alts    []float64
}

// NewProfile builds a profile from altitude samples (meters) at the given
// spacing (meters). At least two samples are required.
func NewProfile(spacing float64, alts []float64) (*Profile, error) {
	if len(alts) < 2 {
		return ownProfile(spacing, alts)
	}
	cp := make([]float64, len(alts))
	copy(cp, alts)
	return ownProfile(spacing, cp)
}

// ownProfile is NewProfile keeping alts itself instead of a copy.
func ownProfile(spacing float64, alts []float64) (*Profile, error) {
	if spacing <= 0 {
		return nil, fmt.Errorf("road: invalid profile spacing %v", spacing)
	}
	if len(alts) < 2 {
		return nil, errors.New("road: profile needs at least two altitude samples")
	}
	return &Profile{spacing: spacing, alts: alts}, nil
}

// NewProfileFromGrades integrates a grade series (radians, one value per
// spacing interval) from a starting altitude to produce a profile.
func NewProfileFromGrades(spacing float64, grades []float64, startAlt float64) (*Profile, error) {
	if spacing <= 0 {
		return nil, fmt.Errorf("road: invalid profile spacing %v", spacing)
	}
	if len(grades) == 0 {
		return nil, errors.New("road: no grades")
	}
	alts := make([]float64, len(grades)+1)
	alts[0] = startAlt
	for i, g := range grades {
		alts[i+1] = alts[i] + spacing*math.Sin(g)
	}
	return &Profile{spacing: spacing, alts: alts}, nil
}

// Length returns the arc length covered by the profile.
func (p *Profile) Length() float64 {
	return p.spacing * float64(len(p.alts)-1)
}

// Spacing returns the sample spacing in meters.
func (p *Profile) Spacing() float64 { return p.spacing }

// AltitudeAt returns the altitude at arc length s with linear interpolation,
// clamped to the profile range.
func (p *Profile) AltitudeAt(s float64) float64 {
	if s <= 0 {
		return p.alts[0]
	}
	if s >= p.Length() {
		return p.alts[len(p.alts)-1]
	}
	idx := s / p.spacing
	i := int(idx)
	t := idx - float64(i)
	return p.alts[i]*(1-t) + p.alts[i+1]*t
}

// GradeAt returns the road gradient θ at arc length s in radians,
// θ = arcsin(Δz/Δs) over the sample interval containing s.
func (p *Profile) GradeAt(s float64) float64 {
	n := len(p.alts)
	i := int(s / p.spacing)
	if i < 0 {
		i = 0
	}
	if i > n-2 {
		i = n - 2
	}
	dz := p.alts[i+1] - p.alts[i]
	ratio := dz / p.spacing
	if ratio > 1 {
		ratio = 1
	} else if ratio < -1 {
		ratio = -1
	}
	return math.Asin(ratio)
}

// Altitudes returns a copy of the altitude samples.
func (p *Profile) Altitudes() []float64 {
	out := make([]float64, len(p.alts))
	copy(out, p.alts)
	return out
}

// MaxAbsGradeDeg returns the maximum absolute grade in degrees, a sanity
// metric for generated terrain.
func (p *Profile) MaxAbsGradeDeg() float64 {
	var max float64
	for i := 0; i+1 < len(p.alts); i++ {
		g := math.Abs(p.GradeAt((float64(i) + 0.5) * p.spacing))
		if g > max {
			max = g
		}
	}
	return max * 180 / math.Pi
}
