package emission

import (
	"errors"
	"fmt"
	"math"

	"roadgrade/internal/road"
)

// TripEmissions integrates the operating-mode model over a drive described
// by per-sample speed, acceleration and grade at interval dt, returning
// total grams per pollutant — the emission analog of fuel.TripFuel.
func TripEmissions(p Params, dt float64, v, a, grade []float64) (Grams, error) {
	p = p.WithDefaults()
	if err := p.Validate(); err != nil {
		return Grams{}, err
	}
	if dt <= 0 || math.IsNaN(dt) || math.IsInf(dt, 0) {
		return Grams{}, fmt.Errorf("emission: invalid dt %v", dt)
	}
	if len(v) != len(a) || len(v) != len(grade) {
		return Grams{}, fmt.Errorf("emission: series length mismatch %d/%d/%d", len(v), len(a), len(grade))
	}
	var out Grams
	rates := p.rateTable()
	for i := range v {
		g := rates[p.OpModeFor(v[i], a[i], grade[i]).Index()]
		for s := range out {
			out[s] += g[s] * dt / 3600
		}
	}
	return out, nil
}

// RoadEmissions is the per-pollutant Figure 10(b) quantity for one road: a
// cruising vehicle's emission intensity, per pollutant, in grams per km.
type RoadEmissions struct {
	RoadID       string
	Class        road.Class
	LengthM      float64
	MeanGradeDeg float64
	// GramsPerKm is the per-vehicle emission intensity of each pollutant.
	GramsPerKm Grams
}

// CellStepM is the arc-length step of every per-road integration: the
// fused grade map's 5 m cell spacing, so no gradient information is
// discarded.
const CellStepM = 5.0

// CellGrams integrates the operating-mode rates along lengthM meters of road
// driven at a constant speedMS: grade is sampled at the midpoint of every
// CellStepM cell (the last cell holds what is left), and each cell adds
// rate × dt / 3600 grams per pollutant, in travel order. It also returns the
// mean of the sampled grades (radians). Both are zero when lengthM is not
// positive. p must be complete (ForVehicle, or WithDefaults applied).
//
// The city map's rows (RoadEmissionsAt) come from this loop. The routing
// engine walks an edge's cells once for all its speed buckets instead, with
// the same per-cell terms (SpeedTerms) in the same order, so the two agree
// bit for bit.
func CellGrams(p Params, grade func(s float64) float64, lengthM, speedMS float64) (total Grams, meanGrade float64) {
	at := p.AtSpeed(speedMS, 0)
	var sumGrade float64
	var n int
	for s := 0.0; s < lengthM; s += CellStepM {
		ds := CellStepM
		if s+ds > lengthM {
			ds = lengthM - s
		}
		g := grade(s + ds/2)
		row := at.GramsPerHour(math.Sin(g))
		dt := ds / speedMS
		for sp := range total {
			total[sp] += row[sp] * dt / 3600
		}
		sumGrade += g
		n++
	}
	if n > 0 {
		meanGrade = sumGrade / float64(n)
	}
	return total, meanGrade
}

// RoadEmissionsAt integrates the operating-mode model along one road at
// constant cruise speed over its 5 m cells (CellGrams), given the road's
// grade at arc length s. Because the bin lookup is a step function of
// grade, a road with one steep pitch can emit far more than its mean grade
// suggests — exactly the non-linearity the per-cell integration preserves.
func RoadEmissionsAt(r *road.Road, speedMS float64, grade func(s float64) float64, p Params) (RoadEmissions, error) {
	p = p.WithDefaults()
	if r == nil {
		return RoadEmissions{}, errors.New("emission: nil road")
	}
	if speedMS <= 0 || math.IsNaN(speedMS) || math.IsInf(speedMS, 0) {
		return RoadEmissions{}, fmt.Errorf("emission: speed %v must be positive", speedMS)
	}
	if grade == nil {
		return RoadEmissions{}, errors.New("emission: nil grade func")
	}
	if err := p.Validate(); err != nil {
		return RoadEmissions{}, err
	}
	// A road's length is positive: its polyline has distinct points.
	length := r.Length()
	total, meanGrade := CellGrams(p, grade, length, speedMS)
	return RoadEmissions{
		RoadID:       r.ID(),
		Class:        r.Class(),
		LengthM:      length,
		MeanGradeDeg: meanGrade * 180 / math.Pi,
		GramsPerKm:   total.Scale(1000 / length),
	}, nil
}
