// Package fuel implements §III-E of the paper: the Vehicle Specific Power
// (VSP) fuel consumption model of Eq. (7), the proportional air-pollution
// emission model (CO₂, PM2.5), the traffic-volume (AADT) assignment used for
// the Figure 10(b) emission map, and road/network level fuel and emission
// aggregation.
//
// A note on Table II: the paper prints GGE=0.0545, A=4.7887, B=21.2903,
// C=0.3925, D=3.6000, m=1.479. Taken literally these are dimensionally
// inconsistent — the A·v³ term would exceed the B·m·v·sinθ grade term by
// ~300× at urban speeds, contradicting the grade effects the paper itself
// cites (fuel up 1.5-2× on uphills [3]). This package therefore keeps the
// exact Eq. (7) functional form but uses physically consistent coefficients
// derived from the VSP literature the paper references ([24], [38]); the
// printed Table II values are retained as constants for documentation. See
// DESIGN.md (substitutions).
package fuel

import (
	"errors"
	"fmt"
	"math"
	"math/rand"

	"roadgrade/internal/road"
)

// PaperTableII reproduces the Table II row exactly as printed, for
// reference and for the Table II experiment output.
var PaperTableII = [6]float64{0.0545, 4.7887, 21.2903, 0.3925, 3.6000, 1.479}

// VSPParams are the Eq. (7) coefficients:
//
//	Γ = max(idle, (A·v³ + B·m·v·sinθ + C·m·v + m·a·v + D·m·a) / (GGE·η))
//
// with v in m/s, a in m/s², m in metric tons, the polynomial in watts, η the
// drivetrain efficiency and GGE the gasoline energy content; Γ is in
// gallons/hour.
type VSPParams struct {
	// GGEWhPerGallon is the energy content of a gallon of gasoline in
	// watt-hours (33,400 Wh/gal).
	GGEWhPerGallon float64
	// Efficiency is tank-to-wheel efficiency (default 0.25).
	Efficiency float64
	// A is the aerodynamic term ½ρ·C_d·A_f (W/(m/s)³).
	A float64
	// B is the grade term g·1000 (W per ton per m/s of v·sinθ).
	B float64
	// C is the rolling term μ·g·1000 (W per ton per m/s).
	C float64
	// D is the rotational-inertia acceleration term (W per ton per m/s²).
	D float64
	// MassTon is the gross vehicle weight in metric tons (Table II: 1.479).
	MassTon float64
	// BaseWatts is the constant engine base load (idle combustion,
	// accessories) added to the traction power; without it a flat cruise
	// is unrealistically cheap and grade effects are wildly overstated.
	BaseWatts float64
	// IdleGPH floors the fuel rate when demanded power is non-positive
	// (engine idling / deceleration fuel cut).
	IdleGPH float64
}

// TableII returns the evaluation vehicle's parameters: the 1,479 kg average
// passenger car of Table II with physically consistent VSP coefficients.
func TableII() VSPParams {
	return VSPParams{
		GGEWhPerGallon: 33400,
		Efficiency:     0.25,
		A:              0.441, // ½·1.225·0.32·2.25
		B:              9810,  // g × 1000 kg/ton
		C:              117.7, // 0.012 × g × 1000
		D:              90,    // rotating mass equivalent
		MassTon:        1.479,
		BaseWatts:      4300,
		IdleGPH:        0.2,
	}
}

// Validate reports whether the parameters are usable.
func (p VSPParams) Validate() error {
	switch {
	case p.GGEWhPerGallon <= 0:
		return fmt.Errorf("fuel: GGE %v must be positive", p.GGEWhPerGallon)
	case p.Efficiency <= 0 || p.Efficiency > 1:
		return fmt.Errorf("fuel: efficiency %v out of (0,1]", p.Efficiency)
	case p.MassTon <= 0:
		return fmt.Errorf("fuel: mass %v must be positive", p.MassTon)
	case p.IdleGPH < 0:
		return fmt.Errorf("fuel: idle rate %v must be non-negative", p.IdleGPH)
	}
	return nil
}

// RateGPH evaluates Eq. (7): gallons per hour at speed v (m/s),
// acceleration a (m/s²) and road gradient θ (radians), floored at idle.
//
// Garbage in, zero out: a negative speed (vehicles don't drive Eq. (7)
// backwards) or any non-finite input returns exactly 0 gph — the one value
// below the idle floor — so corrupted samples can't poison a trip integral
// with NaN or a huge negative "rate". Valid inputs are evaluated on the
// unchanged arithmetic path, bit-identical to the unguarded form.
func (p VSPParams) RateGPH(vMS, aMS2, gradeRad float64) float64 {
	return p.AtSpeed(vMS, aMS2).RateGPH(math.Sin(gradeRad))
}

// SpeedTerms are the terms of Eq. (7) that do not depend on grade, formed
// once at one speed and acceleration, so that a caller pricing many grades
// there (every 5 m cell of an edge, at every speed bucket) takes one sine
// per grade and repeats no product. VSPParams.RateGPH evaluates through
// them: it is AtSpeed followed by SpeedTerms.RateGPH.
type SpeedTerms struct {
	base    float64 // BaseWatts + A·v³
	climb   float64 // B·m·v, the factor of sinθ
	roll    float64 // C·m·v
	surge   float64 // 1000·m·a·v
	inertia float64 // D·m·a
	energy  float64 // GGE·η
	idle    float64
	// invalid marks a negative or non-finite speed or a non-finite
	// acceleration: every grade then prices at exactly 0.
	invalid bool
}

// AtSpeed forms the grade-free terms of Eq. (7) at speed v (m/s) and
// acceleration a (m/s²), each from the operands, and in the order, RateGPH
// has always used.
func (p VSPParams) AtSpeed(vMS, aMS2 float64) SpeedTerms {
	if vMS < 0 ||
		math.IsNaN(vMS) || math.IsInf(vMS, 0) ||
		math.IsNaN(aMS2) || math.IsInf(aMS2, 0) {
		return SpeedTerms{invalid: true}
	}
	m := p.MassTon
	return SpeedTerms{
		base:    p.BaseWatts + p.A*vMS*vMS*vMS,
		climb:   p.B * m * vMS,
		roll:    p.C * m * vMS,
		surge:   1000 * m * aMS2 * vMS,
		inertia: p.D * m * aMS2,
		energy:  p.GGEWhPerGallon * p.Efficiency,
		idle:    p.IdleGPH,
	}
}

// RateGPH evaluates Eq. (7) at the terms' speed and acceleration on the
// grade whose sine is sinGrade, floored at idle: the sum of the six terms
// left to right, as VSPParams.RateGPH documents. A NaN sine — the sine of a
// non-finite grade — returns exactly 0, as do invalid terms.
func (t SpeedTerms) RateGPH(sinGrade float64) float64 {
	if t.invalid || math.IsNaN(sinGrade) {
		return 0
	}
	watts := t.base + t.climb*sinGrade + t.roll + t.surge + t.inertia
	gph := watts / t.energy
	if gph < t.idle {
		return t.idle
	}
	return gph
}

// Emission factors: grams of pollutant per gallon of gasoline burned
// (§III-E: m_emission = F · V_fuel).
const (
	// CO2GramsPerGallon is F for carbon dioxide.
	CO2GramsPerGallon = 8908.0
	// PM25GramsPerGallon is F for PM2.5.
	PM25GramsPerGallon = 0.084
)

// EmissionGPH converts a fuel rate (gallon/hour) into an emission rate
// (grams/hour) for a pollutant factor F (grams/gallon).
func EmissionGPH(fuelGPH, factor float64) float64 { return fuelGPH * factor }

// TripFuel integrates Eq. (7) over a drive described by per-sample speed,
// acceleration and grade at interval dt, returning total gallons.
func TripFuel(p VSPParams, dt float64, v, a, grade []float64) (float64, error) {
	if err := p.Validate(); err != nil {
		return 0, err
	}
	if dt <= 0 {
		return 0, fmt.Errorf("fuel: invalid dt %v", dt)
	}
	if len(v) != len(a) || len(v) != len(grade) {
		return 0, fmt.Errorf("fuel: series length mismatch %d/%d/%d", len(v), len(a), len(grade))
	}
	var gallons float64
	for i := range v {
		gallons += p.RateGPH(v[i], a[i], grade[i]) * dt / 3600
	}
	return gallons, nil
}

// GradeFunc supplies a road gradient (radians) at arc length s of a given
// road; used to evaluate fuel maps on true or estimated profiles.
type GradeFunc func(r *road.Road, s float64) float64

// TrueGrade reads the road's built-in profile.
func TrueGrade(r *road.Road, s float64) float64 { return r.GradeAt(s) }

// FlatGrade ignores gradient entirely — the "without considering road
// gradient" comparison of §IV-C.
func FlatGrade(*road.Road, float64) float64 { return 0 }

// RoadFuel is the Figure 10(a) quantity for one road: the average fuel rate
// (gallon/hour) of a vehicle cruising the road at the given speed.
type RoadFuel struct {
	RoadID       string
	Class        road.Class
	LengthM      float64
	MeanGPH      float64
	MeanGradeDeg float64
}

// RoadFuelAt computes the mean Eq. (7) rate along one road at constant
// cruise speed, sampling the gradient every 10 m.
func RoadFuelAt(r *road.Road, speedMS float64, grade GradeFunc, p VSPParams) (RoadFuel, error) {
	if r == nil {
		return RoadFuel{}, errors.New("fuel: nil road")
	}
	if speedMS <= 0 {
		return RoadFuel{}, fmt.Errorf("fuel: speed %v must be positive", speedMS)
	}
	if grade == nil {
		return RoadFuel{}, errors.New("fuel: nil grade func")
	}
	if err := p.Validate(); err != nil {
		return RoadFuel{}, err
	}
	const step = 10.0
	var sumGPH, sumGrade float64
	var n int
	for s := 0.0; s < r.Length(); s += step {
		g := grade(r, s)
		sumGPH += p.RateGPH(speedMS, 0, g)
		sumGrade += g
		n++
	}
	if n == 0 {
		n = 1
		sumGPH = p.RateGPH(speedMS, 0, grade(r, 0))
	}
	return RoadFuel{
		RoadID:       r.ID(),
		Class:        r.Class(),
		LengthM:      r.Length(),
		MeanGPH:      sumGPH / float64(n),
		MeanGradeDeg: sumGrade / float64(n) * 180 / math.Pi,
	}, nil
}

// NetworkFuel evaluates RoadFuelAt over every edge of a network — the data
// behind the Figure 10(a) city fuel map.
func NetworkFuel(net *road.Network, speedMS float64, grade GradeFunc, p VSPParams) ([]RoadFuel, error) {
	if net == nil || len(net.Edges) == 0 {
		return nil, errors.New("fuel: empty network")
	}
	out := make([]RoadFuel, 0, len(net.Edges))
	for _, e := range net.Edges {
		rf, err := RoadFuelAt(e.Road, speedMS, grade, p)
		if err != nil {
			return nil, fmt.Errorf("fuel: road %s: %w", e.Road.ID(), err)
		}
		out = append(out, rf)
	}
	return out, nil
}

// FuelUplift returns the network-average relative increase of fuel
// consumption when the road gradient is considered versus assuming flat
// roads — the paper's headline +33.4% (§IV-C; emissions scale identically).
func FuelUplift(net *road.Network, speedMS float64, grade GradeFunc, p VSPParams) (float64, error) {
	withGrade, err := NetworkFuel(net, speedMS, grade, p)
	if err != nil {
		return 0, err
	}
	flat, err := NetworkFuel(net, speedMS, FlatGrade, p)
	if err != nil {
		return 0, err
	}
	var sumWith, sumFlat float64
	for i := range withGrade {
		// Length-weighted: long roads dominate a drive through the city.
		sumWith += withGrade[i].MeanGPH * withGrade[i].LengthM
		sumFlat += flat[i].MeanGPH * flat[i].LengthM
	}
	if sumFlat == 0 {
		return 0, errors.New("fuel: zero flat-road fuel")
	}
	return sumWith/sumFlat - 1, nil
}

// AADT assigns an annual-average-daily-traffic volume to a road class,
// standing in for the VDOT traffic counts the paper uses [27].
func AADT(class road.Class, rng *rand.Rand) float64 {
	var base, spread float64
	switch class {
	case road.ClassArterial:
		base, spread = 16000, 8000
	case road.ClassCollector:
		base, spread = 5500, 3000
	default:
		base, spread = 1200, 800
	}
	if rng == nil {
		return base
	}
	return base + (rng.Float64()-0.5)*spread
}

// RoadEmission is the Figure 10(b) quantity: pollutant tons per km of road
// per hour, combining per-vehicle fuel with traffic volume.
type RoadEmission struct {
	RoadID       string
	Class        road.Class
	AADT         float64
	TonPerKmHour float64
}

// RoadEmissionAt computes the emission density of one road: vehicles
// present per km (hourly flow divided by speed) times the per-vehicle
// emission rate.
func RoadEmissionAt(rf RoadFuel, aadt, speedMS, factor float64) (RoadEmission, error) {
	if speedMS <= 0 {
		return RoadEmission{}, fmt.Errorf("fuel: speed %v must be positive", speedMS)
	}
	if aadt < 0 {
		return RoadEmission{}, fmt.Errorf("fuel: AADT %v must be non-negative", aadt)
	}
	flowPerHour := aadt / 24
	speedKmh := speedMS * 3.6
	vehPerKm := flowPerHour / speedKmh
	gramsPerKmHour := vehPerKm * EmissionGPH(rf.MeanGPH, factor)
	return RoadEmission{
		RoadID:       rf.RoadID,
		Class:        rf.Class,
		AADT:         aadt,
		TonPerKmHour: gramsPerKmHour / 1e6,
	}, nil
}

// NetworkEmissions maps RoadEmissionAt over a network's fuel results with
// class-based AADT volumes (deterministic per seed).
func NetworkEmissions(fuels []RoadFuel, speedMS, factor float64, seed int64) ([]RoadEmission, error) {
	if len(fuels) == 0 {
		return nil, errors.New("fuel: no road fuel data")
	}
	rng := rand.New(rand.NewSource(seed))
	out := make([]RoadEmission, 0, len(fuels))
	for _, rf := range fuels {
		re, err := RoadEmissionAt(rf, AADT(rf.Class, rng), speedMS, factor)
		if err != nil {
			return nil, fmt.Errorf("fuel: road %s: %w", rf.RoadID, err)
		}
		out = append(out, re)
	}
	return out, nil
}

// CruisePoint is one sample of the speed-economy curve.
type CruisePoint struct {
	SpeedKmh     float64
	GallonsPerKm float64
}

// EconomyCurve evaluates fuel economy (gallons per km) of cruising a road at
// a range of speeds — the relationship behind the velocity-optimization
// applications the paper motivates. Speeds are in km/h, swept inclusively
// with the given step.
func EconomyCurve(r *road.Road, grade GradeFunc, p VSPParams, minKmh, maxKmh, stepKmh float64) ([]CruisePoint, error) {
	if err := validateSweep(minKmh, maxKmh, stepKmh); err != nil {
		return nil, err
	}
	var out []CruisePoint
	for kmh := minKmh; kmh <= maxKmh+1e-9; kmh += stepKmh {
		speedMS := kmh / 3.6
		rf, err := RoadFuelAt(r, speedMS, grade, p)
		if err != nil {
			return nil, err
		}
		out = append(out, CruisePoint{
			SpeedKmh:     kmh,
			GallonsPerKm: rf.MeanGPH / kmh,
		})
	}
	return out, nil
}

// validateSweep rejects degenerate speed sweeps up front. A NaN bound or
// step would otherwise terminate the sweep loop immediately and return an
// empty curve (NaN comparisons are false), a zero-width [min, min] range
// would silently "optimize" over a single point, and a non-positive step
// would never advance — all are caller bugs better surfaced as errors than
// as empty or NaN results.
func validateSweep(minKmh, maxKmh, stepKmh float64) error {
	for _, v := range [...]float64{minKmh, maxKmh, stepKmh} {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return fmt.Errorf("fuel: non-finite speed sweep [%v, %v] step %v", minKmh, maxKmh, stepKmh)
		}
	}
	switch {
	case minKmh <= 0:
		return fmt.Errorf("fuel: sweep start %v km/h must be positive", minKmh)
	case maxKmh == minKmh:
		return fmt.Errorf("fuel: degenerate speed sweep [%v, %v]: zero-width range", minKmh, maxKmh)
	case maxKmh < minKmh:
		return fmt.Errorf("fuel: inverted speed sweep [%v, %v]", minKmh, maxKmh)
	case stepKmh <= 0:
		return fmt.Errorf("fuel: sweep step %v km/h must be positive", stepKmh)
	}
	return nil
}

// OptimalCruise returns the speed (km/h) minimizing gallons per km on a
// road, and the economy achieved there. Low speeds waste idle/base fuel per
// km; high speeds waste drag — the optimum sits between.
func OptimalCruise(r *road.Road, grade GradeFunc, p VSPParams, minKmh, maxKmh float64) (CruisePoint, error) {
	curve, err := EconomyCurve(r, grade, p, minKmh, maxKmh, 1)
	if err != nil {
		return CruisePoint{}, err
	}
	if len(curve) == 0 {
		return CruisePoint{}, fmt.Errorf("fuel: empty economy curve for sweep [%v, %v]", minKmh, maxKmh)
	}
	best := curve[0]
	for _, pt := range curve[1:] {
		if pt.GallonsPerKm < best.GallonsPerKm {
			best = pt
		}
	}
	return best, nil
}
