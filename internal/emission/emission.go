// Package emission implements a MOVESTAR-style operating-mode emission
// model, closing the air-pollution half of the paper's title: where
// internal/fuel's Eq. (7) model predicts fuel (and the fuel-proportional
// CO₂/PM factors of §III-E), this package predicts the pollutants whose
// rates are NOT proportional to fuel — CO, NOx, HC, and PM2.5 — from the
// same instantaneous (speed, acceleration, grade) triple the gradient map
// makes computable per road.
//
// The model follows "MOVESTAR: An Open-Source Vehicle Fuel and Emission
// Model based on USEPA MOVES" (PAPERS.md): each second of operation is
// classified into an operating-mode bin keyed by Vehicle Specific Power
// (VSP) and a speed class, and each bin carries a per-pollutant emission
// rate (grams/hour). Binning is the load-bearing idea — emission rates are
// strongly non-linear in power demand (a catalyst running rich at high
// load emits CO orders of magnitude faster than at cruise), so a binned
// lookup reproduces behavior a smooth fuel-proportional model cannot:
// min-NOx routes genuinely diverge from min-fuel routes on hills.
//
// Bin boundaries are half-open intervals [lo, hi) evaluated on exact
// float64 constants, so an input landing exactly on a boundary classifies
// deterministically (no float-boundary flapping); see OpModeFor.
package emission

import (
	"fmt"
	"math"
	"strings"
)

// Pollutant identifies one modeled exhaust species.
type Pollutant int

const (
	// CO is carbon monoxide — dominated by rich combustion at high load.
	CO Pollutant = iota
	// NOx is oxides of nitrogen — driven by combustion temperature, rising
	// steeply with sustained power demand (hills).
	NOx
	// HC is unburned hydrocarbons.
	HC
	// PM25 is fine particulate matter (PM2.5).
	PM25

	// NumPollutants is the number of modeled species.
	NumPollutants = 4
)

// String returns the pollutant's short name.
func (p Pollutant) String() string {
	switch p {
	case CO:
		return "co"
	case NOx:
		return "nox"
	case HC:
		return "hc"
	case PM25:
		return "pm25"
	default:
		return fmt.Sprintf("Pollutant(%d)", int(p))
	}
}

// Pollutants lists every modeled pollutant in stable order.
func Pollutants() []Pollutant { return []Pollutant{CO, NOx, HC, PM25} }

// Grams holds one value per pollutant, indexed by Pollutant.
type Grams [NumPollutants]float64

// Scale multiplies every species by f.
func (g Grams) Scale(f float64) Grams {
	for i := range g {
		g[i] *= f
	}
	return g
}

// VehicleClass selects a rate table; the classes mirror the fleet
// simulator's device mix (cloudload -mix car:…,truck:…,bus:…).
type VehicleClass int

const (
	// Car is the light-duty gasoline passenger car (the paper's Table II
	// vehicle).
	Car VehicleClass = iota
	// Truck is a diesel heavy truck: low CO, high NOx and PM.
	Truck
	// Bus is a diesel transit bus, between car and truck in most species.
	Bus

	numVehicleClasses = 3
)

// String returns the class name.
func (c VehicleClass) String() string {
	switch c {
	case Car:
		return "car"
	case Truck:
		return "truck"
	case Bus:
		return "bus"
	default:
		return fmt.Sprintf("VehicleClass(%d)", int(c))
	}
}

// ParseVehicleClass resolves a class name (case-insensitive).
func ParseVehicleClass(s string) (VehicleClass, error) {
	switch strings.ToLower(s) {
	case "", "car":
		return Car, nil
	case "truck":
		return Truck, nil
	case "bus":
		return Bus, nil
	}
	return 0, fmt.Errorf("emission: unknown vehicle class %q (want car | truck | bus)", s)
}

// Params configure the model for one vehicle: the MOVES road-load
// coefficients that define VSP, and optionally an overriding rate table.
type Params struct {
	// Vehicle selects the built-in per-bin rate table (and documents which
	// fleet segment the road-load coefficients describe).
	Vehicle VehicleClass
	// MassTon is the vehicle mass in metric tons.
	MassTon float64
	// RollingKW is the rolling-resistance term A (kW·s/m): power per m/s.
	RollingKW float64
	// RotatingKW is the rotating-mass term B (kW·s²/m²).
	RotatingKW float64
	// DragKW is the aerodynamic term C (kW·s³/m³).
	DragKW float64
	// Rates, when non-nil, overrides the built-in per-bin rate table —
	// used by tests (the all-zero-rates property) and by calibration
	// studies. Nil selects the Vehicle class's table.
	Rates *RateTable
}

// ForVehicle returns the default parameters for a vehicle class. The car
// coefficients are the MOVES light-duty defaults (source type 21) with the
// Table II mass; truck and bus use heavier road loads.
func ForVehicle(c VehicleClass) Params {
	switch c {
	case Truck:
		return Params{Vehicle: Truck, MassTon: 14.0, RollingKW: 1.417, RotatingKW: 0.0, DragKW: 0.003588}
	case Bus:
		return Params{Vehicle: Bus, MassTon: 12.5, RollingKW: 1.083, RotatingKW: 0.0, DragKW: 0.003104}
	default:
		return Params{Vehicle: Car, MassTon: 1.479, RollingKW: 0.156461, RotatingKW: 0.00200193, DragKW: 0.000492646}
	}
}

// Validate reports whether the parameters are usable.
func (p Params) Validate() error {
	if p.MassTon <= 0 || math.IsNaN(p.MassTon) || math.IsInf(p.MassTon, 0) {
		return fmt.Errorf("emission: mass %v must be positive", p.MassTon)
	}
	for _, v := range [...]float64{p.RollingKW, p.RotatingKW, p.DragKW} {
		if v < 0 || math.IsNaN(v) || math.IsInf(v, 0) {
			return fmt.Errorf("emission: negative or non-finite road-load coefficient %v", v)
		}
	}
	if p.Vehicle < 0 || int(p.Vehicle) >= numVehicleClasses {
		return fmt.Errorf("emission: unknown vehicle class %d", int(p.Vehicle))
	}
	return nil
}

// WithDefaults fills zero-valued road-load fields from the class defaults,
// so Params{Vehicle: emission.Truck} works as written.
func (p Params) WithDefaults() Params {
	if p.MassTon == 0 && p.RollingKW == 0 && p.RotatingKW == 0 && p.DragKW == 0 {
		def := ForVehicle(p.Vehicle)
		def.Rates = p.Rates
		return def
	}
	return p
}

// VSPKWPerTon evaluates Vehicle Specific Power in kW per metric ton at
// speed v (m/s), acceleration a (m/s²), and road grade θ (radians):
//
//	VSP = (A·v + B·v² + C·v³)/m + (a + g·sinθ)·v
//
// the canonical MOVES form. Grade enters exactly like acceleration — a 5%
// climb at cruise demands the same specific power as a ~0.5 m/s² surge on
// the flat, which is why gradient-blind emission maps are wrong on hills.
func (p Params) VSPKWPerTon(vMS, aMS2, gradeRad float64) float64 {
	return p.AtSpeed(vMS, aMS2).vsp(math.Sin(gradeRad))
}

// SpeedTerms are the parts of VSP and of the operating-mode choice that do
// not depend on grade, formed once at one speed and acceleration, so that a
// caller classifying many grades there (every 5 m cell of an edge, at every
// speed bucket) takes one sine per grade and repeats no road-load product.
// VSPKWPerTon, OpModeFor and CellGrams all evaluate through them.
type SpeedTerms struct {
	v, a float64
	road float64 // (A·v + B·v² + C·v³)/m
	// fixed is the bin that speed and acceleration decide alone — idle for
	// a non-physical input or a crawl, braking for a hard deceleration —
	// or -1 when VSP decides.
	fixed OpMode
	rates *RateTable
}

// AtSpeed forms the grade-free terms at speed v (m/s) and acceleration a
// (m/s²), each from the operands, and in the order, VSPKWPerTon and
// OpModeFor have always used.
func (p Params) AtSpeed(vMS, aMS2 float64) SpeedTerms {
	t := SpeedTerms{
		v: vMS, a: aMS2,
		road:  (p.RollingKW*vMS + p.RotatingKW*vMS*vMS + p.DragKW*vMS*vMS*vMS) / p.MassTon,
		fixed: -1,
		rates: p.rateTable(),
	}
	// Non-physical inputs classify as idle: a negative or non-finite speed
	// is sensor garbage, and idle is the lowest-emitting running bin — the
	// conservative floor, mirroring fuel.RateGPH's 0-below-idle guard.
	// Braking comes next (hard deceleration dominates everything), then
	// idle.
	switch {
	case vMS < 0 || math.IsNaN(vMS) || math.IsInf(vMS, 0) ||
		math.IsNaN(aMS2) || math.IsInf(aMS2, 0):
		t.fixed = OpIdle
	case aMS2 <= brakeDecelMS2:
		t.fixed = OpBraking
	case vMS < idleSpeedMS:
		t.fixed = OpIdle
	}
	return t
}

// vsp evaluates VSPKWPerTon at the terms' speed and acceleration on the
// grade whose sine is sinGrade.
func (t SpeedTerms) vsp(sinGrade float64) float64 {
	return t.road + (t.a+gravityMS2*sinGrade)*t.v
}

// GramsPerHour returns the per-pollutant rates (g/hr) of the bin OpModeFor
// picks at the terms' speed and acceleration on the grade whose sine is
// sinGrade.
func (t SpeedTerms) GramsPerHour(sinGrade float64) *Grams {
	return &t.rates[opModeIndex[t.opMode(sinGrade)]]
}

const gravityMS2 = 9.81

// Speed-class and braking boundaries, in MOVES' native mph converted at
// the exact statute factor. All comparisons in OpModeFor are half-open on
// these constants, so boundary inputs classify deterministically.
const (
	mphToMS = 0.44704
	// idleSpeedMS: below 1 mph the vehicle is idling (opMode 1).
	idleSpeedMS = 1 * mphToMS
	// midSpeedMS: the <25 mph / [25,50) mph class boundary.
	midSpeedMS = 25 * mphToMS
	// highSpeedMS: the [25,50) / ≥50 mph class boundary.
	highSpeedMS = 50 * mphToMS
	// brakeDecelMS2: deceleration at or beyond 2 mph/s is braking
	// (opMode 0) regardless of speed.
	brakeDecelMS2 = -2 * mphToMS
)

// OpMode is a MOVES operating-mode bin identifier. The IDs follow MOVES'
// running-exhaust numbering: 0 braking, 1 idle, 11–16 low speed class,
// 21–30 mid class (no 26), 33–40 high class (no 34/36).
type OpMode int

// The modeled operating-mode bins in ascending ID order.
const (
	OpBraking OpMode = 0
	OpIdle    OpMode = 1
)

// opModes lists every bin in stable (ascending) order; rate tables are
// indexed by position in this list.
var opModes = []OpMode{
	OpBraking, OpIdle,
	11, 12, 13, 14, 15, 16, // v < 25 mph, VSP bins
	21, 22, 23, 24, 25, 27, 28, 29, 30, // 25 ≤ v < 50 mph
	33, 35, 37, 38, 39, 40, // v ≥ 50 mph
}

// NumOpModes is the number of operating-mode bins.
const NumOpModes = 23

// opModeIndex maps a bin ID to its position in opModes, -1 for an ID
// MOVES skips.
var opModeIndex = func() (idx [41]int8) {
	for op := range idx {
		idx[op] = -1
	}
	for i, op := range opModes {
		idx[op] = int8(i)
	}
	return idx
}()

// Index returns the bin's position in opModes (the rate-table row), or
// -1 for an unknown ID.
func (op OpMode) Index() int {
	if op < 0 || int(op) >= len(opModeIndex) {
		return -1
	}
	return int(opModeIndex[op])
}

// OpModeFor classifies one instant of operation. Precedence follows MOVES:
// braking first (hard deceleration dominates everything), then idle, then
// the speed class picks a VSP bin family. Every interval is half-open
// [lo, hi): an exact boundary value lands in the upper bin, always. A
// non-finite or negative speed, or a non-finite acceleration or grade,
// classifies as idle.
func (p Params) OpModeFor(vMS, aMS2, gradeRad float64) OpMode {
	return p.AtSpeed(vMS, aMS2).opMode(math.Sin(gradeRad))
}

// opMode classifies one instant at the terms' speed and acceleration on the
// grade whose sine is sinGrade, as OpModeFor documents. A NaN sine — the
// sine of a non-finite grade — classifies as idle.
func (t SpeedTerms) opMode(sinGrade float64) OpMode {
	if math.IsNaN(sinGrade) {
		return OpIdle
	}
	if t.fixed >= 0 {
		return t.fixed
	}
	vsp := t.vsp(sinGrade)
	switch {
	case t.v < midSpeedMS:
		switch {
		case vsp < 0:
			return 11
		case vsp < 3:
			return 12
		case vsp < 6:
			return 13
		case vsp < 9:
			return 14
		case vsp < 12:
			return 15
		default:
			return 16
		}
	case t.v < highSpeedMS:
		switch {
		case vsp < 0:
			return 21
		case vsp < 3:
			return 22
		case vsp < 6:
			return 23
		case vsp < 9:
			return 24
		case vsp < 12:
			return 25
		case vsp < 18:
			return 27
		case vsp < 24:
			return 28
		case vsp < 30:
			return 29
		default:
			return 30
		}
	default:
		switch {
		case vsp < 6:
			return 33
		case vsp < 12:
			return 35
		case vsp < 18:
			return 37
		case vsp < 24:
			return 38
		case vsp < 30:
			return 39
		default:
			return 40
		}
	}
}

// RateTable maps every operating-mode bin (by Index order) to its
// per-pollutant emission rates in grams/hour.
type RateTable [NumOpModes]Grams

// carRates is the light-duty gasoline table, shaped after the MOVESTAR
// reference curves (not copied — MOVESTAR ships MATLAB lookup data, these
// are smoothed g/hr values with the same structure): CO explodes in the
// enrichment bins at the top of each speed class, NOx climbs roughly
// geometrically with VSP (combustion temperature), HC is idle-heavy and
// grows slowly, PM2.5 is small but load-sensitive. Every rate is strictly
// positive so per-edge pollutant costs are positive (Dijkstra's
// precondition).
var carRates = RateTable{
	// opMode           CO      NOx    HC     PM2.5  (g/hr)
	{30, 0.60, 1.20, 0.050},    // 0  braking
	{20, 0.40, 1.00, 0.020},    // 1  idle
	{35, 0.90, 1.50, 0.030},    // 11 coast (<25 mph, VSP<0)
	{45, 1.40, 1.80, 0.045},    // 12
	{60, 2.20, 2.20, 0.070},    // 13
	{80, 3.40, 2.70, 0.110},    // 14
	{110, 5.00, 3.30, 0.170},   // 15
	{150, 7.40, 4.10, 0.260},   // 16
	{40, 1.20, 1.60, 0.040},    // 21 coast (25–50 mph, VSP<0)
	{55, 2.00, 2.00, 0.060},    // 22
	{75, 3.20, 2.50, 0.090},    // 23
	{100, 5.00, 3.10, 0.140},   // 24
	{135, 7.60, 3.90, 0.210},   // 25
	{190, 11.50, 5.00, 0.320},  // 27
	{280, 17.00, 6.60, 0.480},  // 28
	{420, 25.00, 8.80, 0.720},  // 29
	{620, 36.00, 12.00, 1.080}, // 30
	{90, 4.00, 2.80, 0.120},    // 33 (≥50 mph, VSP<6)
	{160, 8.00, 4.20, 0.240},   // 35
	{260, 14.00, 6.20, 0.420},  // 37
	{400, 23.00, 9.00, 0.700},  // 38
	{600, 36.00, 13.00, 1.100}, // 39
	{900, 55.00, 19.00, 1.700}, // 40
}

// classScale derives the diesel heavy-duty tables from the car table:
// diesel engines run lean (less CO enrichment relative to engine size),
// burn hot under load (much more NOx), and emit soot (much more PM).
var classScale = [numVehicleClasses]Grams{
	Car:   {1, 1, 1, 1},
	Truck: {1.8, 7.0, 2.2, 10.0},
	Bus:   {1.5, 5.5, 2.0, 7.0},
}

// rateTables holds the per-class tables, derived once at init.
var rateTables = func() [numVehicleClasses]RateTable {
	var out [numVehicleClasses]RateTable
	for c := range out {
		for i, g := range carRates {
			for p := range g {
				g[p] *= classScale[c][p]
			}
			out[c][i] = g
		}
	}
	return out
}()

// rateTable resolves the effective table: an override if set, otherwise
// the class's built-in.
func (p Params) rateTable() *RateTable {
	if p.Rates != nil {
		return p.Rates
	}
	if p.Vehicle < 0 || int(p.Vehicle) >= numVehicleClasses {
		return &rateTables[Car]
	}
	return &rateTables[p.Vehicle]
}
