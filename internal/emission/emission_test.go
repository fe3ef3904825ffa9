package emission

import (
	"math"
	"testing"

	"roadgrade/internal/geo"
	"roadgrade/internal/road"
)

// linParams has zero road load and unit mass, so VSP = (a + g·sinθ)·v
// exactly — lets tests place inputs on exact bin boundaries.
func linParams() Params {
	return Params{Vehicle: Car, MassTon: 1}
}

func TestOpModeBoundariesDeterministic(t *testing.T) {
	p := linParams()
	justBelow := func(x float64) float64 { return math.Nextafter(x, math.Inf(-1)) }
	cases := []struct {
		name    string
		v, a, g float64
		want    OpMode
	}{
		// Braking threshold: exactly -2 mph/s is braking; one ulp above is not.
		{"brake-exact", 10, brakeDecelMS2, 0, OpBraking},
		{"brake-above", 10, justBelow(-brakeDecelMS2) * -1, 0, 11}, // a one ulp gentler than threshold, VSP<0
		{"brake-dominates-idle", 0.1, brakeDecelMS2, 0, OpBraking},
		// Idle threshold: below 1 mph idles; exactly 1 mph runs.
		{"idle-below", justBelow(idleSpeedMS), 0, 0, OpIdle},
		{"idle-exact-runs", idleSpeedMS, 1, 0, 12}, // VSP = 0.44704 ∈ [0,3)
		{"zero-speed", 0, 0, 0, OpIdle},
		// Speed-class edges: exactly 25 mph joins the mid class, exactly
		// 50 mph the high class; one ulp below stays in the lower class.
		{"class-mid-exact", midSpeedMS, 0, 0, 22}, // VSP = 0 → [0,3) mid bin
		{"class-mid-below", justBelow(midSpeedMS), 0, 0, 12},
		{"class-high-exact", highSpeedMS, 0, 0, 33}, // VSP = 0 → [0,6) high bin
		{"class-high-below", justBelow(highSpeedMS), 0, 0, 22},
		// VSP bin edges (VSP = a·v exactly with these params): an exact
		// edge value lands in the upper bin, one ulp below in the lower.
		{"vsp-0-exact", 2, 0, 0, 12},
		{"vsp-0-below", 2, justBelow(0), 0, 11},
		{"vsp-3-exact", 2, 1.5, 0, 13},
		{"vsp-3-below", 2, justBelow(1.5), 0, 12},
		{"vsp-6-exact", 2, 3, 0, 14},
		{"vsp-9-exact", 2, 4.5, 0, 15},
		{"vsp-12-exact", 2, 6, 0, 16},
		{"vsp-12-below", 2, justBelow(6), 0, 15},
		// Mid class upper bins: v = 16 m/s ∈ [25,50) mph.
		{"mid-vsp-12-exact", 16, 0.75, 0, 27},
		{"mid-vsp-18-exact", 16, 1.125, 0, 28},
		{"mid-vsp-24-exact", 16, 1.5, 0, 29},
		{"mid-vsp-30-exact", 16, 1.875, 0, 30},
		{"mid-vsp-30-below", 16, justBelow(1.875), 0, 29},
		// High class: v = 24 m/s ≥ 50 mph.
		{"high-vsp-6-exact", 24, 0.25, 0, 35},
		{"high-vsp-12-exact", 24, 0.5, 0, 37},
		{"high-vsp-18-exact", 24, 0.75, 0, 38},
		{"high-vsp-24-exact", 24, 1, 0, 39},
		{"high-vsp-30-exact", 24, 1.25, 0, 40},
		{"high-vsp-30-below", 24, justBelow(1.25), 0, 39},
		// Non-finite / non-physical inputs classify as idle.
		{"nan-speed", math.NaN(), 0, 0, OpIdle},
		{"inf-accel", 10, math.Inf(1), 0, OpIdle},
		{"nan-grade", 10, 0, math.NaN(), OpIdle},
		{"negative-speed", -3, 0, 0, OpIdle},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			got := p.OpModeFor(tc.v, tc.a, tc.g)
			if got != tc.want {
				t.Fatalf("OpModeFor(%v, %v, %v) = %d, want %d", tc.v, tc.a, tc.g, got, tc.want)
			}
			// Determinism: the same input always lands in the same bin.
			for i := 0; i < 3; i++ {
				if again := p.OpModeFor(tc.v, tc.a, tc.g); again != got {
					t.Fatalf("OpModeFor flapped: %d then %d", got, again)
				}
			}
		})
	}
}

func TestOpModeTableConsistency(t *testing.T) {
	ops := opModes
	if len(ops) != NumOpModes {
		t.Fatalf("opModes has %d bins, NumOpModes = %d", len(ops), NumOpModes)
	}
	for i, op := range ops {
		if op.Index() != i {
			t.Fatalf("bin %d Index() = %d, want %d", op, op.Index(), i)
		}
		if i > 0 && ops[i-1] >= op {
			t.Fatalf("bin IDs not ascending: %d before %d", ops[i-1], op)
		}
	}
	if OpMode(26).Index() != -1 || OpMode(34).Index() != -1 || OpMode(36).Index() != -1 {
		t.Fatal("MOVES skips bins 26, 34, 36; Index() must return -1 for them")
	}
}

func TestRatesStrictlyPositive(t *testing.T) {
	// Dijkstra requires positive edge costs: every bin of every class's
	// table must be strictly positive for every pollutant.
	for _, c := range []VehicleClass{Car, Truck, Bus} {
		tab := rateTables[c]
		for i, row := range tab {
			for _, sp := range Pollutants() {
				if row[sp] <= 0 {
					t.Fatalf("%s bin %d %s rate %v not positive", c, opModes[i], sp, row[sp])
				}
			}
		}
	}
}

func TestTruckBusScaledFromCar(t *testing.T) {
	car, truck := rateTables[Car], rateTables[Truck]
	if truck[0][NOx] <= car[0][NOx]*6 {
		t.Fatalf("truck NOx %v not scaled up from car %v", truck[0][NOx], car[0][NOx])
	}
	if got := ForVehicle(Truck); got.Vehicle != Truck || got.MassTon <= ForVehicle(Car).MassTon {
		t.Fatalf("ForVehicle(Truck) = %+v", got)
	}
}

func TestTripEmissionsZeroRatesExactlyZero(t *testing.T) {
	// Property: with an all-zero rate table, any trip emits exactly zero
	// grams of every pollutant — bit-exact, not approximately.
	p := ForVehicle(Car)
	p.Rates = &RateTable{}
	v := []float64{0, 3, 11.176, 22.352, 30, -1, math.Inf(1)}
	a := []float64{0, 1, -2, 0.5, -0.9, 0, 0}
	g := []float64{0, 0.05, -0.05, 0.02, 0, 0, 0}
	// Non-finite speed classifies as idle, which is still a table row —
	// so even garbage inputs must produce exactly zero.
	got, err := TripEmissions(p, 1, v, a, g)
	if err != nil {
		t.Fatalf("TripEmissions: %v", err)
	}
	if got != (Grams{}) {
		t.Fatalf("zero-rate trip emitted %v, want exact zeros", got)
	}
}

func TestTripEmissionsMatchesManualSum(t *testing.T) {
	p := ForVehicle(Car)
	dt := 0.5
	v := []float64{2, 8, 15, 24}
	a := []float64{0.3, 1.0, -1.0, 0.1}
	g := []float64{0, 0.03, -0.02, 0.01}
	got, err := TripEmissions(p, dt, v, a, g)
	if err != nil {
		t.Fatalf("TripEmissions: %v", err)
	}
	var want Grams
	for i := range v {
		r := p.rateTable()[p.OpModeFor(v[i], a[i], g[i]).Index()]
		for s := range want {
			want[s] += r[s] * dt / 3600
		}
	}
	if got != want {
		t.Fatalf("TripEmissions = %v, manual sum = %v", got, want)
	}
	if _, err := TripEmissions(p, 0, v, a, g); err == nil {
		t.Fatal("dt=0 accepted")
	}
	if _, err := TripEmissions(p, 1, v, a, g[:2]); err == nil {
		t.Fatal("length mismatch accepted")
	}
}

func testRoad(t *testing.T, id string, grades []float64) *road.Road {
	t.Helper()
	lengthM := 5 * float64(len(grades))
	line, err := geo.NewPolyline([]geo.ENU{{E: 0, N: 0}, {E: lengthM, N: 0}})
	if err != nil {
		t.Fatalf("polyline: %v", err)
	}
	prof, err := road.NewProfileFromGrades(5, grades, 100)
	if err != nil {
		t.Fatalf("profile: %v", err)
	}
	r, err := road.NewRoad(id, line, prof, nil, road.ClassCollector)
	if err != nil {
		t.Fatalf("road: %v", err)
	}
	return r
}

func TestRoadEmissionsUphillExceedsFlat(t *testing.T) {
	flatGr := make([]float64, 40)
	steepGr := make([]float64, 40)
	for i := range steepGr {
		steepGr[i] = 0.06 // 6% climb: two VSP bins above flat at urban speed
	}
	flat := testRoad(t, "flat", flatGr)
	steep := testRoad(t, "steep", steepGr)
	p := ForVehicle(Car)
	speed := 40.0 / 3.6
	fe, err := RoadEmissionsAt(flat, speed, flat.GradeAt, p)
	if err != nil {
		t.Fatalf("flat: %v", err)
	}
	se, err := RoadEmissionsAt(steep, speed, steep.GradeAt, p)
	if err != nil {
		t.Fatalf("steep: %v", err)
	}
	for _, sp := range Pollutants() {
		if se.GramsPerKm[sp] <= fe.GramsPerKm[sp] {
			t.Fatalf("%s: steep %.4f g/km not above flat %.4f g/km", sp, se.GramsPerKm[sp], fe.GramsPerKm[sp])
		}
	}
	if se.MeanGradeDeg < 3 {
		t.Fatalf("steep road mean grade %.2f°, want ≥3°", se.MeanGradeDeg)
	}
	// Flat evaluation of the steep road must equal the flat road's rates:
	// same length, same class, grade forced to zero.
	sf, err := RoadEmissionsAt(steep, speed, func(float64) float64 { return 0 }, p)
	if err != nil {
		t.Fatalf("steep/flat: %v", err)
	}
	if sf.GramsPerKm != fe.GramsPerKm {
		t.Fatalf("flat-evaluated steep road %v != flat road %v", sf.GramsPerKm, fe.GramsPerKm)
	}
}

// TestNetworkEmissions integrates every road of a generated network at
// cruise: each row's every pollutant intensity is finite and positive.
func TestNetworkEmissions(t *testing.T) {
	net, err := road.GenerateNetwork(7, road.NetworkConfig{TargetStreetKM: 3})
	if err != nil {
		t.Fatalf("network: %v", err)
	}
	for _, e := range net.Edges {
		r, err := RoadEmissionsAt(e.Road, 40.0/3.6, e.Road.GradeAt, ForVehicle(Car))
		if err != nil {
			t.Fatalf("road %s: %v", e.Road.ID(), err)
		}
		for _, sp := range Pollutants() {
			if g := r.GramsPerKm[sp]; g <= 0 || math.IsNaN(g) || math.IsInf(g, 0) {
				t.Fatalf("road %s %s = %v", r.RoadID, sp, g)
			}
		}
	}
}

func TestParseVehicleClass(t *testing.T) {
	for _, c := range []VehicleClass{Car, Truck, Bus} {
		got, err := ParseVehicleClass(c.String())
		if err != nil || got != c {
			t.Fatalf("ParseVehicleClass(%q) = %v, %v", c.String(), got, err)
		}
	}
	if got, err := ParseVehicleClass(""); err != nil || got != Car {
		t.Fatalf("empty class = %v, %v; want Car", got, err)
	}
	if _, err := ParseVehicleClass("tank"); err == nil {
		t.Fatal("unknown class accepted")
	}
}

func TestParamsDefaults(t *testing.T) {
	// Zero road-load Params pick up the class defaults.
	got, err := TripEmissions(Params{Vehicle: Truck}, 1, []float64{10}, []float64{0}, []float64{0})
	if err != nil {
		t.Fatalf("TripEmissions: %v", err)
	}
	def, err := TripEmissions(ForVehicle(Truck), 1, []float64{10}, []float64{0}, []float64{0})
	if err != nil {
		t.Fatalf("TripEmissions: %v", err)
	}
	if got != def {
		t.Fatalf("zero-value Params %v != ForVehicle defaults %v", got, def)
	}
	if err := (Params{Vehicle: Car, MassTon: -1}).Validate(); err == nil {
		t.Fatal("negative mass accepted")
	}
}
