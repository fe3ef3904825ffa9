package vehicle

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"roadgrade/internal/road"
)

func TestDefaultParamsValid(t *testing.T) {
	if err := DefaultParams().Validate(); err != nil {
		t.Fatalf("default params invalid: %v", err)
	}
}

func TestParamsValidate(t *testing.T) {
	tests := []struct {
		name   string
		mutate func(*Params)
	}{
		{"mass", func(p *Params) { p.MassKg = 0 }},
		{"area", func(p *Params) { p.FrontalAreaM2 = -1 }},
		{"drag", func(p *Params) { p.DragCoeff = 0 }},
		{"density", func(p *Params) { p.AirDensity = 0 }},
		{"wheel", func(p *Params) { p.WheelRadiusM = 0 }},
		{"roll", func(p *Params) { p.RollResist = -0.1 }},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			p := DefaultParams()
			tt.mutate(&p)
			if err := p.Validate(); err == nil {
				t.Error("expected validation error")
			}
		})
	}
}

func TestBeta(t *testing.T) {
	p := DefaultParams()
	// For small μ, β ≈ μ.
	if math.Abs(p.Beta()-p.RollResist) > 1e-4 {
		t.Errorf("Beta = %v, want ~%v", p.Beta(), p.RollResist)
	}
}

// Eq. (3) must invert the forward dynamics: grade -> torque -> grade.
func TestGradeTorqueRoundTrip(t *testing.T) {
	p := DefaultParams()
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		grade := (r.Float64()*2 - 1) * 0.12 // ±~7°
		v := 3 + r.Float64()*25
		a := (r.Float64()*2 - 1) * 2
		torque := p.DriveTorque(v, a, grade)
		got := p.GradeFromStates(torque, v, a)
		return math.Abs(got-grade) < 2e-3 // β small-angle approximation error
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestDragForceMonotone(t *testing.T) {
	p := DefaultParams()
	if p.DragForce(0) != 0 {
		t.Error("drag at rest nonzero")
	}
	if p.DragForce(30) <= p.DragForce(10) {
		t.Error("drag not increasing with speed")
	}
}

func TestGradeDriftSign(t *testing.T) {
	p := DefaultParams()
	// Eq. (4): sign follows v*a.
	if p.GradeDrift(20, 1, 0) <= 0 {
		t.Error("drift should be positive for accelerating vehicle")
	}
	if p.GradeDrift(20, -1, 0) >= 0 {
		t.Error("drift should be negative for decelerating vehicle")
	}
	if p.GradeDrift(20, 0, 0) != 0 {
		t.Error("drift should vanish at constant speed")
	}
}

func TestDriverValidate(t *testing.T) {
	if err := DefaultDriver(12).Validate(); err != nil {
		t.Fatalf("default driver invalid: %v", err)
	}
	tests := []struct {
		name   string
		mutate func(*DriverProfile)
	}{
		{"speed", func(d *DriverProfile) { d.TargetSpeedMS = 0 }},
		{"gain", func(d *DriverProfile) { d.SpeedGain = 0 }},
		{"accel", func(d *DriverProfile) { d.MaxAccelMS2 = 0 }},
		{"steer", func(d *DriverProfile) { d.SteerPeakRad = 0 }},
		{"asym", func(d *DriverProfile) { d.SteerAsym = 0 }},
		{"rate", func(d *DriverProfile) { d.LaneChangesPerKm = -1 }},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			d := DefaultDriver(12)
			tt.mutate(&d)
			if err := d.Validate(); err == nil {
				t.Error("expected validation error")
			}
		})
	}
}

func TestStudyDrivers(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	drivers := StudyDrivers(rng)
	if len(drivers) != 10 {
		t.Fatalf("got %d drivers, want 10", len(drivers))
	}
	for _, d := range drivers {
		if err := d.Validate(); err != nil {
			t.Errorf("driver %s invalid: %v", d.Name, err)
		}
		kmh := d.TargetSpeedMS * 3.6
		if kmh < 15-1e-9 || kmh > 65+1e-9 {
			t.Errorf("driver %s speed %v km/h outside study range", d.Name, kmh)
		}
		if d.SteerPeakRad < 0.1 || d.SteerPeakRad > 0.2 {
			t.Errorf("driver %s steer peak %v outside plausible range", d.Name, d.SteerPeakRad)
		}
	}
}

func TestPlanLaneChangeGeometry(t *testing.T) {
	d := DefaultDriver(12)
	for _, dir := range []int{1, -1} {
		p := planLaneChange(d, 12, dir)
		// Heading restore: integral of phase 1 equals integral of phase 2.
		if math.Abs(p.w1*p.t1-p.w2*p.t2) > 1e-9 {
			t.Errorf("heading not restored: w1t1=%v w2t2=%v", p.w1*p.t1, p.w2*p.t2)
		}
		// First bump sign matches direction.
		if s := p.steerRateAt(p.t1 / 2); float64(dir)*s <= 0 {
			t.Errorf("dir %d first bump sign %v", dir, s)
		}
		if s := p.steerRateAt(p.t1 + p.t2/2); float64(dir)*s >= 0 {
			t.Errorf("dir %d second bump sign %v", dir, s)
		}
		if p.steerRateAt(-1) != 0 || p.steerRateAt(p.duration()+1) != 0 {
			t.Error("steer rate outside maneuver should be 0")
		}
	}
}

// Integrating the planned maneuver must displace the vehicle ~3.65 m
// laterally and restore the heading.
func TestLaneChangeDisplacement(t *testing.T) {
	speeds := []float64{15.0 / 3.6, 40.0 / 3.6, 65.0 / 3.6}
	for _, v := range speeds {
		d := DefaultDriver(v)
		states, err := SimulateSingleLaneChange(d, v, +1, 0.01)
		if err != nil {
			t.Fatal(err)
		}
		last := states[len(states)-1]
		if math.Abs(last.Pos.N-WLaneM) > 0.4 {
			t.Errorf("v=%.1f: lateral displacement %v, want ~%v", v, last.Pos.N, WLaneM)
		}
		if math.Abs(last.SteerAngle) > 1e-9 {
			t.Errorf("v=%.1f: final steering angle %v, want 0", v, last.SteerAngle)
		}
	}
}

func TestLaneChangeAsymmetricDisplacement(t *testing.T) {
	v := 12.0
	d := DefaultDriver(v)
	d.SteerAsym = 1.3
	states, err := SimulateSingleLaneChange(d, v, -1, 0.01)
	if err != nil {
		t.Fatal(err)
	}
	last := states[len(states)-1]
	if math.Abs(last.Pos.N+WLaneM) > 0.4 {
		t.Errorf("right change displacement %v, want ~%v", last.Pos.N, -WLaneM)
	}
}

func TestSimulateSingleLaneChangeErrors(t *testing.T) {
	d := DefaultDriver(12)
	if _, err := SimulateSingleLaneChange(d, 0, 1, 0.01); err == nil {
		t.Error("zero speed should error")
	}
	if _, err := SimulateSingleLaneChange(d, 12, 0, 0.01); err == nil {
		t.Error("dir 0 should error")
	}
	bad := d
	bad.SteerPeakRad = 0
	if _, err := SimulateSingleLaneChange(bad, 12, 1, 0.01); err == nil {
		t.Error("invalid driver should error")
	}
}

func TestSimulateTripStraightRoad(t *testing.T) {
	r, err := road.StraightRoad("test", 800, road.Deg(2), 1)
	if err != nil {
		t.Fatal(err)
	}
	trip, err := SimulateTrip(TripConfig{
		Road:   r,
		Driver: DefaultDriver(15),
		Rng:    rand.New(rand.NewSource(2)),
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(trip.States) == 0 {
		t.Fatal("no states")
	}
	last := trip.States[len(trip.States)-1]
	if last.S < 800 {
		t.Errorf("trip ended at s=%v, want >= 800", last.S)
	}
	// Single-lane road: no lane changes possible.
	if len(trip.Changes) != 0 {
		t.Errorf("lane changes on single-lane road: %d", len(trip.Changes))
	}
	// Grade matches road.
	mid := trip.States[len(trip.States)/2]
	if math.Abs(mid.Grade-road.Deg(2)) > 1e-9 {
		t.Errorf("grade = %v", mid.Grade)
	}
	// Speed stays near target.
	if mid.Speed < 10 || mid.Speed > 20 {
		t.Errorf("speed = %v, want near 15", mid.Speed)
	}
	if trip.Duration() <= 0 {
		t.Error("duration not positive")
	}
}

func TestSimulateTripLaneChanges(t *testing.T) {
	r, err := road.StraightRoad("two-lane", 3000, 0, 2)
	if err != nil {
		t.Fatal(err)
	}
	d := DefaultDriver(14)
	d.LaneChangesPerKm = 3
	trip, err := SimulateTrip(TripConfig{
		Road:   r,
		Driver: d,
		Rng:    rand.New(rand.NewSource(7)),
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(trip.Changes) == 0 {
		t.Fatal("expected lane changes on two-lane road")
	}
	// Lane index stays within bounds and changes alternate feasibly.
	for _, st := range trip.States {
		if st.Lane < 0 || st.Lane > 1 {
			t.Fatalf("lane out of range: %d", st.Lane)
		}
	}
	for _, ev := range trip.Changes {
		if ev.EndT <= ev.StartT {
			t.Errorf("event has non-positive duration: %+v", ev)
		}
		if ev.Dir != 1 && ev.Dir != -1 {
			t.Errorf("event dir %d", ev.Dir)
		}
	}
	// Steering rate nonzero only around changes.
	var steering int
	for _, st := range trip.States {
		if st.SteerRate != 0 {
			steering++
			if !st.InChange {
				t.Fatal("steering outside a lane change")
			}
		}
	}
	if steering == 0 {
		t.Error("no steering recorded despite lane changes")
	}
}

func TestSimulateTripDisableLaneChanges(t *testing.T) {
	r, _ := road.StraightRoad("two-lane", 2000, 0, 2)
	d := DefaultDriver(14)
	d.LaneChangesPerKm = 5
	trip, err := SimulateTrip(TripConfig{
		Road:               r,
		Driver:             d,
		Rng:                rand.New(rand.NewSource(3)),
		DisableLaneChanges: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(trip.Changes) != 0 {
		t.Errorf("lane changes despite DisableLaneChanges: %d", len(trip.Changes))
	}
}

func TestSimulateTripConfigErrors(t *testing.T) {
	r, _ := road.StraightRoad("x", 100, 0, 1)
	if _, err := SimulateTrip(TripConfig{Driver: DefaultDriver(10), Rng: rand.New(rand.NewSource(1))}); err == nil {
		t.Error("missing road should error")
	}
	if _, err := SimulateTrip(TripConfig{Road: r, Driver: DefaultDriver(10)}); err == nil {
		t.Error("missing rng should error")
	}
	bad := DefaultDriver(10)
	bad.TargetSpeedMS = 0
	if _, err := SimulateTrip(TripConfig{Road: r, Driver: bad, Rng: rand.New(rand.NewSource(1))}); err == nil {
		t.Error("invalid driver should error")
	}
}

func TestSimulateTripTimeout(t *testing.T) {
	r, _ := road.StraightRoad("long", 5000, 0, 1)
	_, err := SimulateTrip(TripConfig{
		Road:         r,
		Driver:       DefaultDriver(10),
		Rng:          rand.New(rand.NewSource(1)),
		MaxDurationS: 5, // impossible
	})
	if err == nil {
		t.Error("expected timeout error")
	}
}

func TestSimulateTripDeterministic(t *testing.T) {
	r, _ := road.StraightRoad("two-lane", 1500, road.Deg(1), 2)
	run := func() *Trip {
		d := DefaultDriver(13)
		d.LaneChangesPerKm = 2
		trip, err := SimulateTrip(TripConfig{Road: r, Driver: d, Rng: rand.New(rand.NewSource(42))})
		if err != nil {
			t.Fatal(err)
		}
		return trip
	}
	a, b := run(), run()
	if len(a.States) != len(b.States) || len(a.Changes) != len(b.Changes) {
		t.Fatal("same seed produced different traces")
	}
	for i := range a.States {
		if a.States[i] != b.States[i] {
			t.Fatalf("state %d differs", i)
		}
	}
}

func TestLaneChangeDuration(t *testing.T) {
	d := DefaultDriver(12)
	dur := LaneChangeDuration(d, 12)
	if dur < 1 || dur > 10 {
		t.Errorf("duration = %v s, implausible", dur)
	}
	// Faster speeds give shorter maneuvers.
	if LaneChangeDuration(d, 20) >= dur {
		t.Error("duration should shrink with speed")
	}
}

func TestRedRouteTripCoversRoute(t *testing.T) {
	r, err := road.RedRoute()
	if err != nil {
		t.Fatal(err)
	}
	d := DefaultDriver(40.0 / 3.6)
	d.LaneChangesPerKm = 2
	trip, err := SimulateTrip(TripConfig{Road: r, Driver: d, Rng: rand.New(rand.NewSource(5))})
	if err != nil {
		t.Fatal(err)
	}
	last := trip.States[len(trip.States)-1]
	if last.S < r.Length() {
		t.Errorf("trip ended early at %v", last.S)
	}
	// All lane changes must be on the two-lane sections (start within one).
	for _, ev := range trip.Changes {
		if lanes := r.LanesAt(ev.StartS); lanes < 2 {
			t.Errorf("lane change started on %d-lane stretch at s=%v", lanes, ev.StartS)
		}
	}
}

func BenchmarkSimulateTrip(b *testing.B) {
	r, err := road.RedRoute()
	if err != nil {
		b.Fatal(err)
	}
	d := DefaultDriver(40.0 / 3.6)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := SimulateTrip(TripConfig{Road: r, Driver: d, Rng: rand.New(rand.NewSource(int64(i)))}); err != nil {
			b.Fatal(err)
		}
	}
}
