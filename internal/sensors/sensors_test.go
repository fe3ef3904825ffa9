package sensors

import (
	"math"
	"math/rand"
	"testing"

	"roadgrade/internal/road"
	"roadgrade/internal/vehicle"
)

func testTrip(t testing.TB, lengthM, gradeRad float64, seed int64) *vehicle.Trip {
	t.Helper()
	r, err := road.StraightRoad("sensors-test", lengthM, gradeRad, 1)
	if err != nil {
		t.Fatal(err)
	}
	trip, err := vehicle.SimulateTrip(vehicle.TripConfig{
		Road:   r,
		Driver: vehicle.DefaultDriver(12),
		Rng:    rand.New(rand.NewSource(seed)),
	})
	if err != nil {
		t.Fatal(err)
	}
	return trip
}

func TestQuantize(t *testing.T) {
	tests := []struct {
		v, step, want float64
	}{
		{1.234, 0.1, 1.2},
		{1.26, 0.1, 1.3},
		{-1.26, 0.1, -1.3},
		{5, 0, 5},
		{5, -1, 5},
	}
	for _, tt := range tests {
		if got := Quantize(tt.v, tt.step); math.Abs(got-tt.want) > 1e-12 {
			t.Errorf("Quantize(%v, %v) = %v, want %v", tt.v, tt.step, got, tt.want)
		}
	}
}

func TestNoiseStateWhiteOnly(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	n := newNoiseState(NoiseModel{Sigma: 0.5}, rng)
	var sum, sumSq float64
	const trials = 20000
	for i := 0; i < trials; i++ {
		v := n.corrupt(10, 0.05, rng)
		sum += v - 10
		sumSq += (v - 10) * (v - 10)
	}
	mean := sum / trials
	sd := math.Sqrt(sumSq / trials)
	if math.Abs(mean) > 0.02 {
		t.Errorf("white-noise mean = %v, want ~0", mean)
	}
	if math.Abs(sd-0.5) > 0.02 {
		t.Errorf("white-noise sd = %v, want ~0.5", sd)
	}
}

func TestNoiseStateDrifts(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	n := newNoiseState(NoiseModel{DriftRate: 0.1}, rng)
	// After many steps the bias random walk should have wandered.
	var last float64
	for i := 0; i < 100000; i++ {
		last = n.corrupt(0, 0.05, rng)
	}
	// Walk sd after T=5000 s is 0.1*sqrt(5000) ≈ 7; being exactly 0 is
	// essentially impossible.
	if last == 0 {
		t.Error("drift noise never moved")
	}
	if math.Abs(n.bias) < 1e-6 {
		t.Error("bias did not accumulate")
	}
}

func TestSampleBasics(t *testing.T) {
	trip := testTrip(t, 600, road.Deg(3), 3)
	tr, err := Sample(trip, DefaultConfig(), rand.New(rand.NewSource(4)))
	if err != nil {
		t.Fatal(err)
	}
	if len(tr.Records) != len(trip.States) {
		t.Fatalf("records %d != states %d", len(tr.Records), len(trip.States))
	}
	if tr.Duration() <= 0 {
		t.Error("duration not positive")
	}
	// Accelerometer includes the gravity component: on a 3° grade at
	// near-constant speed, the mean specific force should approach
	// g·sin(3°) ≈ 0.51, clearly distinguishable from zero.
	var accSum float64
	n := 0
	for i := len(tr.Records) / 2; i < len(tr.Records); i++ {
		accSum += tr.Records[i].AccelLong
		n++
	}
	mean := accSum / float64(n)
	want := vehicle.Gravity * math.Sin(road.Deg(3))
	if math.Abs(mean-want) > 0.2 {
		t.Errorf("mean specific force = %v, want ~%v", mean, want)
	}
	// GPS fixes are about one per second.
	var fixes int
	for _, r := range tr.Records {
		if r.GPSValid {
			fixes++
		}
	}
	perSec := float64(fixes) / tr.Duration()
	if perSec < 0.5 || perSec > 1.3 {
		t.Errorf("GPS fix rate = %v/s, want ~1", perSec)
	}
}

func TestSampleErrors(t *testing.T) {
	trip := testTrip(t, 200, 0, 5)
	if _, err := Sample(nil, DefaultConfig(), rand.New(rand.NewSource(1))); err == nil {
		t.Error("nil trip should error")
	}
	if _, err := Sample(trip, DefaultConfig(), nil); err == nil {
		t.Error("nil rng should error")
	}
	bad := DefaultConfig()
	bad.GPSPeriodS = 0
	if _, err := Sample(trip, bad, rand.New(rand.NewSource(1))); err == nil {
		t.Error("bad config should error")
	}
	bad2 := DefaultConfig()
	bad2.GPSDropoutProb = 2
	if err := bad2.Validate(); err == nil {
		t.Error("dropout prob > 1 should fail validation")
	}
}

func TestSampleDeterministic(t *testing.T) {
	trip := testTrip(t, 300, road.Deg(1), 6)
	a, err := Sample(trip, DefaultConfig(), rand.New(rand.NewSource(9)))
	if err != nil {
		t.Fatal(err)
	}
	b, err := Sample(trip, DefaultConfig(), rand.New(rand.NewSource(9)))
	if err != nil {
		t.Fatal(err)
	}
	for i := range a.Records {
		if a.Records[i] != b.Records[i] {
			t.Fatalf("record %d differs", i)
		}
	}
}

func TestGPSDropouts(t *testing.T) {
	trip := testTrip(t, 2000, 0, 7)
	cfg := DefaultConfig()
	cfg.GPSDropoutProb = 0.5
	cfg.GPSDropoutMeanS = 10
	tr, err := Sample(trip, cfg, rand.New(rand.NewSource(8)))
	if err != nil {
		t.Fatal(err)
	}
	var valid, fixTicks int
	prevGPS := -10.0
	for _, r := range tr.Records {
		if r.T-prevGPS >= cfg.GPSPeriodS-1e-9 {
			fixTicks++
			prevGPS = r.T
			if r.GPSValid {
				valid++
			}
		}
	}
	if valid == fixTicks {
		t.Error("no dropouts despite 50% per-fix probability")
	}
	if valid == 0 {
		t.Error("all fixes dropped; dropout model too aggressive")
	}
}

func TestVelocitySources(t *testing.T) {
	trip := testTrip(t, 1000, road.Deg(2), 10)
	tr, err := Sample(trip, DefaultConfig(), rand.New(rand.NewSource(11)))
	if err != nil {
		t.Fatal(err)
	}
	for _, src := range AllSources() {
		t.Run(src.String(), func(t *testing.T) {
			vs, err := tr.Velocity(src)
			if err != nil {
				t.Fatal(err)
			}
			if len(vs) != len(tr.Records) {
				t.Fatalf("len = %d, want %d", len(vs), len(tr.Records))
			}
			// Error vs truth should be bounded for every source.
			var worst float64
			var validCount int
			for i, v := range vs {
				if !v.Valid {
					continue
				}
				validCount++
				if e := math.Abs(v.V - tr.Truth[i].Speed); e > worst {
					worst = e
				}
			}
			if validCount == 0 {
				t.Fatal("no valid samples")
			}
			// The dead-reckoned accelerometer source may drift for the
			// length of a GPS dropout; direct sources stay tight.
			bound := 3.0
			if src == SourceAccelerometer {
				bound = 5.0
			}
			if worst > bound {
				t.Errorf("worst speed error %v m/s, too large", worst)
			}
		})
	}
	if _, err := tr.Velocity(VelocitySource(99)); err == nil {
		t.Error("unknown source should error")
	}
}

func TestAccelVelocityTracksOnGrade(t *testing.T) {
	// Dead-reckoned accel velocity must not run away on a sustained grade
	// (the gravity compensation plus GPS anchoring contain the drift).
	trip := testTrip(t, 1500, road.Deg(4), 12)
	tr, err := Sample(trip, DefaultConfig(), rand.New(rand.NewSource(13)))
	if err != nil {
		t.Fatal(err)
	}
	vs, err := tr.Velocity(SourceAccelerometer)
	if err != nil {
		t.Fatal(err)
	}
	var sumErr float64
	for i, v := range vs {
		sumErr += math.Abs(v.V - tr.Truth[i].Speed)
	}
	meanErr := sumErr / float64(len(vs))
	if meanErr > 1.0 {
		t.Errorf("mean accel-velocity error %v m/s on grade", meanErr)
	}
}

func TestSourceString(t *testing.T) {
	names := map[VelocitySource]string{
		SourceGPS:           "gps",
		SourceSpeedometer:   "speedometer",
		SourceAccelerometer: "accelerometer",
		SourceCANBus:        "can-bus",
	}
	for src, want := range names {
		if got := src.String(); got != want {
			t.Errorf("String(%d) = %q, want %q", int(src), got, want)
		}
	}
	if VelocitySource(42).String() == "" {
		t.Error("unknown source should render")
	}
	if len(AllSources()) != 4 {
		t.Error("AllSources should list 4 sources")
	}
}

func TestGPSPositions(t *testing.T) {
	trip := testTrip(t, 500, 0, 14)
	tr, err := Sample(trip, DefaultConfig(), rand.New(rand.NewSource(15)))
	if err != nil {
		t.Fatal(err)
	}
	fixes := 0
	// Valid fixes should be near the road (within ~5 sigma of GPS noise).
	for i, r := range tr.Records {
		if !r.GPSValid {
			continue
		}
		fixes++
		var closest float64 = math.Inf(1)
		for _, st := range tr.Truth {
			d := math.Hypot(st.Pos.E-r.GPSE, st.Pos.N-r.GPSN)
			if d < closest {
				closest = d
			}
		}
		if closest > 15 {
			t.Errorf("fix at record %d is %v m off the path", i, closest)
		}
	}
	if fixes == 0 {
		t.Fatal("no valid GPS fix")
	}
}

func TestCANSpeedQuantized(t *testing.T) {
	trip := testTrip(t, 300, 0, 16)
	tr, err := Sample(trip, DefaultConfig(), rand.New(rand.NewSource(17)))
	if err != nil {
		t.Fatal(err)
	}
	step := DefaultConfig().CANQuantize
	for _, r := range tr.Records[:100] {
		ratio := r.CANSpeed / step
		if math.Abs(ratio-math.Round(ratio)) > 1e-6 {
			t.Fatalf("CAN speed %v not quantized to %v", r.CANSpeed, step)
		}
	}
}

func BenchmarkSample(b *testing.B) {
	r, err := road.StraightRoad("bench", 2000, road.Deg(2), 1)
	if err != nil {
		b.Fatal(err)
	}
	trip, err := vehicle.SimulateTrip(vehicle.TripConfig{
		Road:   r,
		Driver: vehicle.DefaultDriver(14),
		Rng:    rand.New(rand.NewSource(1)),
	})
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := Sample(trip, DefaultConfig(), rand.New(rand.NewSource(int64(i)))); err != nil {
			b.Fatal(err)
		}
	}
}
