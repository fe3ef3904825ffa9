package core

import (
	"math"
	"math/rand"
	"testing"

	"roadgrade/internal/lanechange"
	"roadgrade/internal/road"
	"roadgrade/internal/sensors"
	"roadgrade/internal/vehicle"
)

// simulate builds a trip + sensor trace on a road.
func simulate(t testing.TB, r *road.Road, speedMS float64, laneChangesPerKm float64, seed int64) (*vehicle.Trip, *sensors.Trace) {
	t.Helper()
	d := vehicle.DefaultDriver(speedMS)
	d.LaneChangesPerKm = laneChangesPerKm
	trip, err := vehicle.SimulateTrip(vehicle.TripConfig{
		Road: r, Driver: d, Rng: rand.New(rand.NewSource(seed)),
	})
	if err != nil {
		t.Fatal(err)
	}
	trace, err := sensors.Sample(trip, sensors.DefaultConfig(), rand.New(rand.NewSource(seed+1000)))
	if err != nil {
		t.Fatal(err)
	}
	return trip, trace
}

func TestGradeModelPredictConsistency(t *testing.T) {
	// On a constant grade with â = g·sinθ (steady speed), v must not move.
	m := &GradeModel{Params: vehicle.DefaultParams(), DT: 0.05}
	theta := road.Deg(3)
	m.Accel = vehicle.Gravity * math.Sin(theta)
	v, _, _, _, _, _ := m.transition(15, theta)
	if math.Abs(v-15) > 1e-9 {
		t.Errorf("v drifted to %v at steady state", v)
	}
	// Uphill with â = 0 (coasting): v must fall.
	m.Accel = 0
	v, _, _, _, _, _ = m.transition(15, theta)
	if v >= 15 {
		t.Errorf("coasting uphill should slow down, got %v", v)
	}
}

func TestGradeModelJacobianMatchesFiniteDifference(t *testing.T) {
	m := &GradeModel{Params: vehicle.DefaultParams(), DT: 0.05, Accel: 1.2}
	// transition's next state and Jacobian at x, as arrays.
	step := func(x [2]float64) (next [2]float64, jac [4]float64) {
		next[0], next[1], jac[0], jac[1], jac[2], jac[3] = m.transition(x[0], x[1])
		return next, jac
	}
	x := [2]float64{12, road.Deg(2)}
	_, jac := step(x)
	const h = 1e-7
	for j := 0; j < 2; j++ {
		xp, xm := x, x
		xp[j] += h
		xm[j] -= h
		fp, _ := step(xp)
		fm, _ := step(xm)
		for i := 0; i < 2; i++ {
			fd := (fp[i] - fm[i]) / (2 * h)
			if math.Abs(fd-jac[2*i+j]) > 1e-5 {
				t.Errorf("jacobian (%d,%d) = %v, finite difference %v", i, j, jac[2*i+j], fd)
			}
		}
	}
}

func TestClampGrade(t *testing.T) {
	if clampGrade(1) != math.Pi/6 || clampGrade(-1) != -math.Pi/6 {
		t.Error("clamp bounds wrong")
	}
	if clampGrade(0.1) != 0.1 {
		t.Error("clamp modified in-range value")
	}
}

func TestNewPipelineValidation(t *testing.T) {
	if _, err := NewPipeline(Config{}); err != nil {
		t.Fatalf("default config rejected: %v", err)
	}
	bad := Config{Params: vehicle.Params{MassKg: -1}}
	if _, err := NewPipeline(bad); err == nil {
		t.Error("invalid params should error")
	}
}

func TestAdjustErrors(t *testing.T) {
	p, _ := NewPipeline(Config{})
	r, _ := road.StraightRoad("x", 300, 0, 1)
	_, trace := simulate(t, r, 12, 0, 1)
	if _, err := p.Adjust(nil, r.Line()); err == nil {
		t.Error("nil trace should error")
	}
	if _, err := p.Adjust(trace, nil); err == nil {
		t.Error("nil line should error")
	}
}

func TestEstimateTrackErrors(t *testing.T) {
	p, _ := NewPipeline(Config{})
	r, _ := road.StraightRoad("x", 300, 0, 1)
	_, trace := simulate(t, r, 12, 0, 2)
	adj, err := p.Adjust(trace, r.Line())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := p.EstimateTrack(nil, adj, sensors.SourceGPS); err == nil {
		t.Error("nil trace should error")
	}
	if _, err := p.EstimateTrack(trace, nil, sensors.SourceGPS); err == nil {
		t.Error("nil adjusted should error")
	}
	if _, err := p.EstimateTrack(trace, adj, sensors.VelocitySource(99)); err == nil {
		t.Error("bad source should error")
	}
}

func TestEstimateTrackConstantGrade(t *testing.T) {
	const grade = 3.0 // degrees
	r, err := road.StraightRoad("grade", 1200, road.Deg(grade), 1)
	if err != nil {
		t.Fatal(err)
	}
	_, trace := simulate(t, r, 13, 0, 3)
	p, _ := NewPipeline(Config{})
	adj, err := p.Adjust(trace, r.Line())
	if err != nil {
		t.Fatal(err)
	}
	for _, src := range sensors.AllSources() {
		tr, err := p.EstimateTrack(trace, adj, src)
		if err != nil {
			t.Fatalf("%v: %v", src, err)
		}
		if tr.Len() != len(trace.Records) {
			t.Fatalf("%v: track len %d != %d", src, tr.Len(), len(trace.Records))
		}
		// After convergence the estimate must be near the true grade.
		var sum float64
		var n int
		for i := range tr.T {
			if tr.T[i] < 30 {
				continue
			}
			sum += tr.GradeRad[i]
			n++
		}
		got := sum / float64(n) * 180 / math.Pi
		if math.Abs(got-grade) > 0.5 {
			t.Errorf("%v: mean grade %v deg, want ~%v", src, got, grade)
		}
	}
}

func TestEstimateTrackDownhill(t *testing.T) {
	r, err := road.StraightRoad("down", 1000, road.Deg(-2.5), 1)
	if err != nil {
		t.Fatal(err)
	}
	_, trace := simulate(t, r, 13, 0, 4)
	p, _ := NewPipeline(Config{})
	adj, _ := p.Adjust(trace, r.Line())
	tr, err := p.EstimateTrack(trace, adj, sensors.SourceSpeedometer)
	if err != nil {
		t.Fatal(err)
	}
	// Median over the final 10 s (a single endpoint sample is at the mercy
	// of one noise draw).
	var tail []float64
	horizon := tr.T[tr.Len()-1] - 10
	for i := range tr.T {
		if tr.T[i] >= horizon {
			tail = append(tail, tr.GradeRad[i]*180/math.Pi)
		}
	}
	med := median(tail)
	if math.Abs(med-(-2.5)) > 0.6 {
		t.Errorf("final grade %v deg, want ~-2.5", med)
	}
}

func TestEstimateAllRedRoute(t *testing.T) {
	r, err := road.RedRoute()
	if err != nil {
		t.Fatal(err)
	}
	_, trace := simulate(t, r, 40.0/3.6, 2, 5)
	p, err := NewPipeline(Config{})
	if err != nil {
		t.Fatal(err)
	}
	tracks, err := p.EstimateAll(trace, r.Line())
	if err != nil {
		t.Fatal(err)
	}
	if len(tracks) != 4 {
		t.Fatalf("tracks = %d, want 4", len(tracks))
	}
	seen := map[sensors.VelocitySource]bool{}
	for _, tr := range tracks {
		seen[tr.Source] = true
		// Median absolute error per track should be sub-degree.
		var errs []float64
		for i := range tr.T {
			if tr.T[i] < 30 {
				continue
			}
			errs = append(errs, math.Abs(tr.GradeRad[i]-r.GradeAt(tr.S[i]))*180/math.Pi)
		}
		med := median(errs)
		if med > 0.8 {
			t.Errorf("%v: median error %v deg too large", tr.Source, med)
		}
		if tr.NIS <= 0 {
			t.Errorf("%v: NIS not recorded", tr.Source)
		}
	}
	if len(seen) != 4 {
		t.Errorf("duplicate sources: %v", seen)
	}
}

func TestLocalizationAccuracy(t *testing.T) {
	r, err := road.RedRoute()
	if err != nil {
		t.Fatal(err)
	}
	_, trace := simulate(t, r, 40.0/3.6, 0, 6)
	p, _ := NewPipeline(Config{})
	adj, err := p.Adjust(trace, r.Line())
	if err != nil {
		t.Fatal(err)
	}
	// Compare localized S against ground truth; after settling it should
	// stay within a few meters.
	var worst float64
	for i, st := range trace.Truth {
		if st.T < 10 {
			continue
		}
		if e := math.Abs(adj.S[i] - st.S); e > worst {
			worst = e
		}
	}
	if worst > 8 {
		t.Errorf("worst localization error %v m", worst)
	}
}

func TestTwoPassBeatsSinglePass(t *testing.T) {
	r, err := road.RedRoute()
	if err != nil {
		t.Fatal(err)
	}
	_, trace := simulate(t, r, 40.0/3.6, 0, 7)
	run := func(disable bool) float64 {
		p, err := NewPipeline(Config{DisableTwoPass: disable})
		if err != nil {
			t.Fatal(err)
		}
		adj, err := p.Adjust(trace, r.Line())
		if err != nil {
			t.Fatal(err)
		}
		tr, err := p.EstimateTrack(trace, adj, sensors.SourceCANBus)
		if err != nil {
			t.Fatal(err)
		}
		var errs []float64
		for i := range tr.T {
			if tr.T[i] < 30 {
				continue
			}
			errs = append(errs, math.Abs(tr.GradeRad[i]-r.GradeAt(tr.S[i])))
		}
		return median(errs)
	}
	single := run(true)
	two := run(false)
	if two >= single {
		t.Errorf("two-pass %v not better than single %v", two, single)
	}
}

func TestLaneChangeCorrectionImproves(t *testing.T) {
	// On a two-lane road with aggressive lane changing, enabling the
	// Eq. (2) correction should not hurt and typically helps the track.
	r, err := road.StraightRoad("two", 2500, road.Deg(2), 2)
	if err != nil {
		t.Fatal(err)
	}
	d := vehicle.DefaultDriver(12)
	d.LaneChangesPerKm = 4
	trip, err := vehicle.SimulateTrip(vehicle.TripConfig{
		Road: r, Driver: d, Rng: rand.New(rand.NewSource(8)),
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(trip.Changes) == 0 {
		t.Skip("no lane changes in this seed")
	}
	trace, err := sensors.Sample(trip, sensors.DefaultConfig(), rand.New(rand.NewSource(9)))
	if err != nil {
		t.Fatal(err)
	}
	th := lanechange.Thresholds{DeltaRad: 0.1, TMinS: 0.5}
	meanErr := func(disable bool) float64 {
		p, err := NewPipeline(Config{Thresholds: th, DisableLaneChangeCorrection: disable})
		if err != nil {
			t.Fatal(err)
		}
		adj, err := p.Adjust(trace, r.Line())
		if err != nil {
			t.Fatal(err)
		}
		if !disable && len(adj.Detections) == 0 {
			t.Skip("detector missed all changes in this seed")
		}
		tr, err := p.EstimateTrack(trace, adj, sensors.SourceSpeedometer)
		if err != nil {
			t.Fatal(err)
		}
		var sum float64
		var n int
		for i := range tr.T {
			if tr.T[i] < 30 {
				continue
			}
			sum += math.Abs(tr.GradeRad[i] - r.GradeAt(tr.S[i]))
			n++
		}
		return sum / float64(n)
	}
	with := meanErr(false)
	without := meanErr(true)
	if with > without*1.15 {
		t.Errorf("correction made things notably worse: with=%v without=%v", with, without)
	}
}

func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	cp := append([]float64(nil), xs...)
	for i := 1; i < len(cp); i++ {
		for j := i; j > 0 && cp[j] < cp[j-1]; j-- {
			cp[j], cp[j-1] = cp[j-1], cp[j]
		}
	}
	return cp[len(cp)/2]
}

func BenchmarkEstimateAllRedRoute(b *testing.B) {
	r, err := road.RedRoute()
	if err != nil {
		b.Fatal(err)
	}
	_, trace := simulate(b, r, 40.0/3.6, 2, 10)
	p, err := NewPipeline(Config{})
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := p.EstimateAll(trace, r.Line()); err != nil {
			b.Fatal(err)
		}
	}
}
