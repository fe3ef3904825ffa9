package baseline

import (
	"math"
	"math/rand"
	"testing"

	"roadgrade/internal/geo"
	"roadgrade/internal/road"
	"roadgrade/internal/sensors"
	"roadgrade/internal/vehicle"
)

func makeTrace(t testing.TB, r *road.Road, speedMS float64, seed int64) *sensors.Trace {
	t.Helper()
	trip, err := vehicle.SimulateTrip(vehicle.TripConfig{
		Road:   r,
		Driver: vehicle.DefaultDriver(speedMS),
		Rng:    rand.New(rand.NewSource(seed)),
	})
	if err != nil {
		t.Fatal(err)
	}
	trace, err := sensors.Sample(trip, sensors.DefaultConfig(), rand.New(rand.NewSource(seed+500)))
	if err != nil {
		t.Fatal(err)
	}
	return trace
}

func truthS(trace *sensors.Trace) []float64 {
	s := make([]float64, len(trace.Records))
	for i := range s {
		s[i] = trace.Truth[i].S
	}
	return s
}

func TestAltitudeEKFValidation(t *testing.T) {
	r, _ := road.StraightRoad("x", 300, 0, 1)
	trace := makeTrace(t, r, 12, 1)
	if _, err := AltitudeEKF(nil, nil, AltEKFConfig{}); err == nil {
		t.Error("nil trace should error")
	}
	if _, err := AltitudeEKF(trace, []float64{1}, AltEKFConfig{}); err == nil {
		t.Error("mismatched positions should error")
	}
}

func TestAltitudeEKFConstantGrade(t *testing.T) {
	const grade = 3.0
	r, err := road.StraightRoad("up", 1500, road.Deg(grade), 1)
	if err != nil {
		t.Fatal(err)
	}
	trace := makeTrace(t, r, 13, 2)
	res, err := AltitudeEKF(trace, truthS(trace), AltEKFConfig{})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.T) != len(trace.Records) {
		t.Fatalf("result len %d", len(res.T))
	}
	// After convergence the estimate should be near the truth, though
	// looser than the proposed system (barometer-driven).
	var sum float64
	var n int
	for i := range res.T {
		if res.T[i] < 40 {
			continue
		}
		sum += res.GradeRad[i]
		n++
	}
	got := sum / float64(n) * 180 / math.Pi
	if math.Abs(got-grade) > 1.0 {
		t.Errorf("mean grade = %v deg, want ~%v", got, grade)
	}
}

func TestAltitudeEKFWorseThanPerfect(t *testing.T) {
	// Sanity: the baseline's error on a varying-grade route is nonzero and
	// bounded (it works, just not as well as the paper's system).
	r, err := road.RedRoute()
	if err != nil {
		t.Fatal(err)
	}
	trace := makeTrace(t, r, 40.0/3.6, 3)
	res, err := AltitudeEKF(trace, truthS(trace), AltEKFConfig{})
	if err != nil {
		t.Fatal(err)
	}
	var errs []float64
	for i := range res.T {
		if res.T[i] < 30 {
			continue
		}
		errs = append(errs, math.Abs(res.GradeRad[i]-r.GradeAt(res.S[i]))*180/math.Pi)
	}
	med := medianOf(errs)
	if med <= 0 {
		t.Error("suspiciously perfect baseline")
	}
	if med > 2.0 {
		t.Errorf("median error %v deg; baseline broken", med)
	}
}

func TestTrainANNValidation(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	if _, err := TrainANN(nil, 100, rng); err == nil {
		t.Error("no traces should error")
	}
	r, _ := road.StraightRoad("x", 200, 0, 1)
	trace := makeTrace(t, r, 12, 5)
	if _, err := TrainANN([]*sensors.Trace{trace}, 100, nil); err == nil {
		t.Error("nil rng should error")
	}
	noTruth := &sensors.Trace{DT: trace.DT, Records: trace.Records}
	if _, err := TrainANN([]*sensors.Trace{noTruth}, 100, rng); err == nil {
		t.Error("trace without truth should error")
	}
}

func TestANNTrainsAndEstimates(t *testing.T) {
	// Train on terrain-derived roads, evaluate on the red route.
	terrain := road.NewTerrain(17, road.TerrainConfig{})
	b := road.NewPathBuilder(geo.ENU{}, 0.4, 5)
	b.Straight(6000)
	line, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	prof, err := terrain.ProfileAlong(line, 5)
	if err != nil {
		t.Fatal(err)
	}
	trainRoad, err := road.NewRoad("train", line, prof, nil, road.ClassLocal)
	if err != nil {
		t.Fatal(err)
	}
	trainTrace := makeTrace(t, trainRoad, 13, 6)
	est, err := TrainANN([]*sensors.Trace{trainTrace}, PaperTrainingSamples, rand.New(rand.NewSource(7)))
	if err != nil {
		t.Fatal(err)
	}

	r, err := road.RedRoute()
	if err != nil {
		t.Fatal(err)
	}
	evalTrace := makeTrace(t, r, 40.0/3.6, 8)
	res, err := est.Estimate(evalTrace, truthS(evalTrace))
	if err != nil {
		t.Fatal(err)
	}
	var errs []float64
	for i := range res.T {
		if res.T[i] < 30 {
			continue
		}
		errs = append(errs, math.Abs(res.GradeRad[i]-r.GradeAt(res.S[i]))*180/math.Pi)
	}
	med := medianOf(errs)
	// The ANN should be meaningfully correlated with the truth (beats a
	// zero predictor on this hilly route) but clearly weaker than the EKFs.
	if med > 3.0 {
		t.Errorf("ANN median error %v deg; training failed", med)
	}
	if med == 0 {
		t.Error("ANN suspiciously perfect")
	}
}

func TestANNEstimateValidation(t *testing.T) {
	var nilEst *ANNEstimator
	if _, err := nilEst.Estimate(nil, nil); err == nil {
		t.Error("nil estimator should error")
	}
	r, _ := road.StraightRoad("x", 200, 0, 1)
	trace := makeTrace(t, r, 12, 9)
	est, err := TrainANN([]*sensors.Trace{trace}, 200, rand.New(rand.NewSource(10)))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := est.Estimate(nil, nil); err == nil {
		t.Error("nil trace should error")
	}
	if _, err := est.Estimate(trace, []float64{1}); err == nil {
		t.Error("mismatched positions should error")
	}
}

func medianOf(xs []float64) float64 {
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

func BenchmarkAltitudeEKF(b *testing.B) {
	r, err := road.RedRoute()
	if err != nil {
		b.Fatal(err)
	}
	trace := makeTrace(b, r, 40.0/3.6, 11)
	s := truthS(trace)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := AltitudeEKF(trace, s, AltEKFConfig{}); err != nil {
			b.Fatal(err)
		}
	}
}

func TestDirectEq3ConstantGrade(t *testing.T) {
	const grade = 3.0
	r, err := road.StraightRoad("direct", 1500, road.Deg(grade), 1)
	if err != nil {
		t.Fatal(err)
	}
	trace := makeTrace(t, r, 13, 20)
	res, err := DirectEq3(trace, truthS(trace), vehicle.DefaultParams())
	if err != nil {
		t.Fatal(err)
	}
	// The mean of the noisy pointwise estimate recovers the grade, but
	// individual samples are far noisier than the EKF output.
	var sum float64
	var n int
	var errs []float64
	for i := range res.T {
		if res.T[i] < 20 {
			continue
		}
		sum += res.GradeRad[i]
		errs = append(errs, math.Abs(res.GradeRad[i]-road.Deg(grade))*180/math.Pi)
		n++
	}
	mean := sum / float64(n) * 180 / math.Pi
	if math.Abs(mean-grade) > 0.6 {
		t.Errorf("mean direct grade %v deg, want ~%v", mean, grade)
	}
	med := medianOf(errs)
	if med < 0.2 {
		t.Errorf("direct Eq.(3) median error %v deg suspiciously good; torque noise should dominate", med)
	}
	if med > 5 {
		t.Errorf("direct Eq.(3) median error %v deg; estimator broken", med)
	}
}

func TestDirectEq3Validation(t *testing.T) {
	if _, err := DirectEq3(nil, nil, vehicle.DefaultParams()); err == nil {
		t.Error("nil trace should error")
	}
	r, _ := road.StraightRoad("x", 300, 0, 1)
	trace := makeTrace(t, r, 12, 21)
	if _, err := DirectEq3(trace, []float64{1}, vehicle.DefaultParams()); err == nil {
		t.Error("mismatched positions should error")
	}
	bad := vehicle.Params{MassKg: -1}
	if _, err := DirectEq3(trace, truthS(trace), bad); err == nil {
		t.Error("invalid params should error")
	}
}
