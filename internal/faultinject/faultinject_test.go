package faultinject_test

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"roadgrade/internal/core"
	"roadgrade/internal/faultinject"
	"roadgrade/internal/fusion"
	"roadgrade/internal/road"
	"roadgrade/internal/sensors"
	"roadgrade/internal/vehicle"
)

// driveOn simulates a trip on r and samples the sensor suite.
func driveOn(t testing.TB, r *road.Road, speedMS float64, seed int64) *sensors.Trace {
	t.Helper()
	trip, err := vehicle.SimulateTrip(vehicle.TripConfig{
		Road: r, Driver: vehicle.DefaultDriver(speedMS),
		Rng: rand.New(rand.NewSource(seed)),
	})
	if err != nil {
		t.Fatal(err)
	}
	trace, err := sensors.Sample(trip, sensors.DefaultConfig(), rand.New(rand.NewSource(seed+1000)))
	if err != nil {
		t.Fatal(err)
	}
	return trace
}

// steepTrace is a drive on a 6° straight road: the grade keeps |AccelLong|
// above the severity-1 saturation limit so every fault visibly corrupts it.
func steepTrace(t testing.TB) *sensors.Trace {
	t.Helper()
	r, err := road.StraightRoad("steep", 1200, road.Deg(6), 1)
	if err != nil {
		t.Fatal(err)
	}
	return driveOn(t, r, 14, 7)
}

// recordsFingerprint renders the records for equality checks; %v prints NaN
// stably, which reflect.DeepEqual (NaN != NaN) cannot handle.
func recordsFingerprint(tr *sensors.Trace) string {
	return fmt.Sprintf("%v", tr.Records)
}

func TestApplyDeterministic(t *testing.T) {
	trace := steepTrace(t)
	for _, plan := range faultinject.DefaultPlans() {
		a := plan.Apply(trace, 0.7, 42)
		b := plan.Apply(trace, 0.7, 42)
		if recordsFingerprint(a) != recordsFingerprint(b) {
			t.Errorf("plan %s: same seed produced different traces", plan.Name)
		}
		// clock-skew and accel-saturation are purely severity-driven; every
		// other plan draws randomness and must vary with the seed.
		if plan.Name == "clock-skew" || plan.Name == "accel-saturation" {
			continue
		}
		c := plan.Apply(trace, 0.7, 43)
		if recordsFingerprint(a) == recordsFingerprint(c) {
			t.Errorf("plan %s: different seed produced identical corruption", plan.Name)
		}
	}
}

func TestApplySeverityZeroIsNoOp(t *testing.T) {
	trace := steepTrace(t)
	want := recordsFingerprint(trace)
	for _, plan := range faultinject.DefaultPlans() {
		got := plan.Apply(trace, 0, 42)
		if recordsFingerprint(got) != want {
			t.Errorf("plan %s: severity 0 modified the trace", plan.Name)
		}
	}
	if recordsFingerprint(trace) != want {
		t.Fatal("Apply mutated the input trace")
	}
}

func TestEveryPlanCorrupts(t *testing.T) {
	trace := steepTrace(t)
	clean := recordsFingerprint(trace)
	for _, plan := range faultinject.DefaultPlans() {
		got := plan.Apply(trace, 1, 42)
		if recordsFingerprint(got) == clean {
			t.Errorf("plan %s: severity 1 left the trace untouched", plan.Name)
		}
		if len(trace.Truth) > 0 && (len(got.Truth) != len(trace.Truth) || &got.Truth[0] != &trace.Truth[0]) {
			t.Errorf("plan %s: clone does not share truth", plan.Name)
		}
	}
	if recordsFingerprint(trace) != clean {
		t.Fatal("Apply mutated the input trace")
	}
}

// TestPipelineSurvivesEveryPlan is the headline robustness acceptance: under
// every single-fault plan at default severity, the full red-route pipeline —
// adjustment, four estimation tracks, fusion — completes without panic and
// with a finite fused profile.
func TestPipelineSurvivesEveryPlan(t *testing.T) {
	if testing.Short() {
		t.Skip("full red-route pipeline per fault plan")
	}
	r, err := road.RedRoute()
	if err != nil {
		t.Fatal(err)
	}
	trace := driveOn(t, r, 40.0/3.6, 11)
	p, err := core.NewPipeline(core.Config{})
	if err != nil {
		t.Fatal(err)
	}
	for _, plan := range faultinject.DefaultPlans() {
		plan := plan
		t.Run(plan.Name, func(t *testing.T) {
			corrupted := plan.Apply(trace, 0.5, 99)
			tracks, err := p.EstimateAll(corrupted, r.Line())
			if err != nil {
				t.Fatalf("EstimateAll: %v", err)
			}
			prof, reports, err := fusion.FuseTracksReport(tracks, 5, r.Length())
			if err != nil {
				t.Fatalf("fusing: %v (reports %+v)", err, reports)
			}
			for i, g := range prof.GradeRad {
				if math.IsNaN(g) || math.IsInf(g, 0) {
					t.Fatalf("non-finite fused grade at cell %d", i)
				}
				if math.IsNaN(prof.Var[i]) || prof.Var[i] < 0 {
					t.Fatalf("invalid fused variance %v at cell %d", prof.Var[i], i)
				}
			}
		})
	}
}
