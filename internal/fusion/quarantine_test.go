package fusion

import (
	"math"
	"math/rand"
	"testing"

	"roadgrade/internal/core"
	"roadgrade/internal/sensors"
)

func TestCheckTrack(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	good := syntheticTrack(rng, sensors.SourceGPS, 300, 0.01, flatTruth)
	if _, err := checkTrackReason(good); err != nil {
		t.Fatalf("healthy track rejected: %v", err)
	}
	cases := []struct {
		name   string
		mutate func(*core.Track)
	}{
		{"nil", func(tr *core.Track) { *tr = core.Track{} }},
		{"nan-grade", func(tr *core.Track) { tr.GradeRad[10] = math.NaN() }},
		{"inf-s", func(tr *core.Track) { tr.S[0] = math.Inf(1) }},
		{"zero-var", func(tr *core.Track) { tr.Var[3] = 0 }},
		{"negative-var", func(tr *core.Track) { tr.Var[3] = -1 }},
		{"length-mismatch", func(tr *core.Track) { tr.Var = tr.Var[:len(tr.Var)-1] }},
		{"implausible-grade", func(tr *core.Track) {
			for i := range tr.GradeRad {
				tr.GradeRad[i] = 1.2 // ~69°, everywhere
			}
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			rng := rand.New(rand.NewSource(5))
			tr := syntheticTrack(rng, sensors.SourceGPS, 300, 0.01, flatTruth)
			tc.mutate(tr)
			if _, err := checkTrackReason(tr); err == nil {
				t.Error("degenerate track passed health check")
			}
		})
	}
}

// TestQuarantineMatchesCleanFusion is the fusion acceptance criterion: fusing
// two clean tracks plus one deliberately corrupted track must match the clean
// two-track fusion within 0.1° mean absolute grade error — the corrupted
// source is quarantined, not averaged in.
func TestQuarantineMatchesCleanFusion(t *testing.T) {
	truth := func(s float64) float64 { return 0.02 * math.Sin(s/150) }
	const lengthM = 900
	a := syntheticTrack(rand.New(rand.NewSource(10)), sensors.SourceGPS, lengthM, 0.008, truth)
	b := syntheticTrack(rand.New(rand.NewSource(11)), sensors.SourceCANBus, lengthM, 0.005, truth)
	clean, err := FuseTracks([]*core.Track{a, b}, 5, lengthM)
	if err != nil {
		t.Fatal(err)
	}

	corrupt := syntheticTrack(rand.New(rand.NewSource(12)), sensors.SourceAccelerometer, lengthM, 0.005, truth)
	for i := range corrupt.GradeRad {
		if i%3 == 0 {
			corrupt.GradeRad[i] = math.NaN()
		}
	}
	fused, reports, err := FuseTracksReport([]*core.Track{a, corrupt, b}, 5, lengthM)
	if err != nil {
		t.Fatal(err)
	}
	if !reports[1].Quarantined {
		t.Fatal("corrupted track was not quarantined")
	}
	if reports[0].Quarantined || reports[2].Quarantined {
		t.Fatal("healthy track was quarantined")
	}
	if fused.Len() != clean.Len() {
		t.Fatalf("profile lengths differ: %d vs %d", fused.Len(), clean.Len())
	}
	var mae float64
	for i := range fused.GradeRad {
		if math.IsNaN(fused.GradeRad[i]) || math.IsInf(fused.GradeRad[i], 0) {
			t.Fatalf("non-finite fused grade at %d", i)
		}
		mae += math.Abs(fused.GradeRad[i] - clean.GradeRad[i])
	}
	mae = mae / float64(fused.Len()) * 180 / math.Pi
	if mae > 0.1 {
		t.Errorf("fusion with corrupted track deviates %.3f° MAE from clean fusion, want ≤ 0.1°", mae)
	}
}

func TestFuseTracksAllQuarantinedErrors(t *testing.T) {
	bad := syntheticTrack(rand.New(rand.NewSource(13)), sensors.SourceGPS, 100, 0.01, flatTruth)
	for i := range bad.GradeRad {
		bad.GradeRad[i] = math.NaN()
	}
	if _, err := FuseTracks([]*core.Track{bad, {}}, 5, 100); err == nil {
		t.Error("fusion with no healthy tracks should error")
	}
}

// TestFuseTracksNoCoverageErrors: a healthy track whose samples all lie past
// the road's end covers no cell, so there is no profile to return; fusing
// fails, with the verdicts, instead of returning cells at zero variance.
func TestFuseTracksNoCoverageErrors(t *testing.T) {
	tr := syntheticTrack(rand.New(rand.NewSource(14)), sensors.SourceGPS, 100, 0.01, flatTruth)
	for i := range tr.S {
		tr.S[i] += 300 // samples over 300–400 m
	}
	prof, reports, err := FuseTracksReport([]*core.Track{tr}, 5, 200)
	if err == nil {
		t.Fatalf("fusion onto a 200 m road gave %d cells and no error", prof.Len())
	}
	if prof != nil {
		t.Error("a failed fusion returned a profile")
	}
	if len(reports) != 1 || reports[0].Quarantined {
		t.Errorf("reports = %+v, want one healthy verdict", reports)
	}
}
