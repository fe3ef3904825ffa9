package experiment

import (
	"errors"
	"strconv"
	"strings"
	"testing"
)

func parseCell(t *testing.T, s string) float64 {
	t.Helper()
	v, err := strconv.ParseFloat(s, 64)
	if err != nil {
		t.Fatalf("parsing cell %q: %v", s, err)
	}
	return v
}

func TestMisalignmentRecovery(t *testing.T) {
	tb, err := Misalignment(quickOpt)
	if err != nil {
		t.Fatal(err)
	}
	if len(tb.Rows) != 4 {
		t.Fatalf("rows = %d", len(tb.Rows))
	}
	for _, row := range tb.Rows {
		naive := parseCell(t, row[1])
		aligned := parseCell(t, row[2])
		mountErr := parseCell(t, row[3])
		// Alignment must restore near-nominal accuracy for every mount.
		if aligned > 0.35 {
			t.Errorf("%s: aligned error %v deg too large", row[0], aligned)
		}
		if mountErr > 1.5 {
			t.Errorf("%s: mount estimate error %v deg", row[0], mountErr)
		}
		// The pitched mounts must be catastrophically bad without
		// alignment (gravity leaks into the longitudinal axis).
		if row[0] == "pitch 10 deg" && naive < 2 {
			t.Errorf("pitched naive error %v deg suspiciously small", naive)
		}
	}
}

func TestMultiVehicleFusionImproves(t *testing.T) {
	tb, err := MultiVehicle(quickOpt)
	if err != nil {
		t.Fatal(err)
	}
	first := parseCell(t, tb.Rows[0][1])
	last := parseCell(t, tb.Rows[len(tb.Rows)-1][1])
	if last > first {
		t.Errorf("fusing more vehicles should not hurt: 1 vehicle %v vs all %v", first, last)
	}
}

func TestAblationTwoPassMatters(t *testing.T) {
	tb, err := Ablation(quickOpt)
	if err != nil {
		t.Fatal(err)
	}
	metrics := map[string]float64{}
	for _, row := range tb.Rows {
		metrics[row[0]] = parseCell(t, row[1])
	}
	if metrics["no two-pass smoothing"] <= metrics["full system"] {
		t.Errorf("two-pass ablation should hurt: full %v vs ablated %v",
			metrics["full system"], metrics["no two-pass smoothing"])
	}
	if metrics["no fusion (speedometer only)"] <= metrics["full system"]*0.9 {
		t.Errorf("single-track should not beat the fused system clearly: full %v vs single %v",
			metrics["full system"], metrics["no fusion (speedometer only)"])
	}
}

func TestRobustnessDegradesGracefully(t *testing.T) {
	tb, err := Robustness(quickOpt)
	if err != nil {
		t.Fatal(err)
	}
	metrics := map[string]float64{}
	for _, row := range tb.Rows {
		metrics[row[0]] = parseCell(t, row[1])
	}
	nominal := metrics["nominal sensors"]
	if nominal <= 0 || nominal > 0.5 {
		t.Fatalf("nominal error %v implausible", nominal)
	}
	// The paper's robustness claim: still works without GPS.
	if noGPS := metrics["GPS unavailable"]; noGPS > nominal*2.5 {
		t.Errorf("GPS-free error %v degrades too much vs nominal %v", noGPS, nominal)
	}
	// Severe accel drift hurts but does not explode.
	if drift := metrics["accel drift 5x"]; drift > 1.5 {
		t.Errorf("accel drift error %v exploded", drift)
	}
}

func TestSpeedSweepBounded(t *testing.T) {
	tb, err := SpeedSweep(quickOpt)
	if err != nil {
		t.Fatal(err)
	}
	for _, row := range tb.Rows {
		if v := parseCell(t, row[1]); v > 0.6 {
			t.Errorf("speed %s km/h: error %v deg too large", row[0], v)
		}
	}
}

func TestJourneyEndToEnd(t *testing.T) {
	tb, err := Journey(quickOpt)
	if err != nil {
		t.Fatal(err)
	}
	metrics := map[string]string{}
	for _, row := range tb.Rows {
		metrics[row[0]] = row[1]
	}
	med := parseCell(t, strings.Fields(metrics["median |err|"])[0])
	if med > 0.5 {
		t.Errorf("journey median error %v deg too large", med)
	}
	if metrics["false detections at junctions"] != "0" {
		t.Errorf("junction turns misclassified as lane changes: %s",
			metrics["false detections at junctions"])
	}
}

func TestRoutingRegretSmall(t *testing.T) {
	tb, err := Routing(quickOpt)
	if err != nil {
		t.Fatal(err)
	}
	var regret float64
	for _, row := range tb.Rows {
		if row[0] == "regret of estimates" {
			regret = parseCell(t, strings.TrimSuffix(row[1], "%"))
		}
	}
	// Estimated gradients should plan routes nearly as well as truth.
	if regret > 5 {
		t.Errorf("routing regret %v%% too large", regret)
	}
	if regret < 0 {
		t.Errorf("negative regret %v%% (estimates cannot beat truth on truth)", regret)
	}
}

func TestFigure10Tables(t *testing.T) {
	a, err := Figure10a(quickOpt)
	if err != nil {
		t.Fatal(err)
	}
	metrics := map[string]string{}
	for _, row := range a.Rows {
		metrics[row[0]] = row[1]
	}
	mean := parseCell(t, metrics["mean fuel (gal/h)"])
	if mean < 0.3 || mean > 3 {
		t.Errorf("mean city fuel %v gal/h implausible", mean)
	}
	ratio := parseCell(t, metrics["steep/flat fuel ratio"])
	if ratio <= 1 {
		t.Errorf("steep/flat ratio %v; steep roads must burn more", ratio)
	}

	b, err := Figure10b(quickOpt)
	if err != nil {
		t.Fatal(err)
	}
	em := map[string]string{}
	for _, row := range b.Rows {
		em[row[0]] = row[1]
	}
	art := parseCell(t, em["arterial mean (ton/km/h)"])
	loc := parseCell(t, em["local mean (ton/km/h)"])
	if art <= loc {
		t.Errorf("arterial emission %v not above local %v", art, loc)
	}
}

func TestAllQuickRunsEverything(t *testing.T) {
	if testing.Short() {
		t.Skip("All in quick mode still takes a few seconds")
	}
	tables, err := All(quickOpt)
	if err != nil {
		t.Fatal(err)
	}
	if want := len(Names()); len(tables) != want {
		t.Errorf("All returned %d tables, want %d", len(tables), want)
	}
	seen := map[string]bool{}
	for _, tb := range tables {
		if tb.ID == "" || len(tb.Header) == 0 {
			t.Errorf("table %q malformed", tb.Title)
		}
		if seen[tb.ID] {
			t.Errorf("duplicate table id %q", tb.ID)
		}
		seen[tb.ID] = true
	}
}

func TestParallelForSequentialFallbackAndErrors(t *testing.T) {
	// n = 0 and n = 1 paths.
	if err := parallelFor(0, func(int) error { return nil }); err != nil {
		t.Fatal(err)
	}
	var ran bool
	if err := parallelFor(1, func(i int) error { ran = true; return nil }); err != nil {
		t.Fatal(err)
	}
	if !ran {
		t.Error("single-item body did not run")
	}
	// Error propagation.
	boom := func(i int) error {
		if i == 3 {
			return errTest
		}
		return nil
	}
	if err := parallelFor(8, boom); err != errTest {
		t.Errorf("err = %v, want errTest", err)
	}
}

var errTest = errors.New("boom")
