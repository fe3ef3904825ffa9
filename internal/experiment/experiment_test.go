package experiment

import (
	"strconv"
	"strings"
	"testing"
)

// quickOpt is the test-suite configuration: deterministic and small.
var quickOpt = Options{Seed: 1, Quick: true}

func TestTableString(t *testing.T) {
	tb := Table{
		ID:     "X",
		Title:  "demo",
		Note:   "note",
		Header: []string{"a", "b"},
		Rows:   [][]string{{"1", "2"}, {"3", "4", "5"}}, // wider row than header
	}
	s := tb.String()
	for _, want := range []string{"X", "demo", "note", "a", "5"} {
		if !strings.Contains(s, want) {
			t.Errorf("String() missing %q:\n%s", want, s)
		}
	}
}

func TestRegistryComplete(t *testing.T) {
	// Every paper artifact has a registered experiment.
	want := []string{
		// Paper artifacts.
		"table1", "table2", "table3",
		"fig3", "fig4", "fig5",
		"fig8a", "fig8b", "fig9a", "fig9b", "fig10a", "fig10b",
		"lanechange", "headline", "uplift",
		// Extension studies.
		"misalignment", "multivehicle", "ablation", "robustness", "robustsweep",
		"poisonsweep", "speedsweep",
		"journey", "routing", "ecoroutes", "emissionmaps",
	}
	reg := Registry()
	for _, name := range want {
		if _, ok := reg[name]; !ok {
			t.Errorf("experiment %q missing from registry", name)
		}
	}
	if len(reg) != len(want) {
		t.Errorf("registry has %d entries, want %d", len(reg), len(want))
	}
	if len(Names()) != len(want) {
		t.Errorf("Names() has %d entries", len(Names()))
	}
}

func TestRunUnknown(t *testing.T) {
	if _, err := Run("nope", quickOpt); err == nil {
		t.Error("unknown experiment should error")
	}
}

func TestCalibrateFromStudy(t *testing.T) {
	cal, err := CalibrateFromStudy(3)
	if err != nil {
		t.Fatal(err)
	}
	if len(cal.Drivers) != 10 || len(cal.Features) != 20 {
		t.Fatalf("drivers=%d features=%d", len(cal.Drivers), len(cal.Features))
	}
	th := cal.Thresholds
	// The calibrated δ should be in the neighborhood of the paper's
	// 0.1167 rad/s (our drivers span 0.12-0.18 peak rates).
	if th.DeltaRad < 0.08 || th.DeltaRad > 0.16 {
		t.Errorf("calibrated delta = %v rad/s", th.DeltaRad)
	}
	if th.TMinS <= 0.3 || th.TMinS > 2.5 {
		t.Errorf("calibrated T = %v s", th.TMinS)
	}
	// Determinism.
	cal2, err := CalibrateFromStudy(3)
	if err != nil {
		t.Fatal(err)
	}
	if cal2.Thresholds != th {
		t.Error("calibration not deterministic")
	}
}

func TestTableIValues(t *testing.T) {
	tb, err := TableI(quickOpt)
	if err != nil {
		t.Fatal(err)
	}
	if len(tb.Rows) != 2 {
		t.Fatalf("rows = %d", len(tb.Rows))
	}
	// Average deltas exceed the minimum threshold column.
	min, err := strconv.ParseFloat(tb.Rows[0][5], 64)
	if err != nil {
		t.Fatal(err)
	}
	for col := 1; col <= 4; col++ {
		v, err := strconv.ParseFloat(tb.Rows[0][col], 64)
		if err != nil {
			t.Fatal(err)
		}
		if v < min {
			t.Errorf("column %d average %v below minimum %v", col, v, min)
		}
	}
}

func TestTableIIIMatchesPaper(t *testing.T) {
	tb, err := TableIII(quickOpt)
	if err != nil {
		t.Fatal(err)
	}
	wantSigns := []string{"+", "-", "+", "-", "+", "-", "+"}
	wantLanes := []string{"1", "1", "1", "1", "2", "2", "1"}
	for i := range wantSigns {
		if tb.Rows[0][i+1] != wantSigns[i] {
			t.Errorf("section %d sign = %s, want %s", i, tb.Rows[0][i+1], wantSigns[i])
		}
		if tb.Rows[1][i+1] != wantLanes[i] {
			t.Errorf("section %d lanes = %s, want %s", i, tb.Rows[1][i+1], wantLanes[i])
		}
	}
}

func TestFigure5SeparatesManeuvers(t *testing.T) {
	tb, err := Figure5(quickOpt)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(tb.Rows[0][2], "accepted") {
		t.Errorf("lane change row = %v", tb.Rows[0])
	}
	if !strings.Contains(tb.Rows[1][2], "rejected") {
		t.Errorf("S-curve row = %v", tb.Rows[1])
	}
	// Lane change displacement near 3.65 m.
	w, err := strconv.ParseFloat(tb.Rows[0][1], 64)
	if err != nil {
		t.Fatal(err)
	}
	if w < 2.5 || w > 5 {
		t.Errorf("lane change displacement %v, want ~3.65", w)
	}
}

func TestFigure8aOrdering(t *testing.T) {
	tb, err := Figure8a(quickOpt)
	if err != nil {
		t.Fatal(err)
	}
	// The note carries the MREs; OPS must beat EKF which must beat ANN.
	mres := parseMREs(t, tb.Note)
	if !(mres[0] < mres[1] && mres[1] < mres[2]) {
		t.Errorf("MRE ordering violated: %v", mres)
	}
	if mres[0] > 20 {
		t.Errorf("OPS MRE %v%% too large", mres[0])
	}
}

// parseMREs pulls the three percentages out of the Figure 8(a) note.
func parseMREs(t *testing.T, note string) [3]float64 {
	t.Helper()
	var out [3]float64
	idx := 0
	for _, tok := range strings.Fields(note) {
		for _, prefix := range []string{"OPS=", "EKF=", "ANN="} {
			if strings.HasPrefix(tok, prefix) {
				v := strings.TrimSuffix(strings.TrimPrefix(tok, prefix), "%")
				f, err := strconv.ParseFloat(v, 64)
				if err != nil {
					t.Fatalf("parsing %q: %v", tok, err)
				}
				if idx < 3 {
					out[idx] = f
					idx++
				}
			}
		}
	}
	if idx != 3 {
		t.Fatalf("found %d MREs in note %q", idx, note)
	}
	return out
}

func TestFigure8bFusionHelps(t *testing.T) {
	tb, err := Figure8b(quickOpt)
	if err != nil {
		t.Fatal(err)
	}
	med1, err := strconv.ParseFloat(tb.Rows[0][1], 64)
	if err != nil {
		t.Fatal(err)
	}
	med4, err := strconv.ParseFloat(tb.Rows[0][4], 64)
	if err != nil {
		t.Fatal(err)
	}
	if med4 >= med1*0.8 {
		t.Errorf("4-track fusion median %v not clearly below single-track %v", med4, med1)
	}
}

func TestFigure9bOrdering(t *testing.T) {
	tb, err := Figure9b(quickOpt)
	if err != nil {
		t.Fatal(err)
	}
	ops, _ := strconv.ParseFloat(tb.Rows[0][1], 64)
	ekf, _ := strconv.ParseFloat(tb.Rows[0][2], 64)
	ann, _ := strconv.ParseFloat(tb.Rows[0][3], 64)
	if !(ops < ekf && ekf < ann) {
		t.Errorf("median ordering violated: OPS=%v EKF=%v ANN=%v", ops, ekf, ann)
	}
}

func TestHeadlineReduction(t *testing.T) {
	tb, err := Headline(quickOpt)
	if err != nil {
		t.Fatal(err)
	}
	red := tb.Rows[3][1]
	v, err := strconv.ParseFloat(strings.TrimSuffix(red, "%"), 64)
	if err != nil {
		t.Fatal(err)
	}
	// Paper claims 22%; any clear positive reduction reproduces the shape.
	if v < 10 {
		t.Errorf("error reduction %v%%, want >= 10%%", v)
	}
}

func TestLaneChangeAccuracyHigh(t *testing.T) {
	tb, err := LaneChangeAccuracy(quickOpt)
	if err != nil {
		t.Fatal(err)
	}
	metrics := map[string]string{}
	for _, row := range tb.Rows {
		metrics[row[0]] = row[1]
	}
	for _, key := range []string{"precision", "recall", "direction accuracy"} {
		v, err := strconv.ParseFloat(metrics[key], 64)
		if err != nil {
			t.Fatalf("parsing %s: %v", key, err)
		}
		if v < 0.8 {
			t.Errorf("%s = %v, want >= 0.8", key, v)
		}
	}
	if !strings.HasPrefix(metrics["S-curve false positives"], "0 ") {
		t.Errorf("S-curve false positives: %s", metrics["S-curve false positives"])
	}
}

func TestFuelUpliftPositive(t *testing.T) {
	tb, err := FuelUplift(quickOpt)
	if err != nil {
		t.Fatal(err)
	}
	val := strings.Fields(tb.Rows[0][1])[0]
	v, err := strconv.ParseFloat(strings.TrimSuffix(val, "%"), 64)
	if err != nil {
		t.Fatal(err)
	}
	if v < 5 || v > 90 {
		t.Errorf("uplift = %v%%, outside plausible band", v)
	}
}

func TestFigure9aRuns(t *testing.T) {
	tb, err := Figure9a(quickOpt)
	if err != nil {
		t.Fatal(err)
	}
	if len(tb.Rows) < 4 {
		t.Fatalf("rows = %d", len(tb.Rows))
	}
}

func TestFiguresProduceSeries(t *testing.T) {
	for _, name := range []string{"fig3", "fig4"} {
		tb, err := Run(name, quickOpt)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if len(tb.Rows) < 10 {
			t.Errorf("%s produced only %d rows", name, len(tb.Rows))
		}
	}
}

func TestAllDeterministic(t *testing.T) {
	a, err := Run("fig8b", quickOpt)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run("fig8b", quickOpt)
	if err != nil {
		t.Fatal(err)
	}
	if a.String() != b.String() {
		t.Error("experiment output not deterministic for equal seeds")
	}
}

func TestTableII(t *testing.T) {
	tb, err := TableII(quickOpt)
	if err != nil {
		t.Fatal(err)
	}
	if tb.Rows[0][1] != "0.0545" {
		t.Errorf("paper GGE cell = %s", tb.Rows[0][1])
	}
}

func BenchmarkQuickFigure8a(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := Figure8a(quickOpt); err != nil {
			b.Fatal(err)
		}
	}
}
