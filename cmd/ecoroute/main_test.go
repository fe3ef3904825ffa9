package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"io"
	"math"
	"strings"
	"testing"
	"time"

	"roadgrade/internal/ecoroute"
	"roadgrade/internal/road"
)

// TestUnknownObjectiveError: an unrecognized -objective must produce an error
// (the CLI exits non-zero on any run() error) whose message carries every
// valid objective — the same catalogue the engine's parser accepts.
func TestUnknownObjectiveError(t *testing.T) {
	err := unknownObjectiveError("scenic")
	if err == nil {
		t.Fatal("expected an error for an unknown objective")
	}
	msg := err.Error()
	if !strings.Contains(msg, `"scenic"`) {
		t.Errorf("message does not name the bad objective: %q", msg)
	}
	objs := ecoroute.Objectives()
	if len(objs) < 8 {
		t.Fatalf("only %d objectives registered", len(objs))
	}
	for _, o := range objs {
		if !strings.Contains(msg, o.String()) {
			t.Errorf("message lacks valid objective %q: %q", o.String(), msg)
		}
	}
	if !strings.HasSuffix(msg, objectiveListText()) {
		t.Errorf("error does not end with the objective listing: %q", msg)
	}
	// Every listed objective must round-trip through the parser.
	for _, line := range strings.Split(objectiveListText(), "\n") {
		if _, err := ecoroute.ParseObjective(line); err != nil {
			t.Errorf("listed objective %q does not parse: %v", line, err)
		}
	}
}

func testEngine(t *testing.T) (*ecoroute.Engine, *road.Network) {
	t.Helper()
	net, err := road.GenerateNetwork(31, road.NetworkConfig{TargetStreetKM: 5})
	if err != nil {
		t.Fatalf("network: %v", err)
	}
	eng, err := ecoroute.NewEngine(net, ecoroute.TruthSource{}, ecoroute.Config{})
	if err != nil {
		t.Fatalf("engine: %v", err)
	}
	return eng, net
}

// TestPanelRowsOrdered: the panel must report distance and time baselines
// first, then the requested eco objective, with the eco planner's fuel mean
// at or below both baselines'.
func TestPanelQueryMeans(t *testing.T) {
	eng, net := testEngine(t)
	objectives := []ecoroute.Objective{ecoroute.Distance, ecoroute.Time, ecoroute.Fuel}
	rows := make([]panelRow, 0, len(objectives))
	// Reuse the CLI's sampling logic indirectly by running a small panel
	// through panelQuery's core loop shape.
	sample := [][2]int{}
	for i := 0; len(sample) < 10; i++ {
		f := net.Nodes[(i*7)%len(net.Nodes)].ID
		to := net.Nodes[(i*13+5)%len(net.Nodes)].ID
		if f == to {
			continue
		}
		if _, err := eng.Route(ecoroute.Distance, 40, f, to); err != nil {
			continue
		}
		sample = append(sample, [2]int{f, to})
	}
	for _, o := range objectives {
		row := panelRow{Objective: o.String(), Pairs: len(sample)}
		for _, p := range sample {
			plan, err := eng.Route(o, 40, p[0], p[1])
			if err != nil {
				t.Fatalf("%s %d→%d: %v", o, p[0], p[1], err)
			}
			row.MeanLengthM += plan.LengthM
			row.MeanFuelGal += plan.FuelGal
		}
		k := float64(len(sample))
		row.MeanLengthM /= k
		row.MeanFuelGal /= k
		rows = append(rows, row)
	}
	if rows[2].MeanFuelGal > rows[0].MeanFuelGal || rows[2].MeanFuelGal > rows[1].MeanFuelGal {
		t.Errorf("min-fuel mean %.4f gal above a baseline (%.4f / %.4f)",
			rows[2].MeanFuelGal, rows[0].MeanFuelGal, rows[1].MeanFuelGal)
	}
	if rows[0].MeanLengthM > rows[1].MeanLengthM || rows[0].MeanLengthM > rows[2].MeanLengthM {
		t.Errorf("shortest mean length %.1f m above a baseline", rows[0].MeanLengthM)
	}
	// The wire form must round-trip for -format json consumers.
	b, err := json.Marshal(rows)
	if err != nil {
		t.Fatalf("marshal: %v", err)
	}
	var back []panelRow
	if err := json.Unmarshal(b, &back); err != nil {
		t.Fatalf("unmarshal: %v", err)
	}
	if len(back) != len(rows) || math.Abs(back[2].MeanFuelGal-rows[2].MeanFuelGal) > 1e-12 {
		t.Error("panel rows did not round-trip through JSON")
	}
}

// TestPanelQueryBadSpeed: a cruise speed the engine refuses ends the panel
// with the engine's error. The pair sampler redraws only a disconnected
// pair; taking every failed route for one, it redrew forever.
func TestPanelQueryBadSpeed(t *testing.T) {
	eng, net := testEngine(t)
	for _, speed := range []float64{0, -5, math.NaN()} {
		done := make(chan error, 1)
		go func() { done <- panelQuery(io.Discard, eng, net, ecoroute.Fuel, speed, 3, 1, "table") }()
		select {
		case err := <-done:
			if err == nil || !strings.Contains(err.Error(), "cruise speed") {
				t.Errorf("speed %v: got %v, want the invalid cruise speed error", speed, err)
			}
		case <-time.After(10 * time.Second):
			t.Fatalf("speed %v: panelQuery still drawing pairs after 10 s", speed)
		}
	}
}

// TestSingleQueryJSON: -from/-to -format json names each plan's objective
// ("Objective":"distance") rather than printing the enum's position.
func TestSingleQueryJSON(t *testing.T) {
	eng, net := testEngine(t)
	from, to := net.Nodes[0].ID, -1
	for _, n := range net.Nodes[1:] {
		if _, err := eng.Route(ecoroute.Distance, 40, from, n.ID); err == nil {
			to = n.ID
			break
		}
	}
	if to < 0 {
		t.Fatal("no node reachable from node 0")
	}
	var out bytes.Buffer
	if err := singleQuery(&out, eng, 40, from, to, "json"); err != nil {
		t.Fatal(err)
	}
	for _, o := range ecoroute.Objectives() {
		if want := `"Objective":"` + o.String() + `"`; !strings.Contains(out.String(), want) {
			t.Errorf("JSON lacks %s: %.200s", want, out.String())
		}
	}
}

// TestErrorLinePrefixOnce: the command's name heads every error line once,
// whether or not the error came from the engine with it already.
func TestErrorLinePrefixOnce(t *testing.T) {
	eng, _ := testEngine(t)
	_, engineErr := eng.Route(ecoroute.Fuel, 40, 0, 99999)
	if engineErr == nil {
		t.Fatal("route to node 99999: want an error")
	}
	for _, err := range []error{engineErr, errors.New("need either -from and -to, or -pairs")} {
		line := errorLine(err)
		if !strings.HasPrefix(line, "ecoroute: ") || strings.Count(line, "ecoroute: ") != 1 {
			t.Errorf("error line %q, want one ecoroute: prefix", line)
		}
	}
	if got, want := errorLine(engineErr), "ecoroute: unknown node 99999"; got != want {
		t.Errorf("error line %q, want %q", got, want)
	}
}
