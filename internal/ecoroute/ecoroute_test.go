package ecoroute

import (
	"errors"
	"math"
	"math/rand"
	"testing"

	"roadgrade/internal/fuel"
	"roadgrade/internal/geo"
	"roadgrade/internal/road"
)

// uniformSpeeds removes the class factor so tests can reason about one speed.
var uniformSpeeds = map[road.Class]float64{
	road.ClassArterial:  1,
	road.ClassCollector: 1,
	road.ClassLocal:     1,
}

// slopedRoad builds a straight road of len(grades)*5 m with one grade value
// (radians) per 5 m cell, running from 'from' toward 'to'.
func slopedRoad(t *testing.T, id string, from, to geo.ENU, grades []float64) *road.Road {
	t.Helper()
	line, err := geo.NewPolyline([]geo.ENU{from, to})
	if err != nil {
		t.Fatalf("polyline: %v", err)
	}
	prof, err := road.NewProfileFromGrades(5, grades, 100)
	if err != nil {
		t.Fatalf("profile: %v", err)
	}
	r, err := road.NewRoad(id, line, prof, nil, road.ClassCollector)
	if err != nil {
		t.Fatalf("road %s: %v", id, err)
	}
	return r
}

// reversed flips a grade series for the opposite travel direction.
func reversed(grades []float64) []float64 {
	out := make([]float64, len(grades))
	for i, g := range grades {
		out[len(grades)-1-i] = -g
	}
	return out
}

// twoNodeNet is a single street between nodes 1 and 2, both directions.
func twoNodeNet(t *testing.T, grades []float64) *road.Network {
	t.Helper()
	lengthM := 5 * float64(len(grades))
	a, b := geo.ENU{E: 0, N: 0}, geo.ENU{E: lengthM, N: 0}
	fwd := slopedRoad(t, "st-0-0", a, b, grades)
	rev := slopedRoad(t, "st-0-1", b, a, reversed(grades))
	net, err := road.NewNetwork(
		[]road.Node{{ID: 1, Pos: a}, {ID: 2, Pos: b}},
		[]*road.Edge{{From: 1, To: 2, Road: fwd}, {From: 2, To: 1, Road: rev}},
	)
	if err != nil {
		t.Fatalf("network: %v", err)
	}
	return net
}

func constGrades(n int, g float64) []float64 {
	out := make([]float64, n)
	for i := range out {
		out[i] = g
	}
	return out
}

// TestUphillCostsMoreThanDownhill: grade sign flips with travel direction, so
// the same street must cost more gallons climbed than descended, and each
// direction's cost must match fuel.TripFuel over the identical samples to
// 1e-12 (satellite 4).
func TestUphillCostsMoreThanDownhill(t *testing.T) {
	grade := 4.0 * math.Pi / 180 // 4° climb
	net := twoNodeNet(t, constGrades(20, grade))

	eng, err := NewEngine(net, TruthSource{}, Config{
		SpeedsKmh:        []float64{40},
		ClassSpeedFactor: uniformSpeeds,
	})
	if err != nil {
		t.Fatalf("engine: %v", err)
	}
	up, err := eng.Route(Fuel, 40, 1, 2)
	if err != nil {
		t.Fatalf("uphill route: %v", err)
	}
	down, err := eng.Route(Fuel, 40, 2, 1)
	if err != nil {
		t.Fatalf("downhill route: %v", err)
	}
	if up.FuelGal <= down.FuelGal {
		t.Fatalf("uphill fuel %.9f gal not greater than downhill %.9f gal", up.FuelGal, down.FuelGal)
	}
	if up.LengthM != down.LengthM {
		t.Fatalf("directions disagree on length: %v vs %v", up.LengthM, down.LengthM)
	}

	// Reproduce each direction with TripFuel on the same midpoint samples.
	p := fuel.TableII()
	speedMS := 40.0 / 3.6
	for _, tc := range []struct {
		name string
		plan Plan
		road *road.Road
	}{
		{"uphill", up, net.Edges[0].Road},
		{"downhill", down, net.Edges[1].Road},
	} {
		n := int(tc.road.Length() / 5)
		v := make([]float64, n)
		a := make([]float64, n)
		g := make([]float64, n)
		for i := 0; i < n; i++ {
			v[i] = speedMS
			g[i] = tc.road.GradeAt(5*float64(i) + 2.5)
		}
		want, err := fuel.TripFuel(p, 5/speedMS, v, a, g)
		if err != nil {
			t.Fatalf("TripFuel: %v", err)
		}
		if diff := math.Abs(tc.plan.FuelGal - want); diff > 1e-12 {
			t.Errorf("%s: engine fuel %.15f gal, TripFuel %.15f gal, diff %.3e > 1e-12",
				tc.name, tc.plan.FuelGal, want, diff)
		}
		if tc.plan.CO2G != tc.plan.FuelGal*fuel.CO2GramsPerGallon {
			t.Errorf("%s: CO2 %.6f g not fuel × factor", tc.name, tc.plan.CO2G)
		}
	}
}

// TestObjectivesDisagree: on a diamond graph where the direct street is steep
// and slow but a detour is flat and fast, the three metrics must pick the
// routes they advertise.
func TestObjectivesDisagree(t *testing.T) {
	// Nodes: 1 --steep local street (400 m, 8° climb)--> 4
	//        1 --flat arterial detour via 2,3 (600 m total)--> 4
	mk := func(id string, from, to geo.ENU, grades []float64, cls road.Class) *road.Road {
		line, err := geo.NewPolyline([]geo.ENU{from, to})
		if err != nil {
			t.Fatalf("polyline: %v", err)
		}
		prof, err := road.NewProfileFromGrades(5, grades, 100)
		if err != nil {
			t.Fatalf("profile: %v", err)
		}
		r, err := road.NewRoad(id, line, prof, nil, cls)
		if err != nil {
			t.Fatalf("road %s: %v", id, err)
		}
		return r
	}
	// Direct 600 m at local speed (×0.85): 63.5 s. Detour 800 m at arterial
	// speed (×1.25): 57.6 s. Shortest by meters = direct, fastest = detour,
	// and the 8° climb makes the flat detour the fuel winner too.
	n1 := geo.ENU{E: 0, N: 0}
	n2 := geo.ENU{E: 0, N: 100}
	n3 := geo.ENU{E: 600, N: 100}
	n4 := geo.ENU{E: 600, N: 0}
	steep := 8.0 * math.Pi / 180
	direct := mk("direct", n1, n4, constGrades(120, steep), road.ClassLocal)
	leg12 := mk("leg12", n1, n2, constGrades(20, 0), road.ClassArterial)
	leg23 := mk("leg23", n2, n3, constGrades(120, 0), road.ClassArterial)
	leg34 := mk("leg34", n3, n4, constGrades(20, 0), road.ClassArterial)
	net, err := road.NewNetwork(
		[]road.Node{{ID: 1, Pos: n1}, {ID: 2, Pos: n2}, {ID: 3, Pos: n3}, {ID: 4, Pos: n4}},
		[]*road.Edge{
			{From: 1, To: 4, Road: direct},
			{From: 1, To: 2, Road: leg12},
			{From: 2, To: 3, Road: leg23},
			{From: 3, To: 4, Road: leg34},
		},
	)
	if err != nil {
		t.Fatalf("network: %v", err)
	}
	eng, err := NewEngine(net, TruthSource{}, Config{SpeedsKmh: []float64{40}})
	if err != nil {
		t.Fatalf("engine: %v", err)
	}

	dist, err := eng.Route(Distance, 40, 1, 4)
	if err != nil {
		t.Fatalf("distance: %v", err)
	}
	if len(dist.RoadIDs) != 1 || dist.RoadIDs[0] != "direct" {
		t.Errorf("shortest route took %v, want the direct street", dist.RoadIDs)
	}
	fast, err := eng.Route(Time, 40, 1, 4)
	if err != nil {
		t.Fatalf("time: %v", err)
	}
	if len(fast.RoadIDs) != 3 {
		t.Errorf("fastest route took %v, want the arterial detour", fast.RoadIDs)
	}
	eco, err := eng.Route(Fuel, 40, 1, 4)
	if err != nil {
		t.Fatalf("fuel: %v", err)
	}
	if len(eco.RoadIDs) != 3 {
		t.Errorf("eco route took %v, want the flat detour", eco.RoadIDs)
	}
	co2, err := eng.Route(CO2, 40, 1, 4)
	if err != nil {
		t.Fatalf("co2: %v", err)
	}
	if co2.Cost != eco.Cost*fuel.CO2GramsPerGallon {
		t.Errorf("CO2 cost %.6f g, want fuel cost × factor = %.6f", co2.Cost, eco.Cost*fuel.CO2GramsPerGallon)
	}
	if len(co2.RoadIDs) != len(eco.RoadIDs) {
		t.Errorf("CO2 route %v differs from fuel route %v", co2.RoadIDs, eco.RoadIDs)
	}
}

// TestCO2PlanCostBits pins a CO2 plan's Cost: under ALT, CCH and
// Dijkstra alike it equals, by Float64bits, the travel-order sum of each
// edge's fuel cost times the CO2 factor, each product rounded on its own —
// the sum of a row of per-edge grams, as if the snapshot stored one.
func TestCO2PlanCostBits(t *testing.T) {
	net, err := road.GenerateNetwork(43, road.NetworkConfig{TargetStreetKM: 30})
	if err != nil {
		t.Fatalf("network: %v", err)
	}
	engines := map[string]*Engine{}
	for _, alg := range []string{AlgALT, AlgCCH} {
		if engines[alg], err = NewEngine(net, TruthSource{}, Config{Algorithm: alg}); err != nil {
			t.Fatalf("%s engine: %v", alg, err)
		}
	}
	eng := engines[AlgCCH]
	tb, err := eng.fresh()
	if err != nil {
		t.Fatalf("tables: %v", err)
	}
	const kmh = 50
	bucket, _ := eng.bucketFor(kmh)
	grams := make([]float64, len(eng.edges))
	for i := range grams {
		grams[i] = tb.fuel[bucket].at(int32(i)) * fuel.CO2GramsPerGallon
	}
	rng := rand.New(rand.NewSource(43))
	checked := 0
	for checked < 40 {
		from, to := net.Nodes[rng.Intn(len(net.Nodes))].ID, net.Nodes[rng.Intn(len(net.Nodes))].ID
		if from == to {
			continue
		}
		plans := map[string]func() (Plan, error){
			"alt":      func() (Plan, error) { return engines[AlgALT].Route(CO2, kmh, from, to) },
			"cch":      func() (Plan, error) { return eng.Route(CO2, kmh, from, to) },
			"dijkstra": func() (Plan, error) { return eng.RouteDijkstra(CO2, kmh, from, to) },
		}
		for name, plan := range plans {
			p, err := plan()
			if errors.Is(err, ErrNoPath) {
				continue
			}
			if err != nil {
				t.Fatalf("%s %d→%d: %v", name, from, to, err)
			}
			if name == "dijkstra" {
				checked++
			}
			want := 0.0
			for _, id := range p.RoadIDs {
				want += grams[eng.roadEdges[id][0]]
			}
			if math.Float64bits(p.Cost) != math.Float64bits(want) {
				t.Fatalf("%s %d→%d: CO2 cost %.17g, in-order sum of edge grams %.17g", name, from, to, p.Cost, want)
			}
		}
	}
}

// TestMinFuelNeverWorseThanShortest is the acceptance property: over ≥50
// random O/D pairs, the min-fuel route never burns more than the shortest-
// distance route.
func TestMinFuelNeverWorseThanShortest(t *testing.T) {
	net, err := road.GenerateNetwork(41, road.NetworkConfig{TargetStreetKM: 12})
	if err != nil {
		t.Fatalf("network: %v", err)
	}
	eng, err := NewEngine(net, TruthSource{}, Config{})
	if err != nil {
		t.Fatalf("engine: %v", err)
	}
	rng := rand.New(rand.NewSource(7))
	pairs := 0
	for pairs < 60 {
		from := net.Nodes[rng.Intn(len(net.Nodes))].ID
		to := net.Nodes[rng.Intn(len(net.Nodes))].ID
		if from == to {
			continue
		}
		eco, err := eng.Route(Fuel, 40, from, to)
		if errors.Is(err, ErrNoPath) {
			continue
		}
		if err != nil {
			t.Fatalf("fuel route %d→%d: %v", from, to, err)
		}
		short, err := eng.Route(Distance, 40, from, to)
		if err != nil {
			t.Fatalf("distance route %d→%d: %v", from, to, err)
		}
		if eco.FuelGal > short.FuelGal*(1+1e-12) {
			t.Errorf("pair %d→%d: min-fuel route burns %.9f gal > shortest route's %.9f gal",
				from, to, eco.FuelGal, short.FuelGal)
		}
		if eco.LengthM < short.LengthM*(1-1e-12) {
			t.Errorf("pair %d→%d: shortest route longer (%.3f m) than eco route (%.3f m)",
				from, to, short.LengthM, eco.LengthM)
		}
		pairs++
	}
}

// TestBidirectionalMatchesDijkstra: the optimized search must return
// bit-identical costs to the plain Dijkstra reference, for every objective.
func TestBidirectionalMatchesDijkstra(t *testing.T) {
	net, err := road.GenerateNetwork(43, road.NetworkConfig{TargetStreetKM: 12})
	if err != nil {
		t.Fatalf("network: %v", err)
	}
	eng, err := NewEngine(net, TruthSource{}, Config{})
	if err != nil {
		t.Fatalf("engine: %v", err)
	}
	rng := rand.New(rand.NewSource(11))
	checked := 0
	for checked < 40 {
		from := net.Nodes[rng.Intn(len(net.Nodes))].ID
		to := net.Nodes[rng.Intn(len(net.Nodes))].ID
		if from == to {
			continue
		}
		for _, obj := range Objectives() {
			fast, errF := eng.Route(obj, 40, from, to)
			ref, errR := eng.RouteDijkstra(obj, 40, from, to)
			if (errF == nil) != (errR == nil) {
				t.Fatalf("%s %d→%d: search disagreement: fast err %v, reference err %v", obj, from, to, errF, errR)
			}
			if errF != nil {
				if !errors.Is(errF, ErrNoPath) {
					t.Fatalf("%s %d→%d: %v", obj, from, to, errF)
				}
				continue
			}
			if fast.Cost != ref.Cost {
				t.Errorf("%s %d→%d: bidirectional cost %.17g != Dijkstra cost %.17g",
					obj, from, to, fast.Cost, ref.Cost)
			}
		}
		checked++
	}
}

// TestMatrixMatchesPointQueries: the batched many-to-many grid must agree
// with individual point-to-point answers, including unreachable = +Inf and
// diagonal zeros.
func TestMatrixMatchesPointQueries(t *testing.T) {
	net, err := road.GenerateNetwork(47, road.NetworkConfig{TargetStreetKM: 8})
	if err != nil {
		t.Fatalf("network: %v", err)
	}
	eng, err := NewEngine(net, TruthSource{}, Config{})
	if err != nil {
		t.Fatalf("engine: %v", err)
	}
	rng := rand.New(rand.NewSource(3))
	var nodes []int
	seen := map[int]bool{}
	for len(nodes) < 8 {
		id := net.Nodes[rng.Intn(len(net.Nodes))].ID
		if !seen[id] {
			seen[id] = true
			nodes = append(nodes, id)
		}
	}
	for _, obj := range []Objective{Distance, Fuel, CO2} {
		grid, err := eng.Matrix(obj, 40, nodes, nodes)
		if err != nil {
			t.Fatalf("matrix %s: %v", obj, err)
		}
		for i, from := range nodes {
			for j, to := range nodes {
				if from == to {
					if grid[i][j] != 0 {
						t.Errorf("%s: diagonal [%d][%d] = %v, want 0", obj, i, j, grid[i][j])
					}
					continue
				}
				plan, err := eng.RouteDijkstra(obj, 40, from, to)
				if errors.Is(err, ErrNoPath) {
					if !math.IsInf(grid[i][j], 1) {
						t.Errorf("%s %d→%d: matrix %v, want +Inf for no path", obj, from, to, grid[i][j])
					}
					continue
				}
				if err != nil {
					t.Fatalf("%s %d→%d: %v", obj, from, to, err)
				}
				if diff := math.Abs(grid[i][j] - plan.Cost); diff > 1e-9*math.Max(1, plan.Cost) {
					t.Errorf("%s %d→%d: matrix cost %.12g, route cost %.12g", obj, from, to, grid[i][j], plan.Cost)
				}
			}
		}
	}
	if _, err := eng.Matrix(Fuel, 40, nil, nodes); err == nil {
		t.Error("empty source set: want error")
	}
	if _, err := eng.Matrix(Fuel, 40, []int{-99}, nodes); !errors.Is(err, ErrUnknownNode) {
		t.Errorf("unknown matrix source: got %v, want ErrUnknownNode", err)
	}
}

func TestParseObjective(t *testing.T) {
	cases := map[string]Objective{
		"distance": Distance, "shortest": Distance,
		"time": Time, "fastest": Time,
		"fuel": Fuel, "eco": Fuel, "FUEL": Fuel,
		"co2": CO2, "emission": CO2,
	}
	for in, want := range cases {
		got, err := ParseObjective(in)
		if err != nil || got != want {
			t.Errorf("ParseObjective(%q) = %v, %v; want %v", in, got, err, want)
		}
	}
	if _, err := ParseObjective("scenic"); err == nil {
		t.Error("ParseObjective(scenic): want error")
	}
}

func TestRouteErrors(t *testing.T) {
	net := twoNodeNet(t, constGrades(10, 0))
	eng, err := NewEngine(net, TruthSource{}, Config{SpeedsKmh: []float64{40}})
	if err != nil {
		t.Fatalf("engine: %v", err)
	}
	if _, err := eng.Route(Fuel, 40, 99, 1); !errors.Is(err, ErrUnknownNode) {
		t.Errorf("unknown from: got %v, want ErrUnknownNode", err)
	}
	if _, err := eng.Route(Fuel, 40, 1, 99); !errors.Is(err, ErrUnknownNode) {
		t.Errorf("unknown to: got %v, want ErrUnknownNode", err)
	}
	if _, err := eng.Route(Fuel, -1, 1, 2); err == nil {
		t.Error("negative speed: want error")
	}
	plan, err := eng.Route(Fuel, 40, 1, 1)
	if err != nil || plan.Cost != 0 || len(plan.RoadIDs) != 0 {
		t.Errorf("self route: got %+v, %v; want empty zero-cost plan", plan, err)
	}
	if _, err := NewEngine(nil, TruthSource{}, Config{}); err == nil {
		t.Error("nil network: want error")
	}
	if _, err := NewEngine(net, nil, Config{}); err == nil {
		t.Error("nil source: want error")
	}
	if _, err := NewEngine(net, TruthSource{}, Config{SpeedsKmh: []float64{0}}); err == nil {
		t.Error("zero speed bucket: want error")
	}
}
