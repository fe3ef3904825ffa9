package ecoroute

import (
	"errors"
	"math"
	"math/rand"
	"testing"

	"roadgrade/internal/emission"
	"roadgrade/internal/geo"
	"roadgrade/internal/road"
)

// pollutantObjectives are the four binned-emission routing objectives.
var pollutantObjectives = []Objective{NOx, CO, HC, PM}

// TestMinNOxDivergesFromMinFuel is the divergence claim on a constructed
// diamond: a short steep street versus a longer flat detour, tuned so the
// linear-in-sinθ fuel model prefers the climb while the binned NOx model —
// which jumps two VSP bins on the 8% pitch — prefers the flat detour.
func TestMinNOxDivergesFromMinFuel(t *testing.T) {
	n1 := geo.ENU{E: 0, N: 0}
	n2 := geo.ENU{E: 100, N: math.Sqrt(80000)} // both detour legs exactly 300 m
	n3 := geo.ENU{E: 200, N: 0}
	mk := func(id string, from, to geo.ENU, grades []float64) *road.Road {
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
	// Direct: 200 m at 0.08 rad (~8%). Detour: 2 × 300 m flat. At 40 km/h
	// (11.11 m/s, low speed class) the climb costs ~2.9× the flat rate in
	// fuel but only needs 1/3 the distance → fuel picks it (0.0118 vs
	// 0.0123 gal); NOx jumps from bin 12 (1.4 g/hr) to bin 15 (5.0 g/hr) on
	// the climb → NOx picks the detour (0.021 vs 0.025 g).
	steep := constGrades(40, 0.08)
	net, err := road.NewNetwork(
		[]road.Node{{ID: 1, Pos: n1}, {ID: 2, Pos: n2}, {ID: 3, Pos: n3}},
		[]*road.Edge{
			{From: 1, To: 3, Road: mk("direct", n1, n3, steep)},
			{From: 1, To: 2, Road: mk("leg12", n1, n2, constGrades(60, 0))},
			{From: 2, To: 3, Road: mk("leg23", n2, n3, constGrades(60, 0))},
		},
	)
	if err != nil {
		t.Fatalf("network: %v", err)
	}
	eng, err := NewEngine(net, TruthSource{}, Config{
		SpeedsKmh:        []float64{40},
		ClassSpeedFactor: uniformSpeeds,
	})
	if err != nil {
		t.Fatalf("engine: %v", err)
	}
	minFuel, err := eng.Route(Fuel, 40, 1, 3)
	if err != nil {
		t.Fatalf("fuel route: %v", err)
	}
	minNOx, err := eng.Route(NOx, 40, 1, 3)
	if err != nil {
		t.Fatalf("nox route: %v", err)
	}
	if len(minFuel.RoadIDs) != 1 || minFuel.RoadIDs[0] != "direct" {
		t.Fatalf("min-fuel route took %v, want the steep direct street", minFuel.RoadIDs)
	}
	if len(minNOx.RoadIDs) != 2 {
		t.Fatalf("min-NOx route took %v, want the flat detour", minNOx.RoadIDs)
	}
	if minNOx.Cost != minNOx.EmisG[emission.NOx] {
		t.Errorf("NOx plan cost %.9g != its EmisG[NOx] %.9g", minNOx.Cost, minNOx.EmisG[emission.NOx])
	}
	// The trade quantified: the NOx route spends more fuel, saves NOx.
	if minNOx.FuelGal <= minFuel.FuelGal {
		t.Errorf("min-NOx route fuel %.6f gal not above min-fuel's %.6f", minNOx.FuelGal, minFuel.FuelGal)
	}
	fuelRouteEmis, err := eng.PlanEmissions(minFuel)
	if err != nil {
		t.Fatalf("PlanEmissions: %v", err)
	}
	if fuelRouteEmis[emission.NOx] <= minNOx.EmisG[emission.NOx] {
		t.Errorf("min-fuel route NOx %.6f g not above min-NOx route's %.6f g",
			fuelRouteEmis[emission.NOx], minNOx.EmisG[emission.NOx])
	}
}

// TestPollutantRoutesBitIdentical is the acceptance property for the new
// objectives: over random O/D pairs, ALT and CCH answers must equal the
// plain Dijkstra reference to the last bit — before AND after an
// incremental generation tick re-fuses one road.
func TestPollutantRoutesBitIdentical(t *testing.T) {
	net, err := road.GenerateNetwork(47, road.NetworkConfig{TargetStreetKM: 12})
	if err != nil {
		t.Fatalf("network: %v", err)
	}
	for _, alg := range []string{AlgALT, AlgCCH} {
		src := &tickSource{roadID: net.Edges[0].Road.ID()}
		eng, err := NewEngine(net, src, Config{Algorithm: alg})
		if err != nil {
			t.Fatalf("%s engine: %v", alg, err)
		}
		check := func(tag string) {
			t.Helper()
			rng := rand.New(rand.NewSource(13))
			checked := 0
			for checked < 12 {
				from := net.Nodes[rng.Intn(len(net.Nodes))].ID
				to := net.Nodes[rng.Intn(len(net.Nodes))].ID
				if from == to {
					continue
				}
				for _, obj := range pollutantObjectives {
					fast, errF := eng.Route(obj, 40, from, to)
					ref, errR := eng.RouteDijkstra(obj, 40, from, to)
					if (errF == nil) != (errR == nil) {
						t.Fatalf("%s/%s %s %d→%d: err %v vs %v", alg, tag, obj, from, to, errF, errR)
					}
					if errF != nil {
						if !errors.Is(errF, ErrNoPath) {
							t.Fatalf("%s/%s %s %d→%d: %v", alg, tag, obj, from, to, errF)
						}
						continue
					}
					if math.Float64bits(fast.Cost) != math.Float64bits(ref.Cost) {
						t.Errorf("%s/%s %s %d→%d: cost %.17g != Dijkstra %.17g",
							alg, tag, obj, from, to, fast.Cost, ref.Cost)
					}
				}
				checked++
			}
		}
		check("pre-tick")
		src.gen++
		check("post-tick")
		if alg == AlgCCH {
			st := eng.lastCustStats()
			if st.full {
				t.Errorf("cch post-tick customization ran full instead of incremental: %+v", st)
			}
		}
	}
}

// TestEmissionRowsLazyAndIncremental pins the cost-table contract: pollutant
// rows are not built until a pollutant objective is queried, and after a
// one-road tick the next build copies every unchanged edge from the carried
// snapshot bit-for-bit, re-integrating only the stamped road.
func TestEmissionRowsLazyAndIncremental(t *testing.T) {
	net, err := road.GenerateNetwork(53, road.NetworkConfig{TargetStreetKM: 6})
	if err != nil {
		t.Fatalf("network: %v", err)
	}
	tickID := net.Edges[0].Road.ID()
	src := &tickSource{roadID: tickID}
	eng, err := NewEngine(net, src, Config{SpeedsKmh: []float64{40}})
	if err != nil {
		t.Fatalf("engine: %v", err)
	}
	if _, err := eng.Route(Fuel, 40, net.Edges[0].From, net.Edges[len(net.Edges)-1].To); err != nil && !errors.Is(err, ErrNoPath) {
		t.Fatalf("fuel route: %v", err)
	}
	tb1 := eng.cur.p.Load()
	if tb1.emis[0] != nil {
		t.Fatal("fuel-only query materialized pollutant rows — they must stay lazy")
	}
	rowsBefore := make(map[emission.Pollutant][]float64)
	for _, sp := range emission.Pollutants() {
		rowsBefore[sp] = rowValues(eng.emissionRow(sp, 0, tb1))
	}
	if tb1.emis[0] == nil {
		t.Fatal("emissionRow did not store the bucket's rows")
	}

	src.gen++
	tb2, err := eng.fresh()
	if err != nil {
		t.Fatalf("fresh: %v", err)
	}
	if tb2 == tb1 {
		t.Fatal("tick did not produce a new snapshot")
	}
	if base := eng.emisNewest[0].Load(); base == nil || base.gen != tb1.gen {
		t.Fatal("the built pollutant rows were not kept for the next snapshot")
	}
	changedEdge := -1
	for _, sp := range emission.Pollutants() {
		after := rowValues(eng.emissionRow(sp, 0, tb2))
		for i := range after {
			if eng.edges[i].Road.ID() == tickID {
				changedEdge = i
				if after[i] == rowsBefore[sp][i] {
					t.Errorf("%s: ticked road's cost did not change", sp)
				}
				continue
			}
			if math.Float64bits(after[i]) != math.Float64bits(rowsBefore[sp][i]) {
				t.Errorf("%s edge %d: unchanged road's cost moved %.17g → %.17g",
					sp, i, rowsBefore[sp][i], after[i])
			}
		}
	}
	if changedEdge < 0 {
		t.Fatal("ticked road not found among edges")
	}
}

// TestPlanEmissionsMatchesObjectivePlan: for a pollutant-objective plan,
// PlanEmissions must reproduce the plan's own EmisG exactly (same rows,
// same travel-order summation).
func TestPlanEmissionsMatchesObjectivePlan(t *testing.T) {
	net, err := road.GenerateNetwork(59, road.NetworkConfig{TargetStreetKM: 6})
	if err != nil {
		t.Fatalf("network: %v", err)
	}
	eng, err := NewEngine(net, TruthSource{}, Config{})
	if err != nil {
		t.Fatalf("engine: %v", err)
	}
	rng := rand.New(rand.NewSource(3))
	for tries := 0; tries < 50; tries++ {
		from := net.Nodes[rng.Intn(len(net.Nodes))].ID
		to := net.Nodes[rng.Intn(len(net.Nodes))].ID
		if from == to {
			continue
		}
		p, err := eng.Route(CO, 40, from, to)
		if errors.Is(err, ErrNoPath) {
			continue
		}
		if err != nil {
			t.Fatalf("route: %v", err)
		}
		got, err := eng.PlanEmissions(p)
		if err != nil {
			t.Fatalf("PlanEmissions: %v", err)
		}
		if got != p.EmisG {
			t.Fatalf("PlanEmissions %v != plan EmisG %v", got, p.EmisG)
		}
		if p.EmisG[emission.CO] != p.Cost {
			t.Fatalf("CO plan cost %v != EmisG[CO] %v", p.Cost, p.EmisG[emission.CO])
		}
		return
	}
	t.Skip("no routable pair found")
}
