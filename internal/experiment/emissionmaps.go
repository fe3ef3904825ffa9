package experiment

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"sort"

	"roadgrade/internal/cloud"
	"roadgrade/internal/ecoroute"
	"roadgrade/internal/emission"
	"roadgrade/internal/fusion"
	"roadgrade/internal/road"
	"roadgrade/internal/stats"
)

// truthProfile builds the fused-store submission for one road from its
// ground-truth gradients at 5 m spacing — the steady state a fleet of honest
// vehicles converges to.
func truthProfile(r *road.Road) *fusion.Profile {
	n := int(math.Ceil(r.Length()/5)) + 1
	p := &fusion.Profile{
		SpacingM: 5,
		S:        make([]float64, n),
		GradeRad: make([]float64, n),
		Var:      make([]float64, n),
	}
	for i := range p.S {
		p.S[i] = 5 * float64(i)
		p.GradeRad[i] = r.GradeAt(p.S[i])
		p.Var[i] = 1e-4
	}
	return p
}

// EmissionMaps extends Figure 10(b) from proportional CO₂ to the
// operating-mode pollutants: it stands up an in-process cloud server, feeds
// it truth-derived profiles for every road, and reads back the city-wide
// per-road, per-pollutant emission table from the fused map (the data behind
// a pollutant city map). The second half quantifies why separate pollutant
// objectives matter: over random O/D pairs on the hilly network, min-NOx
// routing diverges from min-fuel — NOx rates jump whole operating-mode bins
// on climbs that fuel, linear in sinθ, still accepts.
func EmissionMaps(opt Options) (Table, error) {
	targetKM := 30.0
	nPairs := 40
	if opt.Quick {
		targetKM = 6
		nPairs = 12
	}
	net, err := cachedNetwork(opt.Seed+1826, targetKM)
	if err != nil {
		return Table{}, err
	}

	// The cloud side: submit every road's truth profile, then read the
	// emission table the way `GET /v1/emissions` serves it, from the routing
	// engine's snapshot of the fused map.
	srv := cloud.NewServer()
	eng, err := ecoroute.NewEngine(net, ecoroute.CloudSource{Store: srv}, ecoroute.Config{})
	if err != nil {
		return Table{}, err
	}
	srv.EnableRouting(eng)
	if err := srv.EnableEmissions(net); err != nil {
		return Table{}, err
	}
	for _, ed := range net.Edges {
		if err := srv.Submit(ed.Road.ID(), truthProfile(ed.Road)); err != nil {
			return Table{}, fmt.Errorf("experiment: submit %s: %w", ed.Road.ID(), err)
		}
	}
	carTable, err := srv.EmissionTable(emission.Car, cruiseKmh)
	if err != nil {
		return Table{}, err
	}
	fused := 0
	nox := make([]float64, 0, len(carTable.Roads))
	for _, row := range carTable.Roads {
		if row.Provenance == "fused" {
			fused++
		}
		nox = append(nox, row.NOxGPerKm)
	}
	sum, err := stats.Summarize(nox)
	if err != nil {
		return Table{}, err
	}

	// Figure 10(a)'s co-location claim, restated for NOx: the steepest
	// quartile of roads out-emits the flattest.
	sorted := append([]cloud.EmissionRoadDTO(nil), carTable.Roads...)
	sort.Slice(sorted, func(i, j int) bool {
		return math.Abs(sorted[i].MeanGradeDeg) < math.Abs(sorted[j].MeanGradeDeg)
	})
	q := len(sorted) / 4
	if q == 0 {
		q = 1
	}
	meanNOx := func(rows []cloud.EmissionRoadDTO) float64 {
		var s float64
		for _, r := range rows {
			s += r.NOxGPerKm
		}
		return s / float64(len(rows))
	}
	flattest := meanNOx(sorted[:q])
	steepest := meanNOx(sorted[len(sorted)-q:])

	classMeans := make([]float64, 0, 3)
	for _, cls := range []emission.VehicleClass{emission.Car, emission.Truck, emission.Bus} {
		tbl, err := srv.EmissionTable(cls, cruiseKmh)
		if err != nil {
			return Table{}, err
		}
		var s float64
		for _, row := range tbl.Roads {
			s += row.NOxGPerKm
		}
		classMeans = append(classMeans, s/float64(len(tbl.Roads)))
	}

	// The routing side: min-NOx vs min-fuel over the same fused map.
	rng := rand.New(rand.NewSource(opt.Seed + 41))
	type pair struct{ from, to int }
	var pairs []pair
	for len(pairs) < nPairs {
		from := net.Nodes[rng.Intn(len(net.Nodes))].ID
		to := net.Nodes[rng.Intn(len(net.Nodes))].ID
		if from == to {
			continue
		}
		if _, err := eng.Route(ecoroute.Distance, cruiseKmh, from, to); err != nil {
			if errors.Is(err, ecoroute.ErrNoPath) {
				continue
			}
			return Table{}, err
		}
		pairs = append(pairs, pair{from, to})
	}
	diverged := 0
	var noxSave, fuelPenalty float64
	for _, pr := range pairs {
		minFuel, err := eng.Route(ecoroute.Fuel, cruiseKmh, pr.from, pr.to)
		if err != nil {
			return Table{}, err
		}
		minNOx, err := eng.Route(ecoroute.NOx, cruiseKmh, pr.from, pr.to)
		if err != nil {
			return Table{}, err
		}
		if samePath(minFuel.RoadIDs, minNOx.RoadIDs) {
			continue
		}
		diverged++
		fuelNOx, err := eng.Evaluate(minFuel)
		if err != nil {
			return Table{}, err
		}
		if g := fuelNOx.EmisG[emission.NOx]; g > 0 {
			noxSave += (g - minNOx.EmisG[emission.NOx]) / g
		}
		if minFuel.FuelGal > 0 {
			fuelPenalty += (minNOx.FuelGal - minFuel.FuelGal) / minFuel.FuelGal
		}
	}
	divRow := func(v float64) string {
		if diverged == 0 {
			return "n/a"
		}
		return fmt.Sprintf("%.2f%%", v/float64(diverged)*100)
	}

	return Table{
		ID:    "EmissionMaps",
		Title: "City pollutant emission map from the fused gradient map (NOx, 40 km/h)",
		Note: fmt.Sprintf("per-road operating-mode intensities over a %.0f km network; min-NOx vs min-fuel compared on %d O/D pairs; reproduce with `gradebench -exp emissionmaps`",
			netKM(net), len(pairs)),
		Header: []string{"metric", "value"},
		Rows: [][]string{
			{"roads", fmt.Sprintf("%d", len(carTable.Roads))},
			{"roads with fused provenance", fmt.Sprintf("%d/%d", fused, len(carTable.Roads))},
			{"mean NOx (g/km, car)", cell(sum.Mean, 3)},
			{"median NOx (g/km, car)", cell(sum.Median, 3)},
			{"p90 NOx (g/km, car)", cell(sum.P90, 3)},
			{"mean NOx, flattest quartile (g/km)", cell(flattest, 3)},
			{"mean NOx, steepest quartile (g/km)", cell(steepest, 3)},
			{"steep/flat NOx ratio", cell(steepest/flattest, 2)},
			{"mean NOx (g/km, truck)", cell(classMeans[1], 3)},
			{"mean NOx (g/km, bus)", cell(classMeans[2], 3)},
			{"O/D pairs where min-NOx diverges from min-fuel", fmt.Sprintf("%d/%d", diverged, len(pairs))},
			{"mean NOx saving on diverged pairs", divRow(noxSave)},
			{"mean fuel penalty on diverged pairs", divRow(fuelPenalty)},
		},
	}, nil
}

// samePath reports whether two plans traverse the identical road sequence.
func samePath(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
