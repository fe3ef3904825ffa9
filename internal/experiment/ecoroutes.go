package experiment

import (
	"errors"
	"fmt"
	"math/rand"

	"roadgrade/internal/ecoroute"
	"roadgrade/internal/fuel"
	"roadgrade/internal/road"
)

// EcoRoutes quantifies what gradient-aware routing buys: over a panel of
// random origin/destination pairs on the city network, it plans each trip
// three ways (shortest distance, fastest, min fuel) with the ecoroute engine
// on ground-truth gradients and reports the panel means under every metric.
// The eco rows at the bottom are the headline: fuel and CO2 saved per trip by
// routing on the gradient map instead of the odometer or the clock.
func EcoRoutes(opt Options) (Table, error) {
	targetKM := 30.0
	nPairs := 50
	if opt.Quick {
		targetKM = 6
		nPairs = 12
	}
	net, err := cachedNetwork(opt.Seed+1826, targetKM)
	if err != nil {
		return Table{}, err
	}
	eng, err := ecoroute.NewEngine(net, ecoroute.TruthSource{}, ecoroute.Config{})
	if err != nil {
		return Table{}, err
	}

	// Draw connected O/D pairs; the generator can leave stray nodes outside
	// the main component, so pairs are validated with a cheap probe route.
	rng := rand.New(rand.NewSource(opt.Seed + 23))
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

	planners := []ecoroute.Objective{ecoroute.Distance, ecoroute.Time, ecoroute.Fuel}
	type agg struct{ lengthM, timeS, fuelGal, co2G float64 }
	sums := make([]agg, len(planners))
	plans := make([][]ecoroute.Plan, len(planners))
	for i := range plans {
		plans[i] = make([]ecoroute.Plan, len(pairs))
	}
	// Pairs are independent; fan them out like every other panel experiment.
	if err := parallelFor(len(pairs), func(j int) error {
		for i, obj := range planners {
			p, err := eng.Route(obj, cruiseKmh, pairs[j].from, pairs[j].to)
			if err != nil {
				return fmt.Errorf("experiment: %s route %d→%d: %w", obj, pairs[j].from, pairs[j].to, err)
			}
			plans[i][j] = p
		}
		return nil
	}); err != nil {
		return Table{}, err
	}
	for i := range planners {
		for j := range pairs {
			p := plans[i][j]
			sums[i].lengthM += p.LengthM
			sums[i].timeS += p.TimeS
			sums[i].fuelGal += p.FuelGal
			sums[i].co2G += p.CO2G
		}
	}

	n := float64(len(pairs))
	rows := make([][]string, 0, len(planners)+2)
	names := []string{"shortest distance", "fastest", "min fuel"}
	for i := range planners {
		rows = append(rows, []string{
			names[i],
			cell(sums[i].lengthM/n/1000, 3),
			cell(sums[i].timeS/n, 1),
			fmt.Sprintf("%.4f", sums[i].fuelGal/n),
			cell(sums[i].co2G/n/1000, 3),
		})
	}
	savings := func(base agg) string {
		if base.fuelGal == 0 {
			return "n/a"
		}
		return fmt.Sprintf("%.2f%%", (base.fuelGal-sums[2].fuelGal)/base.fuelGal*100)
	}
	rows = append(rows,
		[]string{"eco fuel saving vs shortest", savings(sums[0]), "", "", ""},
		[]string{"eco fuel saving vs fastest", savings(sums[1]), "", "", ""},
	)
	return Table{
		ID:    "EcoRoutes",
		Title: "Fuel/emission-optimal routing over the gradient map",
		Note: fmt.Sprintf("%d random O/D pairs on a %.0f km network at %.0f km/h; each planner's routes are evaluated on true gradients (CO2 = fuel x %.0f g/gal); reproduce with `gradebench -exp ecoroutes`",
			len(pairs), netKM(net), cruiseKmh, fuel.CO2GramsPerGallon),
		Header: []string{"planner", "mean length (km)", "mean time (s)", "mean fuel (gal)", "mean CO2 (kg)"},
		Rows:   rows,
	}, nil
}

// netKM returns a network's total street length in km.
func netKM(net *road.Network) float64 { return net.TotalLengthM() / 1000 }
