// Eco-routing: the application the paper motivates. Once road gradients are
// known, fuel per road is predictable, and route planning can minimize
// gallons instead of meters. This example compares the shortest route with
// the fuel-optimal route across the synthetic city.
//
//	go run ./examples/ecorouting
package main

import (
	"fmt"
	"os"

	"roadgrade/internal/ecoroute"
	"roadgrade/internal/fuel"
	"roadgrade/internal/road"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintf(os.Stderr, "ecorouting: %v\n", err)
		os.Exit(1)
	}
}

func run() error {
	net, err := road.GenerateNetwork(4242, road.NetworkConfig{TargetStreetKM: 30})
	if err != nil {
		return err
	}
	const speedKmh = 40.0

	// One uniform cruise speed on every class of road. The truth engine
	// plans on the real gradients; the flat one ignores them.
	cfg := ecoroute.Config{ClassSpeedFactor: map[road.Class]float64{
		road.ClassArterial: 1, road.ClassCollector: 1, road.ClassLocal: 1,
	}}
	truth, err := ecoroute.NewEngine(net, ecoroute.TruthSource{}, cfg)
	if err != nil {
		return err
	}
	flat, err := ecoroute.NewEngine(net, ecoroute.FlatSource{}, cfg)
	if err != nil {
		return err
	}

	// Route diagonally across the grid.
	from := net.Nodes[0].ID
	to := net.Nodes[len(net.Nodes)-1].ID

	shortest, err := truth.Route(ecoroute.Distance, speedKmh, from, to)
	if err != nil {
		return err
	}
	eco, err := truth.Route(ecoroute.Fuel, speedKmh, from, to)
	if err != nil {
		return err
	}

	fmt.Printf("city: %.1f km of streets; routing node %d -> node %d at 40 km/h\n\n",
		net.TotalLengthM()/1000, from, to)
	fmt.Printf("%-16s %8s %10s %8s\n", "route", "roads", "length", "fuel")
	fmt.Printf("%-16s %8d %8.2f km %7.4f gal\n", "shortest", len(shortest.RoadIDs),
		shortest.LengthM/1000, shortest.FuelGal)
	fmt.Printf("%-16s %8d %8.2f km %7.4f gal\n", "fuel-optimal", len(eco.RoadIDs),
		eco.LengthM/1000, eco.FuelGal)

	if eco.FuelGal < shortest.FuelGal {
		saved := (shortest.FuelGal - eco.FuelGal) / shortest.FuelGal * 100
		extra := (eco.LengthM - shortest.LengthM) / shortest.LengthM * 100
		fmt.Printf("\nthe eco route saves %.1f%% fuel for %.1f%% extra distance\n", saved, extra)
	} else {
		fmt.Println("\nthe shortest route is already fuel-optimal on this city/seed")
	}

	// What if the planner ignored gradients? It would pick a route that
	// looks cheap on paper but burns more in the real (hilly) city.
	flatPlanned, err := flat.Route(ecoroute.Fuel, speedKmh, from, to)
	if err != nil {
		return err
	}
	flatActual, err := truth.Evaluate(flatPlanned)
	if err != nil {
		return err
	}
	fmt.Printf("flat-planner route actually burns %.4f gal (%.1f%% worse than gradient-aware)\n",
		flatActual.FuelGal, (flatActual.FuelGal-eco.FuelGal)/eco.FuelGal*100)

	// Eco-speed: the best cruise speed differs per road with its gradient.
	roads, err := truth.Roads(eco)
	if err != nil {
		return err
	}
	fmt.Println("\nbest cruise speed per road on the eco route (first three):")
	for _, r := range roads[:min(3, len(roads))] {
		best, err := fuel.OptimalCruise(r, fuel.TrueGrade, fuel.TableII(), 20, 110)
		if err != nil {
			return err
		}
		fmt.Printf("  %-12s grade-aware optimum %3.0f km/h at %.4f gal/km\n",
			r.ID(), best.SpeedKmh, best.GallonsPerKm)
	}
	return nil
}
