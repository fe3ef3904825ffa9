package experiment

import (
	"fmt"
	"math/rand"

	"roadgrade/internal/ecoroute"
	"roadgrade/internal/groundtruth"
	"roadgrade/internal/road"
	"roadgrade/internal/sensors"
	"roadgrade/internal/vehicle"
)

// Journey drives a multi-street route across the city in one continuous
// trip — junction turns, traffic-light stops and all — and estimates the
// gradient profile of the whole journey. It exercises the conditions the
// per-edge evaluation cannot: intersection turns that must not be mistaken
// for lane changes, stop-and-go traffic, and long-trace filtering.
func Journey(opt Options) (Table, error) {
	p, _, err := opsPipeline(opt.Seed)
	if err != nil {
		return Table{}, err
	}
	targetKM := 40.0
	if opt.Quick {
		targetKM = 10
	}
	net, err := cachedNetwork(opt.Seed+1826, targetKM)
	if err != nil {
		return Table{}, err
	}
	// Route corner to corner and concatenate the edges into one road.
	eng, err := ecoroute.NewEngine(net, ecoroute.FlatSource{}, ecoroute.Config{})
	if err != nil {
		return Table{}, err
	}
	plan, err := eng.Route(ecoroute.Distance, cruiseKmh, net.Nodes[0].ID, net.Nodes[len(net.Nodes)-1].ID)
	if err != nil {
		return Table{}, err
	}
	roads, err := eng.Roads(plan)
	if err != nil {
		return Table{}, err
	}
	journey, err := road.Concat("journey", roads)
	if err != nil {
		return Table{}, fmt.Errorf("experiment: concatenating route: %w", err)
	}

	// Traffic lights: stop at roughly half the junctions.
	rng := rand.New(rand.NewSource(opt.Seed + 7))
	var stops []float64
	var offset float64
	for _, r := range roads[:len(roads)-1] {
		offset += r.Length()
		if rng.Float64() < 0.5 {
			stops = append(stops, offset-8) // stop line just before the junction
		}
	}

	d := vehicle.DefaultDriver(cruiseKmh / 3.6)
	d.LaneChangesPerKm = 1.5
	trip, err := vehicle.SimulateTrip(vehicle.TripConfig{
		Road:          journey,
		Driver:        d,
		Rng:           rand.New(rand.NewSource(opt.Seed + 8)),
		StopAtS:       stops,
		StopDurationS: 6,
	})
	if err != nil {
		return Table{}, err
	}
	trc, err := sensors.Sample(trip, sensors.DefaultConfig(), rand.New(rand.NewSource(opt.Seed+9)))
	if err != nil {
		return Table{}, err
	}
	ref, err := groundtruth.ReferenceFor(journey, rand.New(rand.NewSource(opt.Seed+10)))
	if err != nil {
		return Table{}, err
	}
	w := &workload{road: journey, trip: trip, trace: trc, ref: ref}

	adj, err := p.Adjust(trc, journey.Line())
	if err != nil {
		return Table{}, err
	}
	prof, _, err := fusedProfile(p, w)
	if err != nil {
		return Table{}, err
	}
	errs := profileErrors(prof, ref, skipM)
	med := medianOf(errs)
	mre := profileMRE(prof, ref, skipM)

	// Intersection turns misclassified as lane changes: detections that do
	// NOT correspond to a true maneuver but whose span covers a junction.
	matched := make([]bool, len(adj.Detections))
	for _, ev := range trip.Changes {
		for di, det := range adj.Detections {
			if matched[di] {
				continue
			}
			if det.StartT <= ev.EndT+1 && det.EndT >= ev.StartT-1 {
				matched[di] = true
				break
			}
		}
	}
	var falseAtJunction int
	offset = 0
	junctionS := make([]float64, 0, len(roads)-1)
	for _, r := range roads[:len(roads)-1] {
		offset += r.Length()
		junctionS = append(junctionS, offset)
	}
	for di, det := range adj.Detections {
		if matched[di] {
			continue
		}
		sLo := adj.S[det.StartIdx]
		sHi := adj.S[det.EndIdx-1]
		for _, js := range junctionS {
			if js >= sLo-20 && js <= sHi+20 {
				falseAtJunction++
				break
			}
		}
	}
	return Table{
		ID:     "Journey",
		Title:  "Continuous multi-street journey across the city",
		Note:   "one trip spanning turns and traffic-light stops, estimated end to end",
		Header: []string{"metric", "value"},
		Rows: [][]string{
			{"route", fmt.Sprintf("%d streets, %.2f km", len(roads), journey.Length()/1000)},
			{"traffic-light stops", fmt.Sprintf("%d", len(stops))},
			{"trip duration", fmt.Sprintf("%.0f s", trip.Duration())},
			{"true lane changes", fmt.Sprintf("%d", len(trip.Changes))},
			{"detections", fmt.Sprintf("%d", len(adj.Detections))},
			{"false detections at junctions", fmt.Sprintf("%d", falseAtJunction)},
			{"median |err|", cell(med, 3) + " deg"},
			{"MRE", fmt.Sprintf("%.1f%%", mre*100)},
		},
	}, nil
}
