package experiment

import (
	"fmt"
	"math/rand"

	"roadgrade/internal/ecoroute"
	"roadgrade/internal/fusion"
	"roadgrade/internal/road"
	"roadgrade/internal/sensors"
	"roadgrade/internal/vehicle"
)

// Routing closes the loop the paper motivates: vehicles estimate gradient
// profiles, the cloud fuses them, and a route planner consumes the estimates.
// The experiment measures the fuel regret of planning on estimated gradients
// instead of ground truth — if the regret is near zero, the estimation
// accuracy suffices for the application.
func Routing(opt Options) (Table, error) {
	p, _, err := opsPipeline(opt.Seed)
	if err != nil {
		return Table{}, err
	}
	targetKM := 20.0
	if opt.Quick {
		targetKM = 6
	}
	net, err := cachedNetwork(opt.Seed+1826, targetKM)
	if err != nil {
		return Table{}, err
	}

	// Estimate a fused gradient profile for every street (one direction,
	// mirrored to the reverse edge by negating the profile would not be
	// exact for asymmetric geometry, so both directions are driven).
	// Seeds are assigned sequentially, then the independent per-edge
	// estimation runs in parallel.
	rng := rand.New(rand.NewSource(opt.Seed + 11))
	type job struct {
		road                *road.Road
		tripSeed, traceSeed int64
	}
	var jobs []job
	for _, e := range net.Edges {
		if e.Road.Length() < 150 {
			continue
		}
		jobs = append(jobs, job{road: e.Road, tripSeed: rng.Int63(), traceSeed: rng.Int63()})
	}
	profiles := make([]*fusion.Profile, len(jobs))
	if err := parallelFor(len(jobs), func(i int) error {
		j := jobs[i]
		d := vehicle.DefaultDriver(cruiseKmh / 3.6)
		trip, err := vehicle.SimulateTrip(vehicle.TripConfig{
			Road: j.road, Driver: d, Rng: rand.New(rand.NewSource(j.tripSeed)),
		})
		if err != nil {
			return fmt.Errorf("experiment: trip on %s: %w", j.road.ID(), err)
		}
		trc, err := sensors.Sample(trip, sensors.DefaultConfig(), rand.New(rand.NewSource(j.traceSeed)))
		if err != nil {
			return err
		}
		tracks, err := p.EstimateAll(trc, j.road.Line())
		if err != nil {
			return err
		}
		prof, err := fusion.FuseTracks(tracks, 5, j.road.Length())
		if err != nil {
			return err
		}
		profiles[i] = prof
		return nil
	}); err != nil {
		return Table{}, err
	}
	estimated := make(estimateSource, len(jobs))
	for i, j := range jobs {
		estimated[j.road.ID()] = profiles[i]
	}
	edgesDriven := len(jobs)

	// Plan at one uniform cruise speed, on the true grades and on the
	// estimates (flat where no vehicle has driven: short stubs).
	cfg := ecoroute.Config{ClassSpeedFactor: map[road.Class]float64{
		road.ClassArterial: 1, road.ClassCollector: 1, road.ClassLocal: 1,
	}}
	truth, err := ecoroute.NewEngine(net, ecoroute.TruthSource{}, cfg)
	if err != nil {
		return Table{}, err
	}
	est, err := ecoroute.NewEngine(net, estimated, cfg)
	if err != nil {
		return Table{}, err
	}
	from := net.Nodes[0].ID
	to := net.Nodes[len(net.Nodes)-1].ID
	truthRoute, err := truth.Route(ecoroute.Fuel, cruiseKmh, from, to)
	if err != nil {
		return Table{}, err
	}
	estPlan, err := est.Route(ecoroute.Fuel, cruiseKmh, from, to)
	if err != nil {
		return Table{}, err
	}
	distRoute, err := truth.Route(ecoroute.Distance, cruiseKmh, from, to)
	if err != nil {
		return Table{}, err
	}
	// Every plan is priced on the TRUE gradients.
	estRoute, err := truth.Evaluate(estPlan)
	if err != nil {
		return Table{}, err
	}
	regret := (estRoute.FuelGal - truthRoute.FuelGal) / truthRoute.FuelGal * 100
	return Table{
		ID:     "Routing",
		Title:  "Eco-routing on estimated vs true gradients",
		Note:   "all plans are evaluated on the true gradients; 'regret' is the extra fuel from planning with estimates instead of truth",
		Header: []string{"planner", "roads", "length (km)", "fuel on truth (gal)"},
		Rows: [][]string{
			{"true gradients", fmt.Sprintf("%d", len(truthRoute.RoadIDs)),
				cell(truthRoute.LengthM/1000, 2), fmt.Sprintf("%.4f", truthRoute.FuelGal)},
			{"estimated gradients", fmt.Sprintf("%d", len(estRoute.RoadIDs)),
				cell(estRoute.LengthM/1000, 2), fmt.Sprintf("%.4f", estRoute.FuelGal)},
			{"shortest distance", fmt.Sprintf("%d", len(distRoute.RoadIDs)),
				cell(distRoute.LengthM/1000, 2), fmt.Sprintf("%.4f", distRoute.FuelGal)},
			{"regret of estimates", fmt.Sprintf("%.2f%%", regret), "", ""},
			{"streets estimated", fmt.Sprintf("%d", edgesDriven), "", ""},
		},
	}, nil
}

// estimateSource serves each driven road's fused estimate and a flat grade
// on roads no vehicle drove. The estimates never change, so neither does
// the generation.
type estimateSource map[string]*fusion.Profile

// Generation always reports 0.
func (estimateSource) Generation() uint64 { return 0 }

// Edge serves the road's estimate, or flat.
func (s estimateSource) Edge(fwd, rev *road.Road) ecoroute.EdgeGrades {
	if prof, ok := s[fwd.ID()]; ok {
		return ecoroute.EdgeGrades{Gen: 1, At: prof.GradeAt}
	}
	return ecoroute.FlatSource{}.Edge(fwd, rev)
}
