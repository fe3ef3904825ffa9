package cloud

import (
	"math/rand"
	"testing"

	"roadgrade/internal/ecoroute"
	"roadgrade/internal/fusion"
	"roadgrade/internal/road"
)

// BenchmarkCountryTick25x times one routing tick in process, with no HTTP
// and no concurrent reader, on the path the server runs: one road's upload,
// whose fold wakes the engine's publisher, then the first route of each kind
// the route-country probe asks for (fuel and NOx at 30 to 60 km/h). The
// publisher recosts the road, rebuilds four pollutant rows and re-customizes
// the eight tables over GOMAXPROCS goroutines; the routes wait for its
// publish and then search. The network is the 25× country network with
// every road prefilled once, as in the benchmark's route-country workload.
func BenchmarkCountryTick25x(b *testing.B) {
	net, err := road.GenerateNetwork(1827, road.CountryConfig(25))
	if err != nil {
		b.Fatalf("network: %v", err)
	}
	srv := NewServer()
	for _, ed := range net.Edges {
		p, err := truthDTO(ed.Road).toProfile()
		if err != nil {
			b.Fatal(err)
		}
		if err := srv.Submit(ed.Road.ID(), p); err != nil {
			b.Fatal(err)
		}
	}
	eng, err := ecoroute.NewEngine(net, ecoroute.CloudSource{Store: srv}, ecoroute.Config{})
	if err != nil {
		b.Fatalf("engine: %v", err)
	}
	srv.EnableRouting(eng)
	// Like the probe, route along the uploaded road.
	probe := func(ed *road.Edge) {
		for _, kmh := range []float64{30, 40, 50, 60} {
			for _, obj := range []ecoroute.Objective{ecoroute.Fuel, ecoroute.NOx} {
				if _, err := eng.Route(obj, kmh, ed.From, ed.To); err != nil {
					b.Fatalf("%s at %v km/h: %v", obj, kmh, err)
				}
			}
		}
	}
	probe(net.Edges[0]) // contraction and the first customizations
	rng := rand.New(rand.NewSource(1))
	edges := make([]*road.Edge, 64)
	uploads := make([]*fusion.Profile, len(edges))
	for i := range uploads {
		edges[i] = net.Edges[rng.Intn(len(net.Edges))]
		r := edges[i].Road
		p := &fusion.Profile{SpacingM: 5}
		for s := 0.0; s < r.Length(); s += 5 {
			p.S = append(p.S, s)
			p.GradeRad = append(p.GradeRad, r.GradeAt(s)+0.003*rng.NormFloat64())
			p.Var = append(p.Var, 1e-5)
		}
		uploads[i] = p
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ed := edges[i%len(edges)]
		if err := srv.Submit(ed.Road.ID(), uploads[i%len(uploads)]); err != nil {
			b.Fatal(err)
		}
		probe(ed)
	}
}
