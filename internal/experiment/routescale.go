package experiment

import (
	"fmt"
	"math/rand"
	"sort"
	"time"

	"roadgrade/internal/ecoroute"
	"roadgrade/internal/road"
)

// tickGradeSource is ground truth plus one mutable road: bumping gen models a
// fusion tick that re-estimated that single road's gradient, which is the
// event the CCH's generation-keyed incremental re-customization exists for.
type tickGradeSource struct {
	gen    uint64
	roadID string
}

func (t *tickGradeSource) Generation() uint64 { return t.gen }

func (t *tickGradeSource) Edge(fwd, _ *road.Road) ecoroute.EdgeGrades {
	if fwd.ID() == t.roadID {
		g := t.gen
		return ecoroute.EdgeGrades{Gen: g + 1, At: func(s float64) float64 {
			return fwd.GradeAt(s) + 0.001*float64(g)
		}}
	}
	return ecoroute.EdgeGrades{Gen: 1, At: fwd.GradeAt}
}

// RouteScale times the routing engine as the network grows toward country
// scale (DESIGN.md §13): warm point-query latency, the cost of the first
// fuel query (cost tables, contraction and full customization), and the
// cost of the first query after a one-road fusion tick, which re-derives
// only the arcs the tick can reach. Latencies are wall-clock, so the
// experiment is excluded from the deterministic -exp all sweep; run it by
// name.
func RouteScale(opt Options) (Table, error) {
	scales := []float64{1, 10}
	nPairs := 100
	if opt.Quick {
		scales = []float64{0.05}
		nPairs = 12
	}

	rows := make([][]string, 0, len(scales))
	for _, scale := range scales {
		net, err := road.GenerateNetwork(opt.Seed+1827, road.CountryConfig(scale))
		if err != nil {
			return Table{}, err
		}
		src := &tickGradeSource{roadID: net.Edges[0].Road.ID()}
		eng, err := ecoroute.NewEngine(net, src, ecoroute.Config{})
		if err != nil {
			return Table{}, err
		}

		// First fuel query pays the engine's whole preprocessing chain.
		probe := [2]int{net.Edges[0].From, net.Edges[len(net.Edges)-1].To}
		t0 := time.Now()
		if _, err := eng.Route(ecoroute.Fuel, cruiseKmh, probe[0], probe[1]); err != nil {
			return Table{}, err
		}
		firstMS := time.Since(t0).Seconds() * 1e3

		// Warm panel: connected pairs, p50/p95 over fuel queries.
		rng := rand.New(rand.NewSource(opt.Seed + 23))
		durs := make([]time.Duration, 0, nPairs)
		for len(durs) < nPairs {
			from := net.Nodes[rng.Intn(len(net.Nodes))].ID
			to := net.Nodes[rng.Intn(len(net.Nodes))].ID
			if from == to {
				continue
			}
			q0 := time.Now()
			_, err := eng.Route(ecoroute.Fuel, cruiseKmh, from, to)
			d := time.Since(q0)
			if err != nil {
				continue // disconnected pair; redraw
			}
			durs = append(durs, d)
		}
		sort.Slice(durs, func(i, j int) bool { return durs[i] < durs[j] })
		p50 := durs[len(durs)/2].Seconds() * 1e6
		p95 := durs[int(0.95*float64(len(durs)-1))].Seconds() * 1e6

		// One-road fusion tick: the next query re-customizes the fuel metric.
		src.gen++
		t0 = time.Now()
		if _, err := eng.Route(ecoroute.Fuel, cruiseKmh, probe[0], probe[1]); err != nil {
			return Table{}, err
		}
		tickMS := time.Since(t0).Seconds() * 1e3

		arcs := "-"
		if st := eng.LastCustomization(); !st.Full {
			arcs = fmt.Sprintf("%d/%d", st.RecomputedArcs, st.TotalArcs)
		}
		rows = append(rows, []string{
			fmt.Sprintf("%g×", scale),
			fmt.Sprintf("%d", len(net.Nodes)),
			fmt.Sprintf("%d", len(net.Edges)),
			cell(p50, 0), cell(p95, 0),
			cell(firstMS, 1), cell(tickMS, 1),
			arcs,
		})
	}
	return Table{
		ID:    "RouteScale",
		Title: "Routing vs network scale: the customizable contraction hierarchy",
		Note: fmt.Sprintf("%d warm fuel queries per row at %.0f km/h; scale N× = N × the paper's 164.8 km street network; 'tick' = first query after one road's gradient re-fused (the hierarchy re-customizes incrementally); wall-clock, so excluded from `-exp all`",
			nPairs, cruiseKmh),
		Header: []string{"scale", "nodes", "edges", "warm p50 (µs)", "warm p95 (µs)", "first query (ms)", "post-tick (ms)", "arcs recomputed"},
		Rows:   rows,
	}, nil
}
