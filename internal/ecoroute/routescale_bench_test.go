package ecoroute

import (
	"fmt"
	"sort"
	"testing"
	"time"

	"roadgrade/internal/road"
)

// The routescale sweep, a BENCH.json family: graph size (1×/10×/100× the
// paper's 164.8 km network, the 100× point being the ≥10⁵-directed-edge
// country scale) × objective (fuel, distance) × engine (alt, cch), plus the
// customization cost pair (full vs generation-tick incremental) and the
// 50×50 many-to-many grids. Networks and engines are built once per process
// and shared across benchmarks — benchmarks run sequentially, so plain maps
// suffice.

var (
	rsNets    = map[int]*road.Network{}
	rsEngines = map[string]*Engine{}
)

func rsNet(b *testing.B, scale int) *road.Network {
	b.Helper()
	if n, ok := rsNets[scale]; ok {
		return n
	}
	net, err := road.GenerateNetwork(1827, road.CountryConfig(float64(scale)))
	if err != nil {
		b.Fatalf("generate %dx network: %v", scale, err)
	}
	rsNets[scale] = net
	return net
}

// rsEngine returns a warmed engine: cost tables, and landmark tables (alt)
// or contraction + fuel/distance customization (cch) are all built before
// any timed loop starts.
func rsEngine(b *testing.B, alg string, scale int) *Engine {
	b.Helper()
	key := fmt.Sprintf("%s/%d", alg, scale)
	if e, ok := rsEngines[key]; ok {
		return e
	}
	net := rsNet(b, scale)
	eng, err := NewEngine(net, TruthSource{}, Config{Algorithm: alg})
	if err != nil {
		b.Fatalf("%s engine at %dx: %v", alg, scale, err)
	}
	prime := [2]int{net.Edges[0].From, net.Edges[len(net.Edges)-1].To}
	for _, obj := range []Objective{Fuel, Distance} {
		if _, err := eng.Route(obj, 40, prime[0], prime[1]); err != nil {
			b.Fatalf("prime %s %s at %dx: %v", alg, obj, scale, err)
		}
	}
	rsEngines[key] = eng
	return eng
}

// rsQuery times warm point queries and reports the p95 latency alongside the
// mean, mirroring BenchmarkEcoRouteWarmQuery's acceptance metric.
func rsQuery(b *testing.B, eng *Engine, obj Objective) {
	b.Helper()
	pairs := benchPairs(eng, 1024)
	durs := make([]time.Duration, 0, b.N)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p := pairs[i%len(pairs)]
		start := time.Now()
		_, err := eng.Route(obj, 40, p[0], p[1])
		durs = append(durs, time.Since(start))
		if err != nil {
			b.Fatalf("route %v: %v", p, err)
		}
	}
	b.StopTimer()
	sort.Slice(durs, func(i, j int) bool { return durs[i] < durs[j] })
	b.ReportMetric(float64(durs[int(0.95*float64(len(durs)-1))].Nanoseconds()), "p95-ns")
}

func BenchmarkRouteScaleCCHQuery1x(b *testing.B)   { rsQuery(b, rsEngine(b, AlgCCH, 1), Fuel) }
func BenchmarkRouteScaleCCHQuery10x(b *testing.B)  { rsQuery(b, rsEngine(b, AlgCCH, 10), Fuel) }
func BenchmarkRouteScaleCCHQuery100x(b *testing.B) { rsQuery(b, rsEngine(b, AlgCCH, 100), Fuel) }
func BenchmarkRouteScaleALTQuery1x(b *testing.B)   { rsQuery(b, rsEngine(b, AlgALT, 1), Fuel) }
func BenchmarkRouteScaleALTQuery10x(b *testing.B)  { rsQuery(b, rsEngine(b, AlgALT, 10), Fuel) }
func BenchmarkRouteScaleALTQuery100x(b *testing.B) { rsQuery(b, rsEngine(b, AlgALT, 100), Fuel) }

func BenchmarkRouteScaleCCHQueryDistance100x(b *testing.B) {
	rsQuery(b, rsEngine(b, AlgCCH, 100), Distance)
}
func BenchmarkRouteScaleALTQueryDistance100x(b *testing.B) {
	rsQuery(b, rsEngine(b, AlgALT, 100), Distance)
}

// BenchmarkRouteScaleCCHCustomizeFull100x is the from-scratch customization
// of the fuel metric on the country graph — the denominator of the
// incremental re-customization claim.
func BenchmarkRouteScaleCCHCustomizeFull100x(b *testing.B) {
	eng := rsEngine(b, AlgCCH, 100)
	g := eng.cchGraph()
	tb, err := eng.fresh()
	if err != nil {
		b.Fatalf("tables: %v", err)
	}
	cost := eng.costRow(Fuel, 1, tb)
	// Every op writes into the same table, so this times the pass itself
	// over already-faulted memory, not page faults.
	w := newCCHWeights(len(g.arcLo))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		g.customize(w, cost)
	}
}

// BenchmarkRouteScaleCCHRecustomizeTick100x re-customizes after one-road
// fusion ticks: each tick changes one edge's stamp and cost, everything else
// is clean. The acceptance bar is ≥5× cheaper than the full pass above.
func BenchmarkRouteScaleCCHRecustomizeTick100x(b *testing.B) {
	eng := rsEngine(b, AlgCCH, 100)
	g := eng.cchGraph()
	tb, err := eng.fresh()
	if err != nil {
		b.Fatalf("tables: %v", err)
	}
	base := eng.costRow(Fuel, 1, tb)
	cost, gen := base, tb.edgeGen
	// tick derives the next rows copy-on-write from the current ones, as a
	// snapshot rebuild does: edge 0 is re-stamped and its cost alternates
	// between its own and 1.5 times that, a tick that moved one road's
	// estimate, then one that moved it back.
	tick := func(k int) {
		cost, gen = cost.clone(), gen.clone()
		c := base.at(0)
		if k%2 == 1 {
			c *= 1.5
		}
		cost.set(0, c)
		gen.set(0, gen.at(0)+1)
	}
	cur := newCCHWeights(len(g.arcLo))
	g.customize(cur, cost)
	cur.edgeGen = gen
	// The engine's steady state with no reader holding the predecessor: each
	// tick replays the current table's delta into the predecessor's arrays
	// and re-derives there. The first tick, with no predecessor yet, copies
	// and runs before the timer starts.
	var work arcWorklist
	tick(1)
	next, _ := g.recustomize(cur, nil, cost, gen, 1, &work)
	pred := cur
	cur = next
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tick(i)
		next, _ = g.recustomize(cur, pred, cost, gen, uint64(i+2), &work)
		pred, cur = cur, next
	}
}

func rsMatrixNodes(eng *Engine, n int) []int {
	pairs := benchPairs(eng, n)
	out := make([]int, n)
	for i, p := range pairs {
		out[i] = p[0]
	}
	return out
}

// The fleet-dispatch grids: 50×50 on the country graph, bucket sweeps (cch)
// vs repeated bounded one-to-alls (alt).
func BenchmarkRouteScaleCCHMatrix100x(b *testing.B) {
	eng := rsEngine(b, AlgCCH, 100)
	nodes := rsMatrixNodes(eng, 50)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := eng.Matrix(Fuel, 40, nodes, nodes); err != nil {
			b.Fatalf("matrix: %v", err)
		}
	}
}

func BenchmarkRouteScaleALTMatrix100x(b *testing.B) {
	eng := rsEngine(b, AlgALT, 100)
	nodes := rsMatrixNodes(eng, 50)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := eng.Matrix(Fuel, 40, nodes, nodes); err != nil {
			b.Fatalf("matrix: %v", err)
		}
	}
}
