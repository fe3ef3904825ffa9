package ecoroute

import (
	"math/rand"
	"testing"
)

// The cch-query family of BENCH.json: warm CCH point queries at fuel,
// 40 km/h, on the 25× country network (the route-country workload's). Local
// routes along single roads, the pairs the route-country probe asks for,
// whose answer lies near the bottom of the elimination tree; Random uses
// benchPairs. The family's ratio bar, Random over Local, reads how much of
// the two root paths the pruned query leaves unrelaxed on a local pair.

func cchQueryBench(b *testing.B, eng *Engine, pairs [][2]int) {
	b.Helper()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p := pairs[i%len(pairs)]
		if _, err := eng.Route(Fuel, 40, p[0], p[1]); err != nil {
			b.Fatalf("route %v: %v", p, err)
		}
	}
}

func BenchmarkCCHQueryLocal25x(b *testing.B) {
	eng := rsEngine(b, AlgCCH, 25)
	edges := eng.Network().Edges
	rng := rand.New(rand.NewSource(5))
	pairs := make([][2]int, 1024)
	for i := range pairs {
		ed := edges[rng.Intn(len(edges))]
		pairs[i] = [2]int{ed.From, ed.To}
	}
	cchQueryBench(b, eng, pairs)
}

func BenchmarkCCHQueryRandom25x(b *testing.B) {
	eng := rsEngine(b, AlgCCH, 25)
	cchQueryBench(b, eng, benchPairs(eng, 1024))
}
