package ecoroute

// The ecoroute benchmark family: warm point-to-point query latency (with the
// p95 the acceptance criterion reads), cold-start cost (full cost-table +
// landmark build), and the incremental invalidation cost after a single-road
// re-fusion. All run on the 164.8 km Charlottesville-scale network. The
// ecoroute family in BENCH.json gates them (scripts/bench.sh).

import (
	"math"
	"math/rand"
	"sort"
	"sync"
	"testing"
	"time"

	"roadgrade/internal/road"
)

var benchNet = struct {
	once sync.Once
	net  *road.Network
	err  error
}{}

func charlottesville(b *testing.B) *road.Network {
	b.Helper()
	benchNet.once.Do(func() {
		benchNet.net, benchNet.err = road.Charlottesville()
	})
	if benchNet.err != nil {
		b.Fatalf("network: %v", benchNet.err)
	}
	return benchNet.net
}

// benchPairs pre-draws O/D node pairs so the measured loop does no RNG work.
// Pairs are confined to the strongly-connected component around dense node 0
// (the generator can leave a few peripheral nodes unreachable).
func benchPairs(eng *Engine, n int) [][2]int {
	nn := len(eng.ids)
	fwd := make([]float64, nn)
	bwd := make([]float64, nn)
	oneToAll(eng.outOff, eng.outArc, eng.head, eng.lengthM, 0, fwd, nil)
	oneToAll(eng.inOff, eng.inArc, eng.tail, eng.lengthM, 0, bwd, nil)
	var ids []int
	for i := 0; i < nn; i++ {
		if !math.IsInf(fwd[i], 1) && !math.IsInf(bwd[i], 1) {
			ids = append(ids, eng.ids[i])
		}
	}
	rng := rand.New(rand.NewSource(5))
	pairs := make([][2]int, n)
	for i := range pairs {
		from := ids[rng.Intn(len(ids))]
		to := ids[rng.Intn(len(ids))]
		for to == from {
			to = ids[rng.Intn(len(ids))]
		}
		pairs[i] = [2]int{from, to}
	}
	return pairs
}

// bumpSource wraps ground truth behind a controllable generation so
// benchmarks can force refreshes. Stamps follow stampAll: every edge recosts
// on each bump (cold start), or only the single flagged road does
// (incremental invalidation).
type bumpSource struct {
	gen      uint64
	stampAll bool
	roadID   string
}

func (s *bumpSource) Generation() uint64 { return s.gen }

func (s *bumpSource) Edge(fwd, _ *road.Road) EdgeGrades {
	stamp := uint64(1)
	if s.stampAll || fwd.ID() == s.roadID {
		stamp = s.gen + 1
	}
	return EdgeGrades{Gen: stamp, At: fwd.GradeAt}
}

// BenchmarkEcoRouteWarmQuery is the acceptance benchmark: min-fuel
// point-to-point queries on warm cost tables and landmarks. The reported
// p95-ns metric must stay at or under 1 ms (1e6 ns).
func BenchmarkEcoRouteWarmQuery(b *testing.B) {
	net := charlottesville(b)
	eng, err := NewEngine(net, TruthSource{}, Config{})
	if err != nil {
		b.Fatalf("engine: %v", err)
	}
	pairs := benchPairs(eng, 1024)
	// Prime tables and landmarks.
	if _, err := eng.Route(Fuel, 40, pairs[0][0], pairs[0][1]); err != nil {
		b.Fatalf("prime: %v", err)
	}
	durs := make([]time.Duration, 0, b.N)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p := pairs[i%len(pairs)]
		start := time.Now()
		_, err := eng.Route(Fuel, 40, p[0], p[1])
		durs = append(durs, time.Since(start))
		if err != nil {
			b.Fatalf("route %v: %v", p, err)
		}
	}
	b.StopTimer()
	sort.Slice(durs, func(i, j int) bool { return durs[i] < durs[j] })
	p95 := durs[int(0.95*float64(len(durs)-1))]
	b.ReportMetric(float64(p95.Nanoseconds()), "p95-ns")
}

// BenchmarkEcoRouteWarmQueryDijkstra is the unpruned reference search on the
// same warm tables — the denominator of the ALT speedup.
func BenchmarkEcoRouteWarmQueryDijkstra(b *testing.B) {
	net := charlottesville(b)
	eng, err := NewEngine(net, TruthSource{}, Config{})
	if err != nil {
		b.Fatalf("engine: %v", err)
	}
	pairs := benchPairs(eng, 1024)
	if _, err := eng.Route(Fuel, 40, pairs[0][0], pairs[0][1]); err != nil {
		b.Fatalf("prime: %v", err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p := pairs[i%len(pairs)]
		if _, err := eng.RouteDijkstra(Fuel, 40, p[0], p[1]); err != nil {
			b.Fatalf("route %v: %v", p, err)
		}
	}
}

// BenchmarkEcoRouteColdQuery pays the full pipeline per query: every edge's
// stamp changes, so the cost tables re-integrate all edges and the fuel
// landmark tables rebuild before the search runs.
func BenchmarkEcoRouteColdQuery(b *testing.B) {
	net := charlottesville(b)
	src := &bumpSource{stampAll: true}
	eng, err := NewEngine(net, src, Config{})
	if err != nil {
		b.Fatalf("engine: %v", err)
	}
	pairs := benchPairs(eng, 1024)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		src.gen++
		p := pairs[i%len(pairs)]
		if _, err := eng.Route(Fuel, 40, p[0], p[1]); err != nil {
			b.Fatalf("route %v: %v", p, err)
		}
	}
}

// BenchmarkEcoRouteInvalidate measures one incremental refresh: a single
// road's generation bumps (as one cloud re-fusion would), so the refresh
// scans stamps, re-integrates only that road, rebuilds the fuel landmarks,
// and answers a query.
func BenchmarkEcoRouteInvalidate(b *testing.B) {
	net := charlottesville(b)
	src := &bumpSource{roadID: net.Edges[0].Road.ID()}
	eng, err := NewEngine(net, src, Config{})
	if err != nil {
		b.Fatalf("engine: %v", err)
	}
	pairs := benchPairs(eng, 1024)
	if _, err := eng.Route(Fuel, 40, pairs[0][0], pairs[0][1]); err != nil {
		b.Fatalf("prime: %v", err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		src.gen++
		p := pairs[i%len(pairs)]
		if _, err := eng.Route(Fuel, 40, p[0], p[1]); err != nil {
			b.Fatalf("route %v: %v", p, err)
		}
	}
}

// BenchmarkEmissionRouteQuery is the pollutant-routing acceptance benchmark:
// min-NOx point-to-point queries on warm cost tables (the lazily built
// per-bucket emission rows are primed by the first query). The reported
// p95-ns metric must stay under the same 1 ms bar as the fuel objective —
// pollutant rows ride the identical search machinery, only the edge weights
// differ. The emission family in BENCH.json gates that p95 as a bar.
func BenchmarkEmissionRouteQuery(b *testing.B) {
	net := charlottesville(b)
	eng, err := NewEngine(net, TruthSource{}, Config{})
	if err != nil {
		b.Fatalf("engine: %v", err)
	}
	pairs := benchPairs(eng, 1024)
	// Prime tables, emission rows, and NOx landmarks.
	if _, err := eng.Route(NOx, 40, pairs[0][0], pairs[0][1]); err != nil {
		b.Fatalf("prime: %v", err)
	}
	durs := make([]time.Duration, 0, b.N)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p := pairs[i%len(pairs)]
		start := time.Now()
		_, err := eng.Route(NOx, 40, p[0], p[1])
		durs = append(durs, time.Since(start))
		if err != nil {
			b.Fatalf("route %v: %v", p, err)
		}
	}
	b.StopTimer()
	sort.Slice(durs, func(i, j int) bool { return durs[i] < durs[j] })
	p95 := durs[int(0.95*float64(len(durs)-1))]
	b.ReportMetric(float64(p95.Nanoseconds()), "p95-ns")
}

// BenchmarkEmissionRowBuild pays the lazy per-bucket pollutant row build on
// every iteration: the source's generation bumps with every edge stamped, so
// the snapshot rebuilds and the first NOx query re-integrates all four
// pollutant rows over every edge.
func BenchmarkEmissionRowBuild(b *testing.B) {
	net := charlottesville(b)
	src := &bumpSource{stampAll: true}
	eng, err := NewEngine(net, src, Config{})
	if err != nil {
		b.Fatalf("engine: %v", err)
	}
	pairs := benchPairs(eng, 256)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		src.gen++
		p := pairs[i%len(pairs)]
		if _, err := eng.Route(NOx, 40, p[0], p[1]); err != nil {
			b.Fatalf("route %v: %v", p, err)
		}
	}
}
