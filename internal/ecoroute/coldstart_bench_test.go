package ecoroute

import "testing"

// The cold-start rows, a BENCH.json family with BenchmarkGenerateNetwork25x
// (internal/road): what a 25× country server computes before it answers
// its first routes.

// cchSink keeps BenchmarkCCHContract25x's result live.
var cchSink *cch

// BenchmarkCCHContract25x is the metric-independent contraction of the 25×
// network: nested-dissection order, symbolic elimination, arcs, edge
// indices and downward lists. BENCH.json bars its B/op: the contraction
// stores no per-triangle array.
func BenchmarkCCHContract25x(b *testing.B) {
	net := rsNet(b, 25)
	eng, err := NewEngine(net, TruthSource{}, Config{})
	if err != nil {
		b.Fatalf("engine: %v", err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cchSink = buildCCH(eng)
	}
}

// BenchmarkEngineFirstRoutes25x is a fresh engine's first fuel route and
// first NOx route at 40 km/h over the 25× network: the contraction, the
// first snapshot's fuel rows, one bucket's pollutant rows and two full
// customizations.
func BenchmarkEngineFirstRoutes25x(b *testing.B) {
	net := rsNet(b, 25)
	from, to := net.Edges[0].From, net.Edges[len(net.Edges)-1].To
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		eng, err := NewEngine(net, TruthSource{}, Config{})
		if err != nil {
			b.Fatalf("engine: %v", err)
		}
		for _, obj := range []Objective{Fuel, NOx} {
			if _, err := eng.Route(obj, 40, from, to); err != nil {
				b.Fatalf("%s route: %v", obj, err)
			}
		}
	}
}
