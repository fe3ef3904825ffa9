package ecoroute

import "testing"

// The cold-start rows, a BENCH.json family with BenchmarkGenerateNetwork25x
// (internal/road): what a 25× country server computes before it answers
// its first routes, and one of the eight full customizations its first
// routes run.

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

// BenchmarkCCHCustomizeFull25x is one full customization of the fuel table
// at 40 km/h over the 25× network: the bins of the contraction's split on
// their own goroutines, then the top. Every op writes into the same table,
// so it times the pass over already-faulted memory.
func BenchmarkCCHCustomizeFull25x(b *testing.B) {
	eng, err := NewEngine(rsNet(b, 25), TruthSource{}, Config{})
	if err != nil {
		b.Fatalf("engine: %v", err)
	}
	g := eng.cchGraph()
	tb, err := eng.fresh()
	if err != nil {
		b.Fatalf("tables: %v", err)
	}
	cost := eng.costRow(Fuel, 1, tb)
	w := newCCHWeights(len(g.arcLo))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		g.customize(w, cost)
	}
}
