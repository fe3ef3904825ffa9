package ecoroute

import (
	"errors"
	"math"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"

	"roadgrade/internal/geo"
	"roadgrade/internal/road"
)

// tickSource serves ground-truth grades except for one flagged road, whose
// grades (and stamp) change with every generation bump — the shape of a
// cloud re-fusion that actually moved an estimate.
type tickSource struct {
	gen    uint64
	roadID string
}

func (s *tickSource) Generation() uint64 { return s.gen }

func (s *tickSource) Edge(fwd, _ *road.Road) EdgeGrades {
	if fwd.ID() == s.roadID {
		gen := s.gen
		return EdgeGrades{
			Gen: gen + 1,
			At:  func(at float64) float64 { return fwd.GradeAt(at) + 0.01*float64(gen) },
		}
	}
	return EdgeGrades{Gen: 1, At: fwd.GradeAt}
}

// TestCCHMatchesDijkstra is the CCH acceptance property: over 40 random O/D
// pairs, and every road's From→To (the one-road route the route-country
// probe asks after an upload), under every objective, the elimination-tree
// query's cost must equal the plain Dijkstra reference's to the last bit.
func TestCCHMatchesDijkstra(t *testing.T) {
	net, err := road.GenerateNetwork(43, road.NetworkConfig{TargetStreetKM: 12})
	if err != nil {
		t.Fatalf("network: %v", err)
	}
	eng, err := NewEngine(net, TruthSource{}, Config{})
	if err != nil {
		t.Fatalf("engine: %v", err)
	}
	rng := rand.New(rand.NewSource(11))
	var pairs [][2]int
	for len(pairs) < 40 {
		from := net.Nodes[rng.Intn(len(net.Nodes))].ID
		to := net.Nodes[rng.Intn(len(net.Nodes))].ID
		if from != to {
			pairs = append(pairs, [2]int{from, to})
		}
	}
	edgeOf := make(map[string]*road.Edge, len(net.Edges))
	for _, ed := range net.Edges {
		pairs = append(pairs, [2]int{ed.From, ed.To})
		edgeOf[ed.Road.ID()] = ed
	}
	for _, p := range pairs {
		from, to := p[0], p[1]
		for _, obj := range Objectives() {
			fast, errF := eng.Route(obj, 40, from, to)
			ref, errR := eng.RouteDijkstra(obj, 40, from, to)
			if (errF == nil) != (errR == nil) {
				t.Fatalf("%s %d→%d: search disagreement: cch err %v, reference err %v", obj, from, to, errF, errR)
			}
			if errF != nil {
				if !errors.Is(errF, ErrNoPath) {
					t.Fatalf("%s %d→%d: %v", obj, from, to, errF)
				}
				continue
			}
			if math.Float64bits(fast.Cost) != math.Float64bits(ref.Cost) {
				t.Errorf("%s %d→%d: cch cost %.17g != Dijkstra cost %.17g",
					obj, from, to, fast.Cost, ref.Cost)
			}
			if fast.Nodes[0] != from || fast.Nodes[len(fast.Nodes)-1] != to {
				t.Errorf("%s %d→%d: unpacked path endpoints %v", obj, from, to, fast.Nodes)
			}
			for i, id := range fast.RoadIDs {
				if ed := edgeOf[id]; ed.From != fast.Nodes[i] || ed.To != fast.Nodes[i+1] {
					t.Fatalf("%s %d→%d: road %d (%s) does not join nodes %v", obj, from, to, i, id, fast.Nodes)
				}
			}
		}
	}
}

// TestCCHRecustomizeAfterTick: after a fusion generation tick that changes
// one road's grades, CCH answers must still be bit-identical to Dijkstra on
// the new costs, and the customization that got there must have been
// incremental — a small fraction of the arcs re-derived, not a full pass.
func TestCCHRecustomizeAfterTick(t *testing.T) {
	net, err := road.GenerateNetwork(43, road.NetworkConfig{TargetStreetKM: 80})
	if err != nil {
		t.Fatalf("network: %v", err)
	}
	src := &tickSource{roadID: net.Edges[0].Road.ID()}
	eng, err := NewEngine(net, src, Config{})
	if err != nil {
		t.Fatalf("engine: %v", err)
	}
	pairs := [][2]int{
		{net.Edges[0].From, net.Edges[len(net.Edges)-1].To},
		{net.Nodes[0].ID, net.Nodes[len(net.Nodes)-1].ID},
		{net.Edges[0].To, net.Nodes[len(net.Nodes)/2].ID},
	}
	route := func(tag string) {
		t.Helper()
		for _, p := range pairs {
			fast, errF := eng.Route(Fuel, 40, p[0], p[1])
			ref, errR := eng.RouteDijkstra(Fuel, 40, p[0], p[1])
			if (errF == nil) != (errR == nil) {
				t.Fatalf("%s %v: cch err %v, reference err %v", tag, p, errF, errR)
			}
			if errF != nil {
				continue
			}
			if math.Float64bits(fast.Cost) != math.Float64bits(ref.Cost) {
				t.Errorf("%s %v: cch cost %.17g != Dijkstra %.17g", tag, p, fast.Cost, ref.Cost)
			}
		}
	}
	route("pre-tick")
	st := eng.lastCustStats()
	if !st.full || st.recomputedArcs != st.totalArcs {
		t.Fatalf("first customization should be full: %+v", st)
	}

	src.gen++
	route("post-tick")
	st = eng.lastCustStats()
	if st.full {
		t.Fatalf("post-tick customization ran full instead of incremental: %+v", st)
	}
	if st.recomputedArcs == 0 {
		t.Fatal("post-tick customization re-derived nothing despite a changed edge")
	}
	if st.recomputedArcs >= st.totalArcs/5 {
		t.Fatalf("incremental customization touched %d of %d arcs — not incremental",
			st.recomputedArcs, st.totalArcs)
	}
}

// disconnectedNet builds two islands (1↔2 and 3↔4) to exercise no-path
// handling in both the point query and the matrix.
func disconnectedNet(t *testing.T) *road.Network {
	t.Helper()
	grades := constGrades(10, 0)
	lengthM := 5 * float64(len(grades))
	a, b := geo.ENU{E: 0, N: 0}, geo.ENU{E: lengthM, N: 0}
	c, d := geo.ENU{E: 0, N: 10 * lengthM}, geo.ENU{E: lengthM, N: 10 * lengthM}
	net, err := road.NewNetwork(
		[]road.Node{{ID: 1, Pos: a}, {ID: 2, Pos: b}, {ID: 3, Pos: c}, {ID: 4, Pos: d}},
		[]*road.Edge{
			{From: 1, To: 2, Road: slopedRoad(t, "st-a-0", a, b, grades)},
			{From: 2, To: 1, Road: slopedRoad(t, "st-a-1", b, a, reversed(grades))},
			{From: 3, To: 4, Road: slopedRoad(t, "st-b-0", c, d, grades)},
			{From: 4, To: 3, Road: slopedRoad(t, "st-b-1", d, c, reversed(grades))},
		},
	)
	if err != nil {
		t.Fatalf("network: %v", err)
	}
	return net
}

func TestCCHNoPath(t *testing.T) {
	eng, err := NewEngine(disconnectedNet(t), TruthSource{}, Config{SpeedsKmh: []float64{40}})
	if err != nil {
		t.Fatalf("engine: %v", err)
	}
	if _, err := eng.Route(Fuel, 40, 1, 3); !errors.Is(err, ErrNoPath) {
		t.Errorf("disconnected cch route: got %v, want ErrNoPath", err)
	}
	if plan, err := eng.Route(Fuel, 40, 1, 2); err != nil || len(plan.RoadIDs) != 1 {
		t.Errorf("same-island cch route: %+v, %v", plan, err)
	}
}

// pinnedWeights is one published snapshot's weight table, read under the
// snapshot's pin until release.
type pinnedWeights struct {
	*cchWeights
	tb *tables
}

func (p pinnedWeights) release() { p.tb.release() }

// pinWeights returns the weight table a query of obj at bucket searches, as
// the query gets it: from a pinned published snapshot, built on its first
// ask.
func (e *Engine) pinWeights(obj Objective, bucket int) pinnedWeights {
	tb := e.snapshot(e.needOf(obj, bucket, true))
	return pinnedWeights{tb.w[e.slotOf(metricFor(obj), bucket)], tb}
}

// TestCCHPredecessorRecycling pins the array reuse of re-customization: with
// no reader left on a slot's predecessor, a tick derives the successor in
// the predecessor's own arrays; a reader still holding the predecessor
// forces fresh arrays and keeps its view untouched.
func TestCCHPredecessorRecycling(t *testing.T) {
	net, err := road.GenerateNetwork(43, road.NetworkConfig{TargetStreetKM: 12})
	if err != nil {
		t.Fatalf("network: %v", err)
	}
	store := newFakeStore()
	eng, err := NewEngine(net, CloudSource{Store: store}, Config{SpeedsKmh: []float64{40}})
	if err != nil {
		t.Fatalf("engine: %v", err)
	}
	rng := rand.New(rand.NewSource(5))
	// acquire returns the fuel table of the current snapshot, the snapshot
	// pinned by one reader.
	acquire := func() pinnedWeights { return eng.pinWeights(Fuel, 0) }
	tick := func() *cchWeights {
		store.submit(t, net.Edges[rng.Intn(len(net.Edges))].Road, 0.05*rng.Float64())
		w := acquire()
		w.release()
		return w.cchWeights
	}
	sameArrays := func(a, b *cchWeights) bool { return &a.up[0] == &b.up[0] && &a.viaDn[0] == &b.viaDn[0] }

	w0 := tick() // full customization
	w1 := tick() // no predecessor yet: copies into fresh arrays
	if sameArrays(w1, w0) {
		t.Fatal("first re-customization wrote into the current table's arrays")
	}
	w2 := tick()
	if !sameArrays(w2, w0) {
		t.Fatal("re-customization did not recycle the drained predecessor's arrays")
	}

	held := acquire() // == w2, now pinned by a reader
	view := append([]float64(nil), held.up...)
	w3 := tick() // predecessor w1 drained: recycled
	if !sameArrays(w3, w1) {
		t.Fatal("re-customization did not recycle the drained predecessor's arrays")
	}
	w4 := tick() // predecessor w2 still held: fresh arrays
	if sameArrays(w4, w2) || sameArrays(w4, w3) {
		t.Fatal("re-customization wrote into a table a reader still holds")
	}
	sameBits(t, "held table", held.up, view)
	held.release()
	if w5 := tick(); !sameArrays(w5, w3) {
		t.Fatal("re-customization did not recycle the drained predecessor's arrays")
	}
}

// TestCCHRecycleConcurrentReaders runs readers across many ticks while the
// engine recycles predecessor tables. One reader holds its table across two
// ticks, which forces the copy fallback rather than a write under it. Every
// route must match Dijkstra on the same snapshot, bit for bit; run it under
// -race -count=10.
func TestCCHRecycleConcurrentReaders(t *testing.T) {
	net, err := road.GenerateNetwork(43, road.NetworkConfig{TargetStreetKM: 12})
	if err != nil {
		t.Fatalf("network: %v", err)
	}
	store := newFakeStore()
	for i, ed := range net.Edges {
		if i%2 == 0 {
			store.submit(t, ed.Road, 0.01*float64(i%7))
		}
	}
	eng, err := NewEngine(net, CloudSource{Store: store}, Config{SpeedsKmh: []float64{30, 50}})
	if err != nil {
		t.Fatalf("engine: %v", err)
	}
	kinds := []routeKind{{Fuel, 30}, {NOx, 50}, {Fuel, 50}}
	const nTicks = 40
	done := make([]chan struct{}, nTicks)
	for k := range done {
		done[k] = make(chan struct{})
	}
	var finished atomic.Int32
	stop := make(chan struct{})
	// The other readers report each answered query; the writer waits for a
	// few after every tick so ticks interleave with reads. Reports beyond
	// the buffer are dropped.
	progress := make(chan struct{}, 16)

	var wg sync.WaitGroup
	for r := 0; r < 3; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(r)))
			for {
				select {
				case <-stop:
					return
				default:
				}
				k := kinds[rng.Intn(len(kinds))]
				bucket, _ := eng.bucketFor(k.kmh)
				w := eng.pinWeights(k.obj, bucket)
				tb := w.tb
				if r == 0 {
					// Hold the table until two more ticks have superseded it.
					if n := int(finished.Load()); n+1 < nTicks {
						select {
						case <-done[n+1]:
						case <-stop:
						}
					}
				}
				s, d := int32(rng.Intn(len(eng.ids))), int32(rng.Intn(len(eng.ids)))
				path, ok := eng.searchCCHWeights(w.cchWeights, s, d)
				w.release()
				ref, refOK := eng.searchDijkstra(eng.costRow(k.obj, bucket, tb), s, d)
				if ok != refOK {
					t.Errorf("reader %d: %s@%v %d→%d: cch found %v, Dijkstra %v", r, k.obj, k.kmh, s, d, ok, refOK)
					continue
				}
				if !ok || s == d {
					continue // no path, or nothing to compare
				}
				from, to := eng.ids[s], eng.ids[d]
				got := eng.buildPlan(k.obj, bucket, tb, from, to, path).Cost
				want := eng.buildPlan(k.obj, bucket, tb, from, to, ref).Cost
				if math.Float64bits(got) != math.Float64bits(want) {
					t.Errorf("reader %d: %s@%v %d→%d: cch %.17g, Dijkstra %.17g", r, k.obj, k.kmh, from, to, got, want)
				}
				if r > 0 {
					select {
					case progress <- struct{}{}:
					default:
					}
				}
			}
		}(r)
	}
	rng := rand.New(rand.NewSource(9))
	for k := 0; k < nTicks; k++ {
		store.submit(t, net.Edges[rng.Intn(len(net.Edges))].Road, 0.08*(rng.Float64()-0.5))
		for _, kind := range kinds {
			bucket, _ := eng.bucketFor(kind.kmh)
			eng.pinWeights(kind.obj, bucket).release()
		}
		finished.Store(int32(k + 1))
		close(done[k])
		for n := 0; n < 4; n++ {
			<-progress
		}
	}
	close(stop)
	wg.Wait()
}
