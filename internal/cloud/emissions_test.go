package cloud

import (
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"testing"

	"roadgrade/internal/ecoroute"
	"roadgrade/internal/emission"
	"roadgrade/internal/obs"
	"roadgrade/internal/road"
)

// getEmissions fires one GET /v1/emissions and returns the status and body.
func getEmissions(t testing.TB, h http.Handler, query string) (int, EmissionTableDTO) {
	t.Helper()
	url := "/v1/emissions"
	if query != "" {
		url += "?" + query
	}
	req := httptest.NewRequest("GET", url, nil)
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	var dto EmissionTableDTO
	if rec.Code == http.StatusOK {
		if err := json.Unmarshal(rec.Body.Bytes(), &dto); err != nil {
			t.Fatalf("decoding emission table: %v", err)
		}
	}
	return rec.Code, dto
}

// enableEmissions attaches a routing engine over net and s's own store, then
// the emission tables that read its snapshots.
func enableEmissions(tb testing.TB, s *Server, net *road.Network) {
	tb.Helper()
	eng, err := ecoroute.NewEngine(net, ecoroute.CloudSource{Store: s}, ecoroute.Config{})
	if err != nil {
		tb.Fatalf("engine: %v", err)
	}
	s.EnableRouting(eng)
	if err := s.EnableEmissions(net); err != nil {
		tb.Fatalf("enable: %v", err)
	}
}

// TestEmissionsEndpoint drives the city emission map through its lifecycle:
// an unmapped network serves a flat-provenance table, an unchanged store is a
// cache hit (no roads re-integrated), and one road's submission recomputes
// exactly that road and its reverse-direction sibling while every other row
// is carried forward bit-identically.
func TestEmissionsEndpoint(t *testing.T) {
	net, err := road.GenerateNetwork(61, road.NetworkConfig{TargetStreetKM: 3})
	if err != nil {
		t.Fatalf("network: %v", err)
	}
	s := NewServer()
	enableEmissions(t, s, net)
	h := s.Handler()

	hits0, rebuilds0, roads0 := obsEmisHits.Value(), obsEmisRebuilds.Value(), obsEmisRoads.Value()

	code, flat := getEmissions(t, h, "")
	if code != http.StatusOK {
		t.Fatalf("emissions: HTTP %d", code)
	}
	if flat.Vehicle != "car" || flat.SpeedKmh != 40 {
		t.Fatalf("defaults: vehicle %q speed %v, want car 40", flat.Vehicle, flat.SpeedKmh)
	}
	if len(flat.Roads) != len(net.Edges) {
		t.Fatalf("%d rows for %d edges", len(flat.Roads), len(net.Edges))
	}
	for _, row := range flat.Roads {
		if row.Provenance != "flat" {
			t.Fatalf("road %s provenance %q before any submission", row.RoadID, row.Provenance)
		}
		if row.COGPerKm <= 0 || row.NOxGPerKm <= 0 || row.HCGPerKm <= 0 || row.PM25GPerKm <= 0 {
			t.Fatalf("road %s has a non-positive intensity: %+v", row.RoadID, row)
		}
		if row.LengthM <= 0 || row.Class == "" {
			t.Fatalf("degenerate row: %+v", row)
		}
	}
	if d := obsEmisRoads.Value() - roads0; d != uint64(len(net.Edges)) {
		t.Fatalf("first build recomputed %d roads, want %d", d, len(net.Edges))
	}

	// Same store generation again: cache hit, nothing recomputed.
	code, again := getEmissions(t, h, "vehicle=car&speed_kmh=40")
	if code != http.StatusOK {
		t.Fatalf("emissions (warm): HTTP %d", code)
	}
	if again.Generation != flat.Generation {
		t.Fatalf("generation moved %d→%d with no submissions", flat.Generation, again.Generation)
	}
	if obsEmisHits.Value()-hits0 != 1 {
		t.Errorf("warm fetch was not a cache hit (hits delta %d)", obsEmisHits.Value()-hits0)
	}
	if obsEmisRebuilds.Value()-rebuilds0 != 1 {
		t.Errorf("rebuilds delta %d after a warm fetch, want 1", obsEmisRebuilds.Value()-rebuilds0)
	}

	// Submit ground truth for one road; exactly that road (fused) and its
	// opposite-direction sibling (reverse) change.
	target := net.Edges[0]
	var revID string
	for _, ed := range net.Edges {
		if ed.From == target.To && ed.To == target.From {
			revID = ed.Road.ID()
		}
	}
	p, err := truthDTO(target.Road).toProfile()
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Submit(target.Road.ID(), p); err != nil {
		t.Fatalf("submit: %v", err)
	}
	roads1 := obsEmisRoads.Value()
	code, mapped := getEmissions(t, h, "")
	if code != http.StatusOK {
		t.Fatalf("emissions after submit: HTTP %d", code)
	}
	if mapped.Generation <= flat.Generation {
		t.Fatalf("generation did not advance: %d → %d", flat.Generation, mapped.Generation)
	}
	changed := uint64(1)
	for i, row := range mapped.Roads {
		switch row.RoadID {
		case target.Road.ID():
			if row.Provenance != "fused" {
				t.Errorf("submitted road provenance %q, want fused", row.Provenance)
			}
		case revID:
			if row.Provenance != "reverse" {
				t.Errorf("sibling road provenance %q, want reverse", row.Provenance)
			}
			changed++
		default:
			if row != flat.Roads[i] {
				t.Errorf("untouched road %s changed: %+v → %+v", row.RoadID, flat.Roads[i], row)
			}
		}
	}
	if d := obsEmisRoads.Value() - roads1; d != changed {
		t.Errorf("incremental rebuild recomputed %d roads, want %d", d, changed)
	}

	// Speeds snap to the nearest table bucket; off-bucket speeds don't grow
	// the cache.
	code, snapped := getEmissions(t, h, "speed_kmh=42")
	if code != http.StatusOK || snapped.SpeedKmh != 40 {
		t.Fatalf("speed 42 snapped to %v (HTTP %d), want 40", snapped.SpeedKmh, code)
	}

	// Heavier classes emit more per km everywhere.
	code, truck := getEmissions(t, h, "vehicle=truck")
	if code != http.StatusOK {
		t.Fatalf("truck table: HTTP %d", code)
	}
	for i, row := range truck.Roads {
		if row.NOxGPerKm <= mapped.Roads[i].NOxGPerKm {
			t.Fatalf("road %s: truck NOx %.3f not above car %.3f",
				row.RoadID, row.NOxGPerKm, mapped.Roads[i].NOxGPerKm)
		}
	}

	// Error mapping.
	for _, tc := range []struct {
		query string
		code  int
	}{
		{"vehicle=hovercraft", http.StatusBadRequest},
		{"speed_kmh=banana", http.StatusBadRequest},
		{"speed_kmh=-5", http.StatusBadRequest},
		{"speed_kmh=0", http.StatusBadRequest},
	} {
		if code, _ := getEmissions(t, h, tc.query); code != tc.code {
			t.Errorf("GET /v1/emissions?%s: HTTP %d, want %d", tc.query, code, tc.code)
		}
	}

	// Emissions not enabled → 503.
	bare := NewServer()
	if code, _ := getEmissions(t, bare.Handler(), ""); code != http.StatusServiceUnavailable {
		t.Errorf("emissions disabled: HTTP %d, want 503", code)
	}
	// The tables read a routing engine over net and the server's own store:
	// without one, or with any other, emissions can't be enabled.
	other, err := road.GenerateNetwork(62, road.NetworkConfig{TargetStreetKM: 2})
	if err != nil {
		t.Fatalf("network: %v", err)
	}
	own := func(srv *Server) ecoroute.GradeSource { return ecoroute.CloudSource{Store: srv} }
	for _, tc := range []struct {
		name   string
		engNet *road.Network // nil: no engine
		src    func(srv *Server) ecoroute.GradeSource
		net    *road.Network
	}{
		{"no routing engine", nil, nil, net},
		{"engine over another network", other, own, net},
		{"engine over ground truth", net, func(*Server) ecoroute.GradeSource { return ecoroute.TruthSource{} }, net},
		{"engine over another store", net, func(*Server) ecoroute.GradeSource { return ecoroute.CloudSource{Store: s} }, net},
		{"nil network", net, own, nil},
	} {
		srv := NewServer()
		if tc.engNet != nil {
			eng, err := ecoroute.NewEngine(tc.engNet, tc.src(srv), ecoroute.Config{})
			if err != nil {
				t.Fatalf("%s: engine: %v", tc.name, err)
			}
			srv.EnableRouting(eng)
		}
		if err := srv.EnableEmissions(tc.net); err == nil || srv.emis != nil {
			t.Errorf("%s: EnableEmissions did not fail (%v)", tc.name, err)
		}
	}
}

// TestEmissionsClientRoundTrip checks Client.FetchEmissions against the live
// handler and the server-side EmissionTable view of the same store.
func TestEmissionsClientRoundTrip(t *testing.T) {
	net, err := road.GenerateNetwork(62, road.NetworkConfig{TargetStreetKM: 2})
	if err != nil {
		t.Fatalf("network: %v", err)
	}
	s := NewServer()
	enableEmissions(t, s, net)
	srv := httptest.NewServer(s.Handler())
	defer srv.Close()
	c, err := NewClient(srv.URL, srv.Client())
	if err != nil {
		t.Fatalf("client: %v", err)
	}

	got, err := c.FetchEmissions(context.Background(), "bus", 50)
	if err != nil {
		t.Fatalf("fetch: %v", err)
	}
	want, err := s.EmissionTable(emission.Bus, 50)
	if err != nil {
		t.Fatalf("table: %v", err)
	}
	if got.Vehicle != "bus" || got.SpeedKmh != 50 || len(got.Roads) != len(want.Roads) {
		t.Fatalf("fetched %s@%v with %d roads, want %s@%v with %d",
			got.Vehicle, got.SpeedKmh, len(got.Roads), want.Vehicle, want.SpeedKmh, len(want.Roads))
	}
	for i := range got.Roads {
		if got.Roads[i] != want.Roads[i] {
			t.Fatalf("road %d differs over the wire: %+v != %+v", i, got.Roads[i], want.Roads[i])
		}
	}

	if _, err := c.FetchEmissions(context.Background(), "hovercraft", 40); err == nil {
		t.Error("bad vehicle did not error through the client")
	}
}

// benchEmissionServer stands up a server with emissions enabled over the
// 164.8 km network, fused store primed with one truth submission per road.
func benchEmissionServer(b *testing.B) (*Server, *road.Network) {
	b.Helper()
	net, err := road.Charlottesville()
	if err != nil {
		b.Fatalf("network: %v", err)
	}
	s := NewServer()
	enableEmissions(b, s, net)
	for _, ed := range net.Edges {
		p, err := truthDTO(ed.Road).toProfile()
		if err != nil {
			b.Fatal(err)
		}
		if err := s.Submit(ed.Road.ID(), p); err != nil {
			b.Fatal(err)
		}
	}
	return s, net
}

// BenchmarkEmissionTableBuild pays the full city-table integration on every
// iteration: with the table cache dropped, all roads integrate all four
// pollutants over their 5 m cells from the (current) routing snapshot. The
// emission family in BENCH.json gates the build cost (scripts/bench.sh).
func BenchmarkEmissionTableBuild(b *testing.B) {
	s, _ := benchEmissionServer(b)
	em := s.emis
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		// Dropping the cache forces the first-build path without
		// re-priming the fused store.
		em.mu.Lock()
		em.cache = make(map[emisKey]*emisTable)
		em.mu.Unlock()
		if _, err := s.EmissionTable(emission.Car, 40); err != nil {
			b.Fatal(err)
		}
	}
}

// refreshRouting waits, with the benchmark timer stopped, for the routing
// engine to publish the snapshot of the store's newest fold, and then starts
// the timer. The fold starts the engine's publisher without waiting for it;
// the emission benchmarks leave the publish out of the table's time, since a
// server shares it between route queries and emission tables
// (BenchmarkCountryTick25x times a fold with its publish).
func refreshRouting(b *testing.B, s *Server) {
	b.StopTimer()
	if _, err := s.router.Grades(); err != nil {
		b.Fatal(err)
	}
	b.StartTimer()
}

// BenchmarkEmissionTableIncremental measures the steady-state serving cost
// after one road's re-fusion: the table diffs its stamp row against the
// routing snapshot's, carries every unchanged row forward, and exactly one
// road re-integrates. The fold is timed; the publish it starts is waited
// for with the timer stopped (refreshRouting).
func BenchmarkEmissionTableIncremental(b *testing.B) {
	s, net := benchEmissionServer(b)
	if _, err := s.EmissionTable(emission.Car, 40); err != nil {
		b.Fatal(err)
	}
	p, err := truthDTO(net.Edges[0].Road).toProfile()
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := s.Submit(net.Edges[0].Road.ID(), p); err != nil {
			b.Fatal(err)
		}
		refreshRouting(b, s)
		if _, err := s.EmissionTable(emission.Car, 40); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkEmissionTableWarm is the cache-hit path GET /v1/emissions serves
// a full table from: unchanged store generation, already-encoded JSON bytes.
func BenchmarkEmissionTableWarm(b *testing.B) {
	s, _ := benchEmissionServer(b)
	if _, err := s.EmissionTable(emission.Car, 40); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := s.emissionBody(emission.Car, 40, false, 0, ""); err != nil {
			b.Fatal(err)
		}
	}
}

// ladderRow is the reference for one emission row, recomputed from the
// store's own profiles: the road's fused profile, else the opposite
// direction's sign-flipped and traversed backwards, else flat.
func ladderRow(t *testing.T, s *Server, r, rev *road.Road, class emission.VehicleClass, kmh float64) EmissionRoadDTO {
	t.Helper()
	grade, prov := func(float64) float64 { return 0 }, "flat"
	if p, _, err := s.FusedGeneration(r.ID()); err == nil {
		grade, prov = p.GradeAt, "fused"
	} else if rev != nil {
		if p, _, err := s.FusedGeneration(rev.ID()); err == nil {
			length := rev.Length()
			grade, prov = func(at float64) float64 { return -p.GradeAt(length - at) }, "reverse"
		}
	}
	re, err := emission.RoadEmissionsAt(r, kmh/3.6, grade, emission.ForVehicle(class))
	if err != nil {
		t.Fatalf("road %s: %v", r.ID(), err)
	}
	return EmissionRoadDTO{
		RoadID:       re.RoadID,
		Class:        roadClassName(re.Class),
		LengthM:      re.LengthM,
		MeanGradeDeg: re.MeanGradeDeg,
		Provenance:   prov,
		COGPerKm:     re.GramsPerKm[emission.CO],
		NOxGPerKm:    re.GramsPerKm[emission.NOx],
		HCGPerKm:     re.GramsPerKm[emission.HC],
		PM25GPerKm:   re.GramsPerKm[emission.PM25],
	}
}

// TestEmissionRowsMatchStoreLadder recomputes every row of all 12 tables
// from the store's own profiles (ladderRow) after each fold of seeded
// sequences whose folds move roads from flat to reverse and from reverse
// to fused. The served rows, which read the routing snapshot, must match:
// provenance and all five floats by Float64bits, at the store's generation.
func TestEmissionRowsMatchStoreLadder(t *testing.T) {
	for _, seed := range []int64{3, 19, 43} {
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			net, err := road.GenerateNetwork(seed, road.NetworkConfig{TargetStreetKM: 3})
			if err != nil {
				t.Fatalf("network: %v", err)
			}
			byPair := make(map[[2]int]*road.Road, len(net.Edges))
			for _, ed := range net.Edges {
				byPair[[2]int{ed.From, ed.To}] = ed.Road
			}
			rev := make([]*road.Road, len(net.Edges))
			for i, ed := range net.Edges {
				rev[i] = byPair[[2]int{ed.To, ed.From}]
			}
			s := NewServerWithShards(4)
			enableEmissions(t, s, net)
			rng := rand.New(rand.NewSource(seed))
			hasData := func(r *road.Road) bool {
				_, _, err := s.FusedGeneration(r.ID())
				return err == nil
			}

			prov := make(map[string]string)
			var flatToReverse, reverseToFused bool
			check := func(step string) {
				t.Helper()
				for _, k := range emisKinds {
					class, err := emission.ParseVehicleClass(k.vehicle)
					if err != nil {
						t.Fatal(err)
					}
					got, err := s.EmissionTable(class, k.kmh)
					if err != nil {
						t.Fatal(err)
					}
					want := EmissionTableDTO{Generation: s.StoreGeneration(), Vehicle: k.vehicle, SpeedKmh: k.kmh,
						Epoch: s.emis.epoch, Roads: make([]EmissionRoadDTO, len(net.Edges))}
					for i, ed := range net.Edges {
						want.Roads[i] = ladderRow(t, s, ed.Road, rev[i], class, k.kmh)
					}
					if d := emissionTableDiff(got, want); d != "" {
						t.Fatalf("%s: %s@%v: served table differs from the store ladder: %s", step, k.vehicle, k.kmh, d)
					}
					if k.vehicle != "car" {
						continue
					}
					for _, row := range got.Roads {
						switch p := prov[row.RoadID]; {
						case p == "flat" && row.Provenance == "reverse":
							flatToReverse = true
						case p == "reverse" && row.Provenance == "fused":
							reverseToFused = true
						}
						prov[row.RoadID] = row.Provenance
					}
				}
			}

			check("empty store")
			for step := 0; step < 6; step++ {
				// One road nobody drove either way (its sibling goes flat →
				// reverse), one driven only the other way (reverse → fused)
				// and one at random, folded shard by shard.
				var items []BatchItem
				add := func(r *road.Road) {
					items = append(items, BatchItem{RoadID: r.ID(), Profile: realisticProfile(rng, 1+int(r.Length()/5))})
				}
				for _, wantSib := range []bool{false, true} {
					for _, i := range rng.Perm(len(net.Edges)) {
						r := net.Edges[i].Road
						if rev[i] != nil && !hasData(r) && hasData(rev[i]) == wantSib {
							add(r)
							break
						}
					}
				}
				add(net.Edges[rng.Intn(len(net.Edges))].Road)
				foldByShard(t, s, items, func() { check(fmt.Sprintf("step %d, between shard folds", step)) })
				check(fmt.Sprintf("step %d", step))
			}
			if !flatToReverse || !reverseToFused {
				t.Errorf("sequence missed a provenance change: flat→reverse %v, reverse→fused %v", flatToReverse, reverseToFused)
			}
		})
	}
}

// TestEmissionsReadAttachedEngine: tables and routes read one snapshot of
// whichever engine is attached. After EnableRouting replaces the engine
// (same network, same store), each fold costs one refresh in all, however
// many tables and routes read it, and the refreshed tables match the store
// ladder.
func TestEmissionsReadAttachedEngine(t *testing.T) {
	net, err := road.GenerateNetwork(61, road.NetworkConfig{TargetStreetKM: 3})
	if err != nil {
		t.Fatalf("network: %v", err)
	}
	byPair := make(map[[2]int]*road.Road, len(net.Edges))
	for _, ed := range net.Edges {
		byPair[[2]int{ed.From, ed.To}] = ed.Road
	}
	s := NewServer()
	enableEmissions(t, s, net)
	h := s.Handler()
	// tables fetches all 12 tables, handing each to check.
	tables := func(check func(k emisKind, class emission.VehicleClass, got EmissionTableDTO)) {
		t.Helper()
		for _, k := range emisKinds {
			class, err := emission.ParseVehicleClass(k.vehicle)
			if err != nil {
				t.Fatal(err)
			}
			got, err := s.EmissionTable(class, k.kmh)
			if err != nil {
				t.Fatal(err)
			}
			check(k, class, got)
		}
	}
	tables(func(emisKind, emission.VehicleClass, EmissionTableDTO) {})
	eng, err := ecoroute.NewEngine(net, ecoroute.CloudSource{Store: s}, ecoroute.Config{})
	if err != nil {
		t.Fatalf("engine: %v", err)
	}
	s.EnableRouting(eng)

	refreshes := obs.Default.Counter("ecoroute_refreshes_total")
	for step, ed := range net.Edges[:3] {
		p, err := truthDTO(ed.Road).toProfile()
		if err != nil {
			t.Fatal(err)
		}
		r0 := refreshes.Value() // the fold wakes the publisher
		if err := s.Submit(ed.Road.ID(), p); err != nil {
			t.Fatalf("submit: %v", err)
		}
		tables(func(k emisKind, class emission.VehicleClass, got EmissionTableDTO) {
			want := EmissionTableDTO{Generation: s.StoreGeneration(), Vehicle: k.vehicle, SpeedKmh: k.kmh,
				Epoch: s.emis.epoch, Roads: make([]EmissionRoadDTO, len(net.Edges))}
			for i, e := range net.Edges {
				want.Roads[i] = ladderRow(t, s, e.Road, byPair[[2]int{e.To, e.From}], class, k.kmh)
			}
			if d := emissionTableDiff(got, want); d != "" {
				t.Fatalf("step %d: %s@%v: table differs from the store ladder: %s", step, k.vehicle, k.kmh, d)
			}
		})
		if code, _ := getRoute(t, h, fmt.Sprintf("from=%d&to=%d&objective=nox", ed.From, ed.To)); code != http.StatusOK {
			t.Fatalf("step %d: route: HTTP %d", step, code)
		}
		if n := refreshes.Value() - r0; n != 1 {
			t.Errorf("step %d: %d routing refreshes for one fold read by %d tables and a route, want 1", step, n, len(emisKinds))
		}
	}
}
