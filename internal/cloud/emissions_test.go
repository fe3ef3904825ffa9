package cloud

import (
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"testing"

	"roadgrade/internal/emission"
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
	if err := s.EnableEmissions(net); err != nil {
		t.Fatalf("enable: %v", err)
	}
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

	// Emissions not enabled → 503; a nil/empty network can't be enabled.
	bare := NewServer()
	if code, _ := getEmissions(t, bare.Handler(), ""); code != http.StatusServiceUnavailable {
		t.Errorf("emissions disabled: HTTP %d, want 503", code)
	}
	if err := bare.EnableEmissions(nil); err == nil {
		t.Error("EnableEmissions(nil) did not fail")
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
	if err := s.EnableEmissions(net); err != nil {
		t.Fatalf("enable: %v", err)
	}
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
	if err := s.EnableEmissions(net); err != nil {
		b.Fatalf("enable: %v", err)
	}
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
// iteration: a fresh server has no cached entry, so all roads integrate all
// four pollutants over their 5 m cells. The emission family in BENCH.json
// gates the build cost (scripts/bench.sh).
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

// BenchmarkEmissionTableIncremental measures the steady-state serving cost
// after one road's re-fusion: the store generation moves, the stamp scan
// carries every unchanged row forward, and exactly one road re-integrates.
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
