package cloud

import (
	"encoding/json"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"sort"
	"strconv"
	"strings"
	"testing"
	"time"

	"roadgrade/internal/ecoroute"
	"roadgrade/internal/road"
)

// routeTestServer wires a server, an eco-routing engine fed by the server's
// own fused store, and the HTTP handler.
func routeTestServer(t testing.TB, net *road.Network) (*Server, *ecoroute.Engine, http.Handler) {
	t.Helper()
	s := NewServer()
	eng, err := ecoroute.NewEngine(net, ecoroute.CloudSource{Store: s}, ecoroute.Config{SpeedsKmh: []float64{40}})
	if err != nil {
		t.Fatalf("engine: %v", err)
	}
	s.EnableRouting(eng)
	return s, eng, s.Handler()
}

// getRoute fires one GET /v1/route and returns the status and decoded body.
func getRoute(t testing.TB, h http.Handler, query string) (int, RouteDTO) {
	t.Helper()
	req := httptest.NewRequest("GET", "/v1/route?"+query, nil)
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	var dto RouteDTO
	if rec.Code == http.StatusOK {
		if err := json.Unmarshal(rec.Body.Bytes(), &dto); err != nil {
			t.Fatalf("decoding route response: %v", err)
		}
	}
	return rec.Code, dto
}

// truthDTO builds the wire form of a road's ground-truth profile at 5 m
// spacing, the shape a vehicle's pipeline would upload.
func truthDTO(r *road.Road) ProfileDTO {
	n := int(math.Ceil(r.Length()/5)) + 1
	dto := ProfileDTO{SpacingM: 5, GradeRad: make([]float64, n), Var: make([]float64, n)}
	for i := range dto.GradeRad {
		dto.GradeRad[i] = r.GradeAt(5 * float64(i))
		dto.Var[i] = 1e-4
	}
	return dto
}

// TestRouteEndpoint drives the full loop: a route over the unmapped network
// (flat fallback), then vehicle submissions for every road on the answer,
// then the same query again — the fuel estimate must change once the fused
// map knows the hills, and all the error paths must map to the right codes.
func TestRouteEndpoint(t *testing.T) {
	net, err := road.GenerateNetwork(61, road.NetworkConfig{TargetStreetKM: 5})
	if err != nil {
		t.Fatalf("network: %v", err)
	}
	_, eng, h := routeTestServer(t, net)

	// Find a connected pair with some climbing on the route.
	rng := rand.New(rand.NewSource(2))
	var from, to int
	var flat ecoroute.Plan
	for {
		from = net.Nodes[rng.Intn(len(net.Nodes))].ID
		to = net.Nodes[rng.Intn(len(net.Nodes))].ID
		if from == to {
			continue
		}
		p, err := eng.Route(ecoroute.Fuel, 40, from, to)
		if err == nil && len(p.RoadIDs) >= 3 {
			flat = p
			break
		}
	}

	q := "from=" + strconv.Itoa(from) + "&to=" + strconv.Itoa(to)
	code, dto := getRoute(t, h, q+"&objective=fuel&speed_kmh=40")
	if code != http.StatusOK {
		t.Fatalf("route: HTTP %d", code)
	}
	if dto.Objective != "fuel" || dto.From != from || dto.To != to {
		t.Fatalf("route echoed %s %d→%d, want fuel %d→%d", dto.Objective, dto.From, dto.To, from, to)
	}
	if len(dto.RoadIDs) == 0 || dto.FuelGal <= 0 || dto.LengthM <= 0 {
		t.Fatalf("degenerate plan: %+v", dto)
	}
	if math.Abs(dto.FuelGal-flat.FuelGal) > 1e-12 {
		t.Fatalf("HTTP plan fuel %.12f != engine plan fuel %.12f", dto.FuelGal, flat.FuelGal)
	}

	// Upload ground truth for every road in the network through the real
	// submit endpoint, as the fleet's pipelines would.
	for _, ed := range net.Edges {
		body, err := json.Marshal(truthDTO(ed.Road))
		if err != nil {
			t.Fatal(err)
		}
		req := httptest.NewRequest("POST", "/v1/roads/"+ed.Road.ID()+"/profiles", strings.NewReader(string(body)))
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, req)
		if rec.Code != http.StatusAccepted {
			t.Fatalf("submit %s: HTTP %d: %s", ed.Road.ID(), rec.Code, rec.Body.String())
		}
	}

	code, mapped := getRoute(t, h, q+"&objective=fuel&speed_kmh=40")
	if code != http.StatusOK {
		t.Fatalf("route after submissions: HTTP %d", code)
	}
	if mapped.FuelGal == dto.FuelGal {
		t.Error("fuel estimate unchanged after the fused map learned the gradients")
	}

	// Error mapping.
	for _, tc := range []struct {
		query string
		code  int
	}{
		{"from=abc&to=1", http.StatusBadRequest},
		{"from=1", http.StatusBadRequest},
		{q + "&objective=scenic", http.StatusBadRequest},
		{q + "&speed_kmh=banana", http.StatusBadRequest},
		{q + "&speed_kmh=-5", http.StatusBadRequest},
		{"from=999999&to=" + strconv.Itoa(to), http.StatusNotFound},
		{"from=" + strconv.Itoa(from) + "&to=999999", http.StatusNotFound},
	} {
		if code, _ := getRoute(t, h, tc.query); code != tc.code {
			t.Errorf("GET /v1/route?%s: HTTP %d, want %d", tc.query, code, tc.code)
		}
	}

	// Routing disabled → 503.
	bare := NewServer()
	req := httptest.NewRequest("GET", "/v1/route?from=1&to=2", nil)
	rec := httptest.NewRecorder()
	bare.Handler().ServeHTTP(rec, req)
	if rec.Code != http.StatusServiceUnavailable {
		t.Errorf("routing disabled: HTTP %d, want 503", rec.Code)
	}
}

// BenchmarkEcoRouteServeWarm is the serving acceptance benchmark: warm
// GET /v1/route queries against the full HTTP stack on the 164.8 km network,
// with the fused store primed. The reported p95-ns must stay ≤ 1e6 (1 ms).
func BenchmarkEcoRouteServeWarm(b *testing.B) {
	net, err := road.Charlottesville()
	if err != nil {
		b.Fatalf("network: %v", err)
	}
	s, eng, h := routeTestServer(b, net)
	// Prime the fused store with one ground-truth submission per road.
	for _, ed := range net.Edges {
		p, err := truthDTO(ed.Road).toProfile()
		if err != nil {
			b.Fatal(err)
		}
		if err := s.Submit(ed.Road.ID(), p); err != nil {
			b.Fatal(err)
		}
	}
	// Pre-draw connected pairs and warm the tables and customizations.
	rng := rand.New(rand.NewSource(5))
	var queries []string
	for len(queries) < 256 {
		from := net.Nodes[rng.Intn(len(net.Nodes))].ID
		to := net.Nodes[rng.Intn(len(net.Nodes))].ID
		if from == to {
			continue
		}
		if _, err := eng.Route(ecoroute.Fuel, 40, from, to); err != nil {
			continue
		}
		queries = append(queries, "/v1/route?from="+strconv.Itoa(from)+"&to="+strconv.Itoa(to)+"&objective=fuel&speed_kmh=40")
	}
	durs := make([]time.Duration, 0, b.N)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		req := httptest.NewRequest("GET", queries[i%len(queries)], nil)
		rec := httptest.NewRecorder()
		start := time.Now()
		h.ServeHTTP(rec, req)
		durs = append(durs, time.Since(start))
		if rec.Code != http.StatusOK {
			b.Fatalf("HTTP %d: %s", rec.Code, rec.Body.String())
		}
	}
	b.StopTimer()
	sort.Slice(durs, func(i, j int) bool { return durs[i] < durs[j] })
	p95 := durs[int(0.95*float64(len(durs)-1))]
	b.ReportMetric(float64(p95.Nanoseconds()), "p95-ns")
}
