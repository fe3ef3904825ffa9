package cloud

import (
	"fmt"
	"math"
	"math/rand"
	"net/http"
	"net/url"
	"os"
	"path/filepath"
	"strconv"
	"testing"

	"roadgrade/internal/ecoroute"
	"roadgrade/internal/road"
)

// routeQueryCases are GET /v1/route parameter values ("" = absent) and the
// status each must get on routeQueryServer's network, whose nodes are 0 to
// 11. They are FuzzRouteQuery's seed corpus too: testdata/fuzz/FuzzRouteQuery
// holds one file per case, named after it (TestRouteQueryCorpus keeps the
// two in step).
var routeQueryCases = []struct {
	name                          string
	from, to, objective, speedKmh string
	wantStatus                    int
}{
	{"defaults", "0", "11", "", "", http.StatusOK},
	{"distance", "0", "11", "distance", "40", http.StatusOK},
	{"time-alias", "11", "0", "fastest", "60", http.StatusOK},
	{"co2", "2", "9", "co2", "30", http.StatusOK},
	{"nox-mixed-case", "3", "8", "NOx", "55", http.StatusOK},
	{"co", "8", "3", "co", "40", http.StatusOK},
	{"hc", "5", "10", "hc", "50", http.StatusOK},
	{"pm25", "10", "5", "pm2.5", "35", http.StatusOK},
	{"same-node", "4", "4", "fuel", "30", http.StatusOK},
	{"snapped-speed", "0", "7", "fuel", "1e300", http.StatusOK},
	{"signed-node", "+1", "-0", "", "", http.StatusOK},
	{"unknown-node", "999", "0", "", "", http.StatusNotFound},
	{"negative-node", "-1", "3", "", "", http.StatusNotFound},
	{"missing-from", "", "3", "", "", http.StatusBadRequest},
	{"bad-to", "0", "x", "", "", http.StatusBadRequest},
	{"fractional-node", "1.5", "3", "", "", http.StatusBadRequest},
	{"overflowing-node", "0", "99999999999999999999", "", "", http.StatusBadRequest},
	{"bad-objective", "0", "3", "cheapest", "", http.StatusBadRequest},
	{"zero-speed", "0", "3", "", "0", http.StatusBadRequest},
	{"negative-speed", "0", "3", "", "-40", http.StatusBadRequest},
	{"nan-speed", "0", "3", "", "NaN", http.StatusBadRequest},
	{"inf-speed", "0", "3", "", "+Inf", http.StatusBadRequest},
	{"bad-speed", "0", "3", "", "fast", http.StatusBadRequest},
}

// routeQueryServer returns a server routing with CCH over its own store,
// into which half the roads of a 12-node network have been submitted.
func routeQueryServer(tb testing.TB) (*Server, *ecoroute.Engine, http.Handler) {
	tb.Helper()
	net, err := road.GenerateNetwork(17, road.NetworkConfig{TargetStreetKM: 8})
	if err != nil {
		tb.Fatalf("network: %v", err)
	}
	s := NewServerWithShards(4)
	rng := rand.New(rand.NewSource(17))
	for i, ed := range net.Edges {
		if i%2 == 0 {
			if err := s.Submit(ed.Road.ID(), realisticProfile(rng, 1+int(ed.Road.Length()/5))); err != nil {
				tb.Fatal(err)
			}
		}
	}
	eng, err := ecoroute.NewEngine(net, ecoroute.CloudSource{Store: s}, ecoroute.Config{})
	if err != nil {
		tb.Fatalf("engine: %v", err)
	}
	s.EnableRouting(eng)
	return s, eng, s.Handler()
}

// serveRouteQuery answers one GET /v1/route with the given parameter values
// and checks what every answer must hold: the store is untouched, the
// status is 200, 400 or 404, and a 200 names the requested nodes and costs
// what the Dijkstra reference costs for its objective and speed, to the bit.
func serveRouteQuery(t *testing.T, s *Server, eng *ecoroute.Engine, h http.Handler, from, to, objective, speedKmh string) int {
	t.Helper()
	query := url.Values{"from": {from}, "to": {to}, "objective": {objective}, "speed_kmh": {speedKmh}}.Encode()
	gen := s.StoreGeneration()
	code, dto := getRoute(t, h, query)
	if s.StoreGeneration() != gen {
		t.Fatalf("query %s moved the store generation %d → %d", query, gen, s.StoreGeneration())
	}
	switch code {
	case http.StatusOK, http.StatusBadRequest, http.StatusNotFound:
	default:
		t.Fatalf("query %s: HTTP %d", query, code)
	}
	if code != http.StatusOK {
		return code
	}
	if f, err := strconv.Atoi(from); err != nil || f != dto.From {
		t.Fatalf("query %s: answered from node %d", query, dto.From)
	}
	if to, err := strconv.Atoi(to); err != nil || to != dto.To {
		t.Fatalf("query %s: answered to node %d", query, dto.To)
	}
	obj, err := ecoroute.ParseObjective(dto.Objective)
	if err != nil {
		t.Fatalf("query %s: answered objective %q: %v", query, dto.Objective, err)
	}
	ref, err := eng.RouteDijkstra(obj, dto.SpeedKmh, dto.From, dto.To)
	if err != nil {
		t.Fatalf("query %s: answered, but the Dijkstra reference fails: %v", query, err)
	}
	if math.Float64bits(dto.Cost) != math.Float64bits(ref.Cost) {
		t.Fatalf("query %s: cost %.17g, Dijkstra %.17g", query, dto.Cost, ref.Cost)
	}
	return code
}

// TestRouteQuery runs the seed table through the handler.
func TestRouteQuery(t *testing.T) {
	s, eng, h := routeQueryServer(t)
	for _, tc := range routeQueryCases {
		t.Run(tc.name, func(t *testing.T) {
			if got := serveRouteQuery(t, s, eng, h, tc.from, tc.to, tc.objective, tc.speedKmh); got != tc.wantStatus {
				t.Errorf("HTTP %d, want %d", got, tc.wantStatus)
			}
		})
	}
}

// TestRouteQueryCorpus checks every seed case has its corpus file, in the
// go test fuzz v1 encoding of the case's four parameters.
func TestRouteQueryCorpus(t *testing.T) {
	for _, tc := range routeQueryCases {
		want := "go test fuzz v1\n"
		for _, v := range []string{tc.from, tc.to, tc.objective, tc.speedKmh} {
			want += fmt.Sprintf("string(%q)\n", v)
		}
		got, err := os.ReadFile(filepath.Join("testdata", "fuzz", "FuzzRouteQuery", tc.name))
		if err != nil || string(got) != want {
			t.Errorf("seed %s: corpus file %q (%v), want %q", tc.name, got, err, want)
		}
	}
}

// FuzzRouteQuery drives raw from, to, objective and speed_kmh values through
// Server.Handler().
func FuzzRouteQuery(f *testing.F) {
	s, eng, h := routeQueryServer(f)
	f.Fuzz(func(t *testing.T, from, to, objective, speedKmh string) {
		serveRouteQuery(t, s, eng, h, from, to, objective, speedKmh)
	})
}
