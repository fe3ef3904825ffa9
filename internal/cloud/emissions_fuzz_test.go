package cloud

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"net/url"
	"os"
	"path/filepath"
	"testing"

	"roadgrade/internal/emission"
	"roadgrade/internal/road"
)

// queryEpoch is the epoch the query tests pin on their server, so a seed
// can name it and reach the delta path.
const queryEpoch = "query-epoch"

// emissionQueryCases are GET /v1/emissions parameter values ("" = absent)
// and the status each must get. They are FuzzEmissionsQuery's seed corpus
// too: testdata/fuzz/FuzzEmissionsQuery holds one file per case, named
// after it (TestEmissionsQueryCorpus keeps the two in step).
var emissionQueryCases = []struct {
	name                         string
	vehicle, speed, since, epoch string
	wantStatus                   int
}{
	{"defaults", "", "", "", "", http.StatusOK},
	{"truck-50", "truck", "50", "", "", http.StatusOK},
	{"upper-case-vehicle", "BUS", "33", "", "", http.StatusOK},
	{"delta", "car", "40", "2", queryEpoch, http.StatusOK},
	{"delta-from-zero", "bus", "60", "0", queryEpoch, http.StatusOK},
	{"delta-current", "car", "40", "6", queryEpoch, http.StatusOK},
	{"since-ahead", "car", "40", "7", queryEpoch, http.StatusOK},
	{"since-max", "", "", "18446744073709551615", queryEpoch, http.StatusOK},
	{"unknown-epoch", "truck", "30", "2", "restarted", http.StatusOK},
	{"since-without-epoch", "", "", "2", "", http.StatusOK},
	{"epoch-without-since", "", "", "", queryEpoch, http.StatusOK},
	{"bad-vehicle", "hovercraft", "", "", "", http.StatusBadRequest},
	{"bad-speed", "", "banana", "", "", http.StatusBadRequest},
	{"zero-speed", "", "0", "", "", http.StatusBadRequest},
	{"negative-speed", "", "-5", "", "", http.StatusBadRequest},
	{"nan-speed", "", "NaN", "", "", http.StatusBadRequest},
	{"inf-speed", "", "+Inf", "", "", http.StatusBadRequest},
	{"negative-since", "", "", "-1", queryEpoch, http.StatusBadRequest},
	{"fractional-since", "", "", "1.5", queryEpoch, http.StatusBadRequest},
	{"overflowing-since", "", "", "18446744073709551616", queryEpoch, http.StatusBadRequest},
	{"hex-since", "", "", "0x2", queryEpoch, http.StatusBadRequest},
}

// emissionQueryServer returns a handler over a small network whose tables
// were refreshed at generations 1 through 6, so deltas since different
// generations carry different rows.
func emissionQueryServer(tb testing.TB) (*Server, http.Handler, *road.Network) {
	tb.Helper()
	net, err := road.GenerateNetwork(17, road.NetworkConfig{TargetStreetKM: 2})
	if err != nil {
		tb.Fatalf("network: %v", err)
	}
	s := NewServerWithShards(4)
	if err := s.EnableEmissions(net); err != nil {
		tb.Fatalf("enable: %v", err)
	}
	s.emis.epoch = queryEpoch
	rng := rand.New(rand.NewSource(17))
	for gen := 0; gen < 6; gen++ {
		r := net.Edges[rng.Intn(len(net.Edges))].Road
		if err := s.Submit(r.ID(), realisticProfile(rng, 1+int(r.Length()/5))); err != nil {
			tb.Fatal(err)
		}
		for _, k := range emisKinds {
			class, err := emission.ParseVehicleClass(k.vehicle)
			if err != nil {
				tb.Fatal(err)
			}
			if _, err := s.EmissionTable(class, k.kmh); err != nil {
				tb.Fatal(err)
			}
		}
	}
	return s, s.Handler(), net
}

// serveEmissionsQuery answers one GET /v1/emissions with the given
// parameter values and checks what every answer must hold: the store is
// untouched, the status is 200, 400 or 503, and a 200 body decodes to a
// full table with a row per network edge or a delta whose indexes pair with
// its rows, ascend and stay inside the table.
func serveEmissionsQuery(t *testing.T, s *Server, h http.Handler, net *road.Network, vehicle, speed, since, epoch string) int {
	t.Helper()
	q := url.Values{"vehicle": {vehicle}, "speed_kmh": {speed}, "since": {since}, "epoch": {epoch}}
	gen := s.StoreGeneration()
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("GET", "/v1/emissions?"+q.Encode(), nil))
	if s.StoreGeneration() != gen {
		t.Fatalf("query %s moved the store generation %d → %d", q.Encode(), gen, s.StoreGeneration())
	}
	switch rec.Code {
	case http.StatusOK, http.StatusBadRequest, http.StatusServiceUnavailable:
	default:
		t.Fatalf("query %s: HTTP %d", q.Encode(), rec.Code)
	}
	if rec.Code != http.StatusOK {
		return rec.Code
	}
	var resp emissionResponseDTO
	if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
		t.Fatalf("query %s: body does not decode: %v", q.Encode(), err)
	}
	if resp.Base == nil {
		if len(resp.Roads) != len(net.Edges) || resp.Index != nil {
			t.Fatalf("query %s: full table with %d rows and %d indexes for %d edges",
				q.Encode(), len(resp.Roads), len(resp.Index), len(net.Edges))
		}
		return rec.Code
	}
	if len(resp.Index) != len(resp.Roads) {
		t.Fatalf("query %s: delta with %d indexes for %d rows", q.Encode(), len(resp.Index), len(resp.Roads))
	}
	for k, i := range resp.Index {
		if i < 0 || i >= len(net.Edges) || k > 0 && i <= resp.Index[k-1] {
			t.Fatalf("query %s: delta index %v out of order or range", q.Encode(), resp.Index)
		}
	}
	return rec.Code
}

// TestEmissionsQuery runs the seed table through the handler.
func TestEmissionsQuery(t *testing.T) {
	s, h, net := emissionQueryServer(t)
	for _, tc := range emissionQueryCases {
		t.Run(tc.name, func(t *testing.T) {
			if got := serveEmissionsQuery(t, s, h, net, tc.vehicle, tc.speed, tc.since, tc.epoch); got != tc.wantStatus {
				t.Errorf("HTTP %d, want %d", got, tc.wantStatus)
			}
		})
	}
}

// TestEmissionsQueryCorpus checks every seed case has its corpus file, in
// the go test fuzz v1 encoding of the case's four parameters.
func TestEmissionsQueryCorpus(t *testing.T) {
	for _, tc := range emissionQueryCases {
		want := "go test fuzz v1\n"
		for _, v := range []string{tc.vehicle, tc.speed, tc.since, tc.epoch} {
			want += fmt.Sprintf("string(%q)\n", v)
		}
		got, err := os.ReadFile(filepath.Join("testdata", "fuzz", "FuzzEmissionsQuery", tc.name))
		if err != nil || string(got) != want {
			t.Errorf("seed %s: corpus file %q (%v), want %q", tc.name, got, err, want)
		}
	}
}

// FuzzEmissionsQuery drives raw vehicle, speed_kmh, since and epoch values
// through Server.Handler().
func FuzzEmissionsQuery(f *testing.F) {
	s, h, net := emissionQueryServer(f)
	f.Fuzz(func(t *testing.T, vehicle, speed, since, epoch string) {
		serveEmissionsQuery(t, s, h, net, vehicle, speed, since, epoch)
	})
}
