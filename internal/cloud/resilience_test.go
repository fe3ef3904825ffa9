package cloud

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"
)

// fastClient disables real sleeping so retry tests run instantly.
func fastClient(t *testing.T, base string, hc *http.Client, opts ...Option) *Client {
	t.Helper()
	c, err := NewClient(base, hc, opts...)
	if err != nil {
		t.Fatal(err)
	}
	c.sleep = func(context.Context, time.Duration) error { return nil }
	c.jitter = func() float64 { return 0.5 }
	return c
}

func TestClientRetriesTransient5xx(t *testing.T) {
	inner := NewServer()
	var calls atomic.Int32
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if calls.Add(1) <= 2 {
			http.Error(w, "warming up", http.StatusServiceUnavailable)
			return
		}
		inner.Handler().ServeHTTP(w, r)
	}))
	defer srv.Close()

	c := fastClient(t, srv.URL, srv.Client())
	if err := c.SubmitProfile(context.Background(), "r1", profileOf(5, []float64{0.01, 0.02}, 1e-4)); err != nil {
		t.Fatalf("submit with transient 5xx: %v", err)
	}
	if got := calls.Load(); got != 3 {
		t.Errorf("server saw %d calls, want 3 (two failures + success)", got)
	}
	if roads := inner.Roads(); len(roads) != 1 || roads[0].Submissions != 1 {
		t.Errorf("roads = %+v, want one road with one submission", roads)
	}
}

func TestClientGivesUpAfterBudget(t *testing.T) {
	var calls atomic.Int32
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		calls.Add(1)
		http.Error(w, "down", http.StatusInternalServerError)
	}))
	defer srv.Close()

	c := fastClient(t, srv.URL, srv.Client(), WithRetry(3, time.Millisecond, time.Millisecond))
	err := c.SubmitProfile(context.Background(), "r1", profileOf(5, []float64{0.01}, 1e-4))
	if err == nil {
		t.Fatal("persistent 5xx should fail")
	}
	if got := calls.Load(); got != 3 {
		t.Errorf("server saw %d calls, want exactly the 3-attempt budget", got)
	}
}

func TestClientDoesNotRetry4xx(t *testing.T) {
	var calls atomic.Int32
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		calls.Add(1)
		http.Error(w, `{"error":"bad"}`, http.StatusBadRequest)
	}))
	defer srv.Close()

	c := fastClient(t, srv.URL, srv.Client())
	if err := c.SubmitProfile(context.Background(), "r1", profileOf(5, []float64{0.01}, 1e-4)); err == nil {
		t.Fatal("4xx should surface as an error")
	}
	if got := calls.Load(); got != 1 {
		t.Errorf("server saw %d calls, want 1 (4xx is not retryable)", got)
	}
}

// TestIdempotentResubmission covers the ambiguous-failure case: the server
// stores the profile but the response is lost, so the client retries. The
// Idempotency-Key must keep the road at one submission.
func TestIdempotentResubmission(t *testing.T) {
	inner := NewServer()
	var calls atomic.Int32
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		rec := httptest.NewRecorder()
		inner.Handler().ServeHTTP(rec, r)
		// First attempt: request processed, response replaced with a 500.
		if calls.Add(1) == 1 {
			http.Error(w, "response lost", http.StatusBadGateway)
			return
		}
		for k, vs := range rec.Header() {
			w.Header()[k] = vs
		}
		w.WriteHeader(rec.Code)
		_, _ = w.Write(rec.Body.Bytes())
	}))
	defer srv.Close()

	c := fastClient(t, srv.URL, srv.Client())
	if err := c.SubmitProfile(context.Background(), "r1", profileOf(5, []float64{0.01, 0.02}, 1e-4)); err != nil {
		t.Fatalf("submit: %v", err)
	}
	if got := calls.Load(); got < 2 {
		t.Fatalf("expected a retry, server saw %d calls", got)
	}
	roads := inner.Roads()
	if len(roads) != 1 || roads[0].Submissions != 1 {
		t.Errorf("roads = %+v, want exactly one stored submission despite retry", roads)
	}
}

func TestSubmitIdempotentRollbackOnError(t *testing.T) {
	s := NewServer()
	p := profileOf(5, []float64{0.01}, 1e-4)
	// Empty road id fails Submit; the key must stay usable afterwards.
	if _, err := s.SubmitIdempotent("", "k1", p); err == nil {
		t.Fatal("empty road id should error")
	}
	dup, err := s.SubmitIdempotent("r1", "k1", p)
	if err != nil || dup {
		t.Fatalf("key must be released after a failed submit: dup=%v err=%v", dup, err)
	}
	dup, err = s.SubmitIdempotent("r1", "k1", p)
	if err != nil || !dup {
		t.Fatalf("second use of an accepted key: dup=%v err=%v, want duplicate", dup, err)
	}
}

func TestServerRejectsOversizedBody(t *testing.T) {
	srv := httptest.NewServer(NewServer().Handler())
	defer srv.Close()

	body := `{"spacing_m":5,"grade_rad":[` + strings.Repeat("0.01,", 1<<20) + `0.01],"var":[1]}`
	resp, err := srv.Client().Post(srv.URL+"/v1/roads/r1/profiles", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Errorf("oversized body: HTTP %d, want 413", resp.StatusCode)
	}
}

func TestServerRejectsCorruptProfiles(t *testing.T) {
	cases := []struct {
		name string
		dto  ProfileDTO
	}{
		{"nan-grade", ProfileDTO{SpacingM: 5, GradeRad: []float64{math.NaN()}, Var: []float64{1e-4}}},
		{"inf-grade", ProfileDTO{SpacingM: 5, GradeRad: []float64{math.Inf(1)}, Var: []float64{1e-4}}},
		{"steep-grade", ProfileDTO{SpacingM: 5, GradeRad: []float64{1.5}, Var: []float64{1e-4}}},
		{"nan-var", ProfileDTO{SpacingM: 5, GradeRad: []float64{0.01}, Var: []float64{math.NaN()}}},
		{"zero-var", ProfileDTO{SpacingM: 5, GradeRad: []float64{0.01}, Var: []float64{0}}},
		{"nan-spacing", ProfileDTO{SpacingM: math.NaN(), GradeRad: []float64{0.01}, Var: []float64{1e-4}}},
		{"len-mismatch", ProfileDTO{SpacingM: 5, GradeRad: []float64{0.01, 0.02}, Var: []float64{1e-4}}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if _, err := tc.dto.toProfile(); err == nil {
				t.Error("corrupt DTO passed validation")
			}
		})
	}
}

// TestClientResponseBodyCaps: the emission table has its own cap, above the
// shared one (a country-scale table is tens of MiB), and a body that reaches
// a cap fails with an error naming it instead of a bare decode EOF.
func TestClientResponseBodyCaps(t *testing.T) {
	// ~10 MiB of emission rows: past the shared 8 MiB cap.
	table := EmissionTableDTO{Vehicle: "car", SpeedKmh: 40, Roads: make([]EmissionRoadDTO, 40000)}
	for i := range table.Roads {
		table.Roads[i] = EmissionRoadDTO{
			RoadID: fmt.Sprintf("road-%06d", i), Class: "arterial", LengthM: 450.125, MeanGradeDeg: -1.75,
			Provenance: "fused", COGPerKm: 1.2345678901234, NOxGPerKm: 0.12345678901234,
			HCGPerKm: 0.012345678901234, PM25GPerKm: 0.0012345678901234,
		}
	}
	tableJSON, err := json.Marshal(table)
	if err != nil {
		t.Fatal(err)
	}
	if len(tableJSON) <= maxResponseBodyBytes {
		t.Fatalf("table is %d bytes, want more than the shared %d-byte cap", len(tableJSON), maxResponseBodyBytes)
	}
	// A profile that never ends: the body runs past the shared cap.
	endless := strings.NewReader(`{"spacing_m":5,"grade_rad":[` + strings.Repeat("0,", maxResponseBodyBytes/2))
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		switch r.URL.Path {
		case "/v1/emissions":
			_, _ = w.Write(tableJSON)
		default:
			_, _ = io.Copy(w, endless)
		}
	}))
	defer srv.Close()
	c := fastClient(t, srv.URL, srv.Client())

	got, err := c.FetchEmissions(context.Background(), "car", 40)
	if err != nil {
		t.Fatalf("fetching a %d-byte table: %v", len(tableJSON), err)
	}
	if len(got.Roads) != len(table.Roads) || got.Roads[len(got.Roads)-1] != table.Roads[len(table.Roads)-1] {
		t.Fatalf("fetched %d roads, want %d", len(got.Roads), len(table.Roads))
	}

	_, err = c.FetchProfile(context.Background(), "r")
	if err == nil || !strings.Contains(err.Error(), "8 MiB cap") {
		t.Fatalf("oversized profile body: got %v, want an error naming the 8 MiB cap", err)
	}
}
