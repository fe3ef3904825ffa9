package cloud

import (
	"context"
	"math"
	"net/http"
	"net/http/httptest"
	"net/url"
	"strings"
	"sync"
	"testing"

	"roadgrade/internal/fusion"
)

func profileOf(spacing float64, grades []float64, vari float64) *fusion.Profile {
	p := &fusion.Profile{
		SpacingM: spacing,
		S:        make([]float64, len(grades)),
		GradeRad: append([]float64(nil), grades...),
		Var:      make([]float64, len(grades)),
	}
	for i := range grades {
		p.S[i] = float64(i) * spacing
		p.Var[i] = vari
	}
	return p
}

func TestServerSubmitAndFuse(t *testing.T) {
	s := NewServer()
	a := profileOf(5, []float64{0.02, 0.02}, 1e-4)
	b := profileOf(5, []float64{0.04, 0.04}, 1e-4)
	if err := s.Submit("main-st", a); err != nil {
		t.Fatal(err)
	}
	if err := s.Submit("main-st", b); err != nil {
		t.Fatal(err)
	}
	fused, err := s.Fused("main-st")
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(fused.GradeRad[0]-0.03) > 1e-12 {
		t.Errorf("fused = %v, want 0.03", fused.GradeRad[0])
	}
	roads := s.Roads()
	if len(roads) != 1 || roads[0].Submissions != 2 || roads[0].RoadID != "main-st" {
		t.Errorf("Roads = %+v", roads)
	}
}

func TestServerValidation(t *testing.T) {
	s := NewServer()
	if err := s.Submit("", profileOf(5, []float64{0.1}, 1)); err == nil {
		t.Error("empty id should error")
	}
	if err := s.Submit("x", nil); err == nil {
		t.Error("nil profile should error")
	}
	if err := s.Submit("x", profileOf(5, []float64{0.1}, 1)); err != nil {
		t.Fatal(err)
	}
	if err := s.Submit("x", profileOf(3, []float64{0.1}, 1)); err == nil {
		t.Error("mismatched spacing should error")
	}
	if _, err := s.Fused("unknown"); err == nil {
		t.Error("unknown road should error")
	}
}

func TestServerSubmissionCap(t *testing.T) {
	s := NewServer()
	s.MaxSubmissionsPerRoad = 3
	for i := 0; i < 10; i++ {
		if err := s.Submit("x", profileOf(5, []float64{0.1}, 1)); err != nil {
			t.Fatal(err)
		}
	}
	if got := s.Roads()[0].Submissions; got != 3 {
		t.Errorf("submissions = %d, want capped at 3", got)
	}
}

func TestServerConcurrentSubmissions(t *testing.T) {
	s := NewServer()
	var wg sync.WaitGroup
	for i := 0; i < 16; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 20; j++ {
				if err := s.Submit("r", profileOf(5, []float64{0.01, 0.02}, 1e-3)); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	wg.Wait()
	if _, err := s.Fused("r"); err != nil {
		t.Fatal(err)
	}
}

func TestHTTPEndToEnd(t *testing.T) {
	srv := httptest.NewServer(NewServer().Handler())
	defer srv.Close()
	client, err := NewClient(srv.URL, srv.Client())
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()

	// Two vehicles submit differing profiles for the same road.
	if err := client.SubmitProfile(ctx, "red-route", profileOf(5, []float64{0.02, 0.03}, 1e-4)); err != nil {
		t.Fatal(err)
	}
	if err := client.SubmitProfile(ctx, "red-route", profileOf(5, []float64{0.04, 0.05}, 1e-4)); err != nil {
		t.Fatal(err)
	}
	fused, err := client.FetchProfile(ctx, "red-route")
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(fused.GradeRad[0]-0.03) > 1e-12 || math.Abs(fused.GradeRad[1]-0.04) > 1e-12 {
		t.Errorf("fused = %v", fused.GradeRad)
	}
	roads, err := client.ListRoads(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if len(roads) != 1 || roads[0].Submissions != 2 {
		t.Errorf("roads = %+v", roads)
	}
}

// TestClientEscapesCallerStrings: a road ID reaches the path, and an
// objective or vehicle the query, escaped. A road whose ID holds '/', '?',
// '#', '%' or a space — which the batch door accepts — submits, reads back
// and lists like any other, and no value can add a query parameter.
func TestClientEscapesCallerStrings(t *testing.T) {
	s := NewServer()
	srv := httptest.NewServer(s.Handler())
	defer srv.Close()
	client, err := NewClient(srv.URL, srv.Client())
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	ids := []string{"a/b", "why?", "lane#2", "100%", "a%2Fb", "main street", "x/y?z=1#w%20 v"}
	for i, id := range ids {
		want := profileOf(5, []float64{0.01 * float64(i+1)}, 1e-4)
		if err := client.SubmitProfile(ctx, id, want); err != nil {
			t.Fatalf("submitting %q: %v", id, err)
		}
		got, err := client.FetchProfile(ctx, id)
		if err != nil {
			t.Fatalf("fetching %q: %v", id, err)
		}
		if math.Abs(got.GradeRad[0]-want.GradeRad[0]) > 1e-12 {
			t.Errorf("road %q read back grade %v, want %v", id, got.GradeRad[0], want.GradeRad[0])
		}
	}
	batched := "batch/one?#% x"
	if _, err := client.SubmitBatch(ctx, []BatchItem{{RoadID: batched, Profile: profileOf(5, []float64{0.05}, 1e-4)}}); err != nil {
		t.Fatal(err)
	}
	if _, err := client.FetchProfile(ctx, batched); err != nil {
		t.Errorf("batch-submitted road %q does not read back: %v", batched, err)
	}
	roads, err := client.ListRoads(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if len(roads) != len(ids)+1 {
		t.Errorf("roads = %+v, want %d roads with one submission each", roads, len(ids)+1)
	}
	for _, r := range roads {
		if r.Submissions != 1 {
			t.Errorf("road %q has %d submissions, want 1", r.RoadID, r.Submissions)
		}
	}

	var mu sync.Mutex
	var query url.Values
	stub := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		mu.Lock()
		query = r.URL.Query()
		mu.Unlock()
		http.Error(w, "stub", http.StatusBadRequest)
	}))
	defer stub.Close()
	sc, err := NewClient(stub.URL, stub.Client())
	if err != nil {
		t.Fatal(err)
	}
	_, _ = sc.Route(ctx, 1, 2, "fuel&from=9#x", 40)
	mu.Lock()
	if query.Get("objective") != "fuel&from=9#x" || len(query["from"]) != 1 || query.Get("from") != "1" {
		t.Errorf("route query arrived as %v", query)
	}
	mu.Unlock()
	_, _ = sc.FetchEmissions(ctx, "car&since=5", 40)
	mu.Lock()
	if query.Get("vehicle") != "car&since=5" || query.Has("since") {
		t.Errorf("emissions query arrived as %v", query)
	}
	mu.Unlock()
}

func TestHTTPErrors(t *testing.T) {
	srv := httptest.NewServer(NewServer().Handler())
	defer srv.Close()
	client, err := NewClient(srv.URL, srv.Client())
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	if _, err := client.FetchProfile(ctx, "nope"); err == nil {
		t.Error("fetch of unknown road should error")
	}
	if !strings.Contains(errString(client.FetchProfile(ctx, "nope")), "404") {
		t.Error("error should carry the HTTP status")
	}
	if err := client.SubmitProfile(ctx, "x", nil); err == nil {
		t.Error("nil profile should error client-side")
	}
	// Spacing conflict surfaces as an HTTP error.
	if err := client.SubmitProfile(ctx, "y", profileOf(5, []float64{0.1}, 1)); err != nil {
		t.Fatal(err)
	}
	if err := client.SubmitProfile(ctx, "y", profileOf(3, []float64{0.1}, 1)); err == nil {
		t.Error("conflicting spacing should error")
	}
}

func TestHTTPBadPayload(t *testing.T) {
	srv := httptest.NewServer(NewServer().Handler())
	defer srv.Close()
	resp, err := srv.Client().Post(srv.URL+"/v1/roads/x/profiles", "application/json",
		strings.NewReader(`{"spacing_m":0,"grade_rad":[],"var":[]}`))
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = resp.Body.Close() }()
	if resp.StatusCode != 400 {
		t.Errorf("status = %d, want 400", resp.StatusCode)
	}
	resp2, err := srv.Client().Post(srv.URL+"/v1/roads/x/profiles", "application/json",
		strings.NewReader(`garbage`))
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = resp2.Body.Close() }()
	if resp2.StatusCode != 400 {
		t.Errorf("status = %d, want 400", resp2.StatusCode)
	}
}

func TestNewClientValidation(t *testing.T) {
	if _, err := NewClient("", nil); err == nil {
		t.Error("empty base should error")
	}
}

func TestProfileDTOValidation(t *testing.T) {
	tests := []struct {
		name string
		dto  ProfileDTO
	}{
		{"spacing", ProfileDTO{SpacingM: 0, GradeRad: []float64{1}, Var: []float64{1}}},
		{"empty", ProfileDTO{SpacingM: 5}},
		{"mismatch", ProfileDTO{SpacingM: 5, GradeRad: []float64{1, 2}, Var: []float64{1}}},
		{"neg-var", ProfileDTO{SpacingM: 5, GradeRad: []float64{1}, Var: []float64{-1}}},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if _, err := tt.dto.toProfile(); err == nil {
				t.Error("expected error")
			}
		})
	}
}

func errString(_ *fusion.Profile, err error) string {
	if err == nil {
		return ""
	}
	return err.Error()
}
