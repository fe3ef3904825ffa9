package cloud

import (
	"bytes"
	"compress/gzip"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"runtime"
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
	if _, err := s.SubmitIdempotentDevice("", "k1", "", p); err == nil {
		t.Fatal("empty road id should error")
	}
	dup, err := s.SubmitIdempotentDevice("r1", "k1", "", p)
	if err != nil || dup {
		t.Fatalf("key must be released after a failed submit: dup=%v err=%v", dup, err)
	}
	dup, err = s.SubmitIdempotentDevice("r1", "k1", "", p)
	if err != nil || !dup {
		t.Fatalf("second use of an accepted key: dup=%v err=%v, want duplicate", dup, err)
	}
}

// spaces is an endless reader of ASCII spaces: JSON padding that costs no
// memory to hold.
type spaces struct{}

func (spaces) Read(p []byte) (int, error) {
	for i := range p {
		p[i] = ' '
	}
	return len(p), nil
}

// paddedBody is prefix followed by spaces up to size bytes, gzipped when
// zip is set.
func paddedBody(t *testing.T, prefix string, size int64, zip bool) io.Reader {
	t.Helper()
	body := io.MultiReader(strings.NewReader(prefix), io.LimitReader(spaces{}, size-int64(len(prefix))))
	if !zip {
		return body
	}
	var buf bytes.Buffer
	gz, err := gzip.NewWriterLevel(&buf, gzip.BestSpeed)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := io.Copy(gz, body); err != nil {
		t.Fatal(err)
	}
	if err := gz.Close(); err != nil {
		t.Fatal(err)
	}
	return &buf
}

// raceEnabled is set in race builds (race_test.go). The race detector's
// shadow memory turns the batch door's 64 MiB test bodies into more than a
// gigabyte, so those cases run only without it.
var raceEnabled bool

// TestServerRejectsOversizedBody: at both submit doors a body past the cap
// gets 413 and leaves the store alone, whether the wire bytes or the bytes
// a gzip body inflates to cross it; a gzip body that inflates to exactly
// the cap is within it.
func TestServerRejectsOversizedBody(t *testing.T) {
	const (
		single  = "/v1/roads/r1/profiles"
		batch   = "/v1/submit-batch"
		profile = `{"spacing_m":5,"grade_rad":[0.01],"var":[0.001]}`
	)
	items := `{"items":[{"road_id":"r1","profile":` + profile + `}]}`
	cases := []struct {
		name   string
		path   string
		prefix string
		size   int64
		gzip   bool
		want   int
	}{
		{"single/wire", single, profile, maxSubmitBodyBytes + 1, false, http.StatusRequestEntityTooLarge},
		{"single/inflated", single, profile, maxSubmitBodyBytes + 1, true, http.StatusRequestEntityTooLarge},
		{"single/inflated-to-cap", single, profile, maxSubmitBodyBytes, true, http.StatusAccepted},
		{"batch/wire", batch, items, maxBatchBodyBytes + 1, false, http.StatusRequestEntityTooLarge},
		{"batch/inflated", batch, items, maxBatchBodyBytes + 1, true, http.StatusRequestEntityTooLarge},
	}
	s := NewServer()
	h := s.Handler()
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if raceEnabled && tc.size > maxSubmitBodyBytes+1 {
				t.Skip("a 64 MiB body under the race detector")
			}
			req := httptest.NewRequest("POST", tc.path, paddedBody(t, tc.prefix, tc.size, tc.gzip))
			req.Header.Set("Content-Type", "application/json")
			if tc.gzip {
				req.Header.Set("Content-Encoding", "gzip")
			}
			gen := s.StoreGeneration()
			rec := httptest.NewRecorder()
			h.ServeHTTP(rec, req)
			if rec.Code != tc.want {
				t.Fatalf("HTTP %d, want %d: %s", rec.Code, tc.want, rec.Body)
			}
			wantGen := gen
			if tc.want == http.StatusAccepted {
				wantGen++
			}
			if now := s.StoreGeneration(); now != wantGen {
				t.Errorf("store generation %d → %d, want %d", gen, now, wantGen)
			}
		})
	}
}

// silentBody sends nothing: it records the size of the buffer each Read is
// offered and reports EOF.
type silentBody struct{ offered []int }

func (b *silentBody) Read(p []byte) (int, error) {
	b.offered = append(b.offered, len(p))
	return 0, io.EOF
}

// TestServerRefusesDeclaredOversizedBody: at both submit doors a request
// that declares a Content-Length past the cap gets 413 before its body is
// read at all. One that declares exactly the cap and then sends nothing
// costs no buffer near the cap: its first read is offered at most a pooled
// buffer (the pool keeps none above maxSubmitBodyBytes+bytes.MinRead, far
// below the batch cap) and the request allocates under 1 MiB. Neither
// moves the store.
func TestServerRefusesDeclaredOversizedBody(t *testing.T) {
	s := NewServer()
	h := s.Handler()
	for _, door := range []struct {
		path string
		max  int64
	}{
		{"/v1/roads/r1/profiles", maxSubmitBodyBytes},
		{"/v1/submit-batch", maxBatchBodyBytes},
	} {
		for _, tc := range []struct {
			declared int64
			want     int
		}{
			{door.max + 1, http.StatusRequestEntityTooLarge},
			{door.max, http.StatusBadRequest},
		} {
			name := fmt.Sprintf("%s declaring %d", door.path, tc.declared)
			body := &silentBody{}
			req := httptest.NewRequest("POST", door.path, body)
			req.ContentLength = tc.declared
			req.Header.Set("Content-Type", "application/json")
			gen := s.StoreGeneration()
			rec := httptest.NewRecorder()
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			h.ServeHTTP(rec, req)
			runtime.ReadMemStats(&after)
			if rec.Code != tc.want {
				t.Errorf("%s: HTTP %d, want %d: %s", name, rec.Code, tc.want, rec.Body)
			}
			if tc.want == http.StatusRequestEntityTooLarge && len(body.offered) != 0 {
				t.Errorf("%s: body read before the 413", name)
			}
			if len(body.offered) > 0 && body.offered[0] > maxSubmitBodyBytes+bytes.MinRead {
				t.Errorf("%s: first read offered %d bytes for a body that sent none", name, body.offered[0])
			}
			if n := after.TotalAlloc - before.TotalAlloc; n >= 1<<20 {
				t.Errorf("%s: allocated %d bytes for a body that sent none", name, n)
			}
			if now := s.StoreGeneration(); now != gen {
				t.Errorf("%s: store generation %d → %d", name, gen, now)
			}
		}
	}
}

// TestReadBodyCapacityAtCap: a body of exactly the cap, identity with its
// length declared or gzip, is read into a buffer no larger than the cap
// plus bytes.MinRead.
func TestReadBodyCapacityAtCap(t *testing.T) {
	for _, tc := range []struct {
		name string
		max  int64
		gzip bool
	}{
		{"single/identity", maxSubmitBodyBytes, false},
		{"single/gzip", maxSubmitBodyBytes, true},
		{"batch/identity", maxBatchBodyBytes, false},
		{"batch/gzip", maxBatchBodyBytes, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			if raceEnabled && tc.max > maxSubmitBodyBytes {
				t.Skip("a 64 MiB body under the race detector")
			}
			body := paddedBody(t, "", tc.max, tc.gzip)
			req := httptest.NewRequest("POST", "/v1/submit-batch", body)
			if tc.gzip {
				req.Header.Set("Content-Encoding", "gzip")
			} else {
				req.ContentLength = tc.max
			}
			buf, err := readBody(httptest.NewRecorder(), req, tc.max)
			if err != nil {
				t.Fatal(err)
			}
			defer putBodyBuf(buf)
			if int64(buf.Len()) != tc.max {
				t.Fatalf("read %d bytes, want %d", buf.Len(), tc.max)
			}
			if limit := tc.max + bytes.MinRead; int64(buf.Cap()) > limit {
				t.Errorf("buffer capacity %d, want at most %d", buf.Cap(), limit)
			}
		})
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
