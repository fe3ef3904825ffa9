package cloud

import (
	"context"
	"encoding/json"
	"errors"
	"math"
	"net/http"
	"net/http/httptest"
	"strconv"
	"sync/atomic"
	"testing"
	"time"
)

// retryAfterNow anchors the HTTP-date cases.
var retryAfterNow = time.Date(2026, time.August, 8, 12, 0, 0, 0, time.UTC)

// retryAfterCases cover RFC 9110 §10.2.3: delta-seconds and all three
// HTTP-date forms (IMF-fixdate, obsolete RFC 850, ANSI C asctime), the
// degenerate values that must fall back to "no hint", and delta-seconds
// too long for a time.Duration, which saturate. They seed
// FuzzParseRetryAfter too.
var retryAfterCases = []struct {
	name string
	v    string
	want time.Duration
}{
	{"empty", "", 0},
	{"delta seconds", "7", 7 * time.Second},
	{"delta one", "1", time.Second},
	{"delta zero", "0", 0},
	{"delta negative", "-3", 0},
	{"imf fixdate future", "Sat, 08 Aug 2026 12:00:30 GMT", 30 * time.Second},
	{"imf fixdate past", "Sat, 08 Aug 2026 11:59:00 GMT", 0},
	{"imf fixdate far future", "Sat, 08 Aug 2026 13:00:00 GMT", time.Hour},
	{"rfc850 date", "Saturday, 08-Aug-26 12:01:00 GMT", time.Minute},
	{"asctime date", "Sat Aug  8 12:00:10 2026", 10 * time.Second},
	{"garbage", "soon", 0},
	{"float seconds", "1.5", 0},
	{"trailing junk", "7 seconds", 0},
	{"146 years", "4611686019", 4611686019 * time.Second},
	{"longest duration in seconds", "9223372036", 9223372036 * time.Second},
	{"one second past the longest duration", "9223372037", math.MaxInt64},
	{"wraps when multiplied", "9300000000", math.MaxInt64},
	{"beyond int64", "99999999999999999999", math.MaxInt64},
	{"negative beyond int64", "-99999999999999999999", 0},
}

func TestParseRetryAfter(t *testing.T) {
	for _, tc := range retryAfterCases {
		t.Run(tc.name, func(t *testing.T) {
			if got := parseRetryAfter(tc.v, retryAfterNow); got != tc.want {
				t.Errorf("parseRetryAfter(%q) = %v, want %v", tc.v, got, tc.want)
			}
		})
	}
}

// FuzzParseRetryAfter: any header value parses without a panic to a wait of
// zero or more, and the wait never falls as delta-seconds grow, across the
// whole uint64 range of a and b.
func FuzzParseRetryAfter(f *testing.F) {
	for _, tc := range retryAfterCases {
		f.Add(tc.v, uint64(7), uint64(9300000000))
	}
	f.Fuzz(func(t *testing.T, v string, a, b uint64) {
		if d := parseRetryAfter(v, retryAfterNow); d < 0 {
			t.Fatalf("parseRetryAfter(%q) = %v, a negative wait", v, d)
		}
		lo, hi := min(a, b), max(a, b)
		dLo := parseRetryAfter(strconv.FormatUint(lo, 10), retryAfterNow)
		dHi := parseRetryAfter(strconv.FormatUint(hi, 10), retryAfterNow)
		if dLo < 0 || dLo > dHi {
			t.Fatalf("Retry-After %d gives %v, %d gives %v", lo, dLo, hi, dHi)
		}
	})
}

// TestSubmitBatchRetryAfterHonorsContext: a 429 asking for an hour-long
// pause must not park the uploader past its context; SubmitBatch returns the
// shed results once the 100 ms deadline passes.
func TestSubmitBatchRetryAfterHonorsContext(t *testing.T) {
	var calls atomic.Int32
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		calls.Add(1)
		w.Header().Set("Retry-After", "3600")
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(http.StatusTooManyRequests)
		_ = json.NewEncoder(w).Encode(batchResponseDTO{Results: []BatchItemResult{{Status: statusShed}}})
	}))
	defer srv.Close()
	c, err := NewClient(srv.URL, srv.Client())
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 100*time.Millisecond)
	defer cancel()
	start := time.Now()
	res, err := c.SubmitBatch(ctx, []BatchItem{{RoadID: "r1", Profile: profileOf(5, []float64{0.01}, 1e-4)}})
	if elapsed := time.Since(start); elapsed > time.Second {
		t.Fatalf("SubmitBatch returned after %v under a 100 ms deadline", elapsed)
	}
	if err != nil || len(res) != 1 || res[0].Status != statusShed {
		t.Errorf("SubmitBatch = %+v, %v; want the one shed result", res, err)
	}
	if n := calls.Load(); n != 1 {
		t.Errorf("server saw %d calls, want 1", n)
	}
}

// TestClientBackoffHonorsContext: the transport-level retry pause returns
// with the context's error once the context is done, even when the backoff
// asks for an hour.
func TestClientBackoffHonorsContext(t *testing.T) {
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		http.Error(w, "down", http.StatusServiceUnavailable)
	}))
	defer srv.Close()
	c, err := NewClient(srv.URL, srv.Client(), WithRetry(4, time.Hour, time.Hour))
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 100*time.Millisecond)
	defer cancel()
	start := time.Now()
	err = c.SubmitProfile(ctx, "r1", profileOf(5, []float64{0.01}, 1e-4))
	if elapsed := time.Since(start); elapsed > time.Second {
		t.Fatalf("SubmitProfile returned after %v under a 100 ms deadline", elapsed)
	}
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Errorf("SubmitProfile error %v, want context.DeadlineExceeded", err)
	}
}
