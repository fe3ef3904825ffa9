package obs

import (
	"math"
	"strings"
	"sync"
	"testing"
)

// TestRegistryRace hammers counters and histograms from many
// goroutines while concurrently rendering the registry; run under -race this
// is the concurrency-safety proof for the whole toolkit.
func TestRegistryRace(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("race_counter_total")
	h := r.Histogram("race_hist", []float64{1, 2, 4, 8})

	const workers = 8
	const iters = 2000
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				c.Inc()
				h.Observe(float64(i % 10))
				// Get-or-create from multiple goroutines too.
				r.Counter("race_counter_total").Add(1)
				if i%500 == 0 {
					var sb strings.Builder
					if err := r.WritePrometheus(&sb); err != nil {
						t.Errorf("WritePrometheus: %v", err)
						return
					}
				}
			}
		}(w)
	}
	wg.Wait()

	if got := c.Value(); got != workers*iters*2 {
		t.Errorf("counter = %d, want %d", got, workers*iters*2)
	}
	if got := h.Count(); got != workers*iters {
		t.Errorf("histogram count = %d, want %d", got, workers*iters)
	}
}

// TestHistogramQuantile checks quantile estimates against a known uniform
// distribution: values 1..1000 into decade-ish buckets.
func TestHistogramQuantile(t *testing.T) {
	h := newHistogram([]float64{100, 200, 300, 400, 500, 600, 700, 800, 900, 1000})
	for i := 1; i <= 1000; i++ {
		h.Observe(float64(i))
	}
	cases := []struct {
		q, want float64
	}{
		{0.5, 500},
		{0.9, 900},
		{0.99, 990},
		{0.1, 100},
	}
	for _, c := range cases {
		got := h.Quantile(c.q)
		// Linear interpolation inside 100-wide buckets of a uniform
		// distribution is near-exact; allow a half-percent.
		if math.Abs(got-c.want) > c.want*0.005+1 {
			t.Errorf("Quantile(%v) = %v, want ≈ %v", c.q, got, c.want)
		}
	}
	if got := h.Sum(); got != 500500 {
		t.Errorf("Sum = %v, want 500500", got)
	}
}

func TestHistogramQuantileEdge(t *testing.T) {
	h := newHistogram([]float64{1, 2})
	if !math.IsNaN(h.Quantile(0.5)) {
		t.Error("empty histogram quantile should be NaN")
	}
	h.Observe(5) // lands in +Inf bucket
	if got := h.Quantile(0.99); got != 2 {
		t.Errorf("overflow-only quantile = %v, want clamp to 2", got)
	}
	if !math.IsNaN(h.Quantile(0)) || !math.IsNaN(h.Quantile(1.5)) {
		t.Error("out-of-range q should be NaN")
	}
}

// TestWritePrometheusGolden pins the exact exposition text for a small
// registry: TYPE lines once per family, sorted series, histogram with
// cumulative buckets, le label last, and escaped label values.
func TestWritePrometheusGolden(t *testing.T) {
	r := NewRegistry()
	r.Counter("requests_total", L("route", "submit"), L("status", "202")).Add(3)
	r.Counter("requests_total", L("route", "list"), L("status", "200")).Inc()
	r.GaugeFunc("queue_depth", func() float64 { return 2.5 })
	h := r.Histogram("latency_seconds", []float64{0.1, 1}, L("route", "submit"))
	h.Observe(0.05)
	h.Observe(0.05)
	h.Observe(0.5)
	h.Observe(3)
	r.Counter("weird_total", L("path", `a\b"c`)).Inc()

	var sb strings.Builder
	if err := r.WritePrometheus(&sb); err != nil {
		t.Fatalf("WritePrometheus: %v", err)
	}
	want := `# TYPE latency_seconds histogram
latency_seconds_bucket{route="submit",le="0.1"} 2
latency_seconds_bucket{route="submit",le="1"} 3
latency_seconds_bucket{route="submit",le="+Inf"} 4
latency_seconds_sum{route="submit"} 3.6
latency_seconds_count{route="submit"} 4
# TYPE queue_depth gauge
queue_depth 2.5
# TYPE requests_total counter
requests_total{route="list",status="200"} 1
requests_total{route="submit",status="202"} 3
# TYPE weird_total counter
weird_total{path="a\\b\"c"} 1
`
	if sb.String() != want {
		t.Errorf("exposition mismatch:\ngot:\n%s\nwant:\n%s", sb.String(), want)
	}
}

func TestKindMismatchPanics(t *testing.T) {
	r := NewRegistry()
	r.Counter("x_total")
	defer func() {
		if recover() == nil {
			t.Error("re-registering a counter as a gauge should panic")
		}
	}()
	r.GaugeFunc("x_total", func() float64 { return 0 })
}

func TestGaugeFunc(t *testing.T) {
	r := NewRegistry()
	v := 1.0
	r.GaugeFunc("fn_gauge", func() float64 { return v })
	var sb strings.Builder
	if err := r.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), "fn_gauge 1\n") {
		t.Errorf("missing fn_gauge: %q", sb.String())
	}
	v = 7
	sb.Reset()
	if err := r.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), "fn_gauge 7\n") {
		t.Errorf("gauge func not re-evaluated: %q", sb.String())
	}
}

func TestHistogramFirstRegistrationWins(t *testing.T) {
	r := NewRegistry()
	h1 := r.Histogram("h", []float64{1, 2, 3})
	h2 := r.Histogram("h", []float64{9})
	if h1 != h2 {
		t.Error("same series should return the same histogram")
	}
	if len(h1.bounds) != 3 {
		t.Errorf("bounds = %v, want first registration's", h1.bounds)
	}
}
