package stats

import (
	"errors"
	"math"
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
)

func TestMean(t *testing.T) {
	tests := []struct {
		name string
		xs   []float64
		want float64
	}{
		{"empty", nil, 0},
		{"single", []float64{3}, 3},
		{"several", []float64{1, 2, 3, 4}, 2.5},
		{"negatives", []float64{-1, 1}, 0},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if got := Mean(tt.xs); got != tt.want {
				t.Errorf("Mean = %v, want %v", got, tt.want)
			}
		})
	}
}

func TestVarianceStdDev(t *testing.T) {
	xs := []float64{2, 4, 4, 4, 5, 5, 7, 9}
	// Sample variance with n-1 = 32/7.
	want := 32.0 / 7.0
	if got := Variance(xs); math.Abs(got-want) > 1e-12 {
		t.Errorf("Variance = %v, want %v", got, want)
	}
	if got := StdDev(xs); math.Abs(got-math.Sqrt(want)) > 1e-12 {
		t.Errorf("StdDev = %v", got)
	}
	if got := Variance([]float64{5}); got != 0 {
		t.Errorf("Variance single = %v, want 0", got)
	}
}

func TestMinMax(t *testing.T) {
	if _, err := Min(nil); !errors.Is(err, ErrEmpty) {
		t.Error("Min(nil) should return ErrEmpty")
	}
	if _, err := Max(nil); !errors.Is(err, ErrEmpty) {
		t.Error("Max(nil) should return ErrEmpty")
	}
	xs := []float64{3, -1, 4, 1}
	if got, _ := Min(xs); got != -1 {
		t.Errorf("Min = %v", got)
	}
	if got, _ := Max(xs); got != 4 {
		t.Errorf("Max = %v", got)
	}
}

func TestPercentile(t *testing.T) {
	xs := []float64{1, 2, 3, 4, 5}
	tests := []struct {
		p    float64
		want float64
	}{
		{0, 1}, {25, 2}, {50, 3}, {75, 4}, {100, 5}, {10, 1.4},
	}
	for _, tt := range tests {
		got, err := Percentile(xs, tt.p)
		if err != nil {
			t.Fatalf("Percentile(%v): %v", tt.p, err)
		}
		if math.Abs(got-tt.want) > 1e-12 {
			t.Errorf("Percentile(%v) = %v, want %v", tt.p, got, tt.want)
		}
	}
	if _, err := Percentile(xs, 101); err == nil {
		t.Error("Percentile(101) should error")
	}
	if _, err := Percentile(nil, 50); !errors.Is(err, ErrEmpty) {
		t.Error("Percentile(nil) should return ErrEmpty")
	}
	if got, _ := Percentile([]float64{7}, 99); got != 7 {
		t.Errorf("Percentile single = %v", got)
	}
}

func TestCDF(t *testing.T) {
	c, err := NewCDF([]float64{1, 2, 3, 4})
	if err != nil {
		t.Fatal(err)
	}
	tests := []struct {
		x    float64
		want float64
	}{
		{0.5, 0}, {1, 0.25}, {2.5, 0.5}, {4, 1}, {9, 1},
	}
	for _, tt := range tests {
		if got := c.At(tt.x); got != tt.want {
			t.Errorf("At(%v) = %v, want %v", tt.x, got, tt.want)
		}
	}
	if q, _ := c.Quantile(0.5); q != 2 {
		t.Errorf("Quantile(0.5) = %v, want 2", q)
	}
	if q, _ := c.Quantile(1); q != 4 {
		t.Errorf("Quantile(1) = %v, want 4", q)
	}
	if _, err := c.Quantile(0); err == nil {
		t.Error("Quantile(0) should error")
	}
	if _, err := NewCDF(nil); !errors.Is(err, ErrEmpty) {
		t.Error("NewCDF(nil) should return ErrEmpty")
	}
}

// Property: CDF is monotone nondecreasing and bounded in [0, 1].
func TestCDFMonotoneProperty(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := 1 + r.Intn(50)
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = r.NormFloat64() * 10
		}
		c, err := NewCDF(xs)
		if err != nil {
			return false
		}
		probe := make([]float64, 20)
		for i := range probe {
			probe[i] = r.NormFloat64() * 20
		}
		sort.Float64s(probe)
		prev := 0.0
		for _, x := range probe {
			y := c.At(x)
			if y < prev || y < 0 || y > 1 {
				return false
			}
			prev = y
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

// Property: Quantile and At are near-inverse: At(Quantile(q)) >= q.
func TestQuantileInverseProperty(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := 1 + r.Intn(40)
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = r.Float64() * 100
		}
		c, err := NewCDF(xs)
		if err != nil {
			return false
		}
		for _, q := range []float64{0.1, 0.25, 0.5, 0.9, 1} {
			v, err := c.Quantile(q)
			if err != nil {
				return false
			}
			if c.At(v) < q-1e-12 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func TestSummarize(t *testing.T) {
	s, err := Summarize([]float64{1, 2, 3, 4, 5})
	if err != nil {
		t.Fatal(err)
	}
	if s.N != 5 || s.Mean != 3 || s.Min != 1 || s.Max != 5 || s.Median != 3 {
		t.Errorf("Summarize = %+v", s)
	}
	if _, err := Summarize(nil); !errors.Is(err, ErrEmpty) {
		t.Error("Summarize(nil) should return ErrEmpty")
	}
}

func BenchmarkCDFAt(b *testing.B) {
	r := rand.New(rand.NewSource(1))
	xs := make([]float64, 10000)
	for i := range xs {
		xs[i] = r.NormFloat64()
	}
	c, _ := NewCDF(xs)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		c.At(0.5)
	}
}
