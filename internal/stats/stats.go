// Package stats provides the summary statistics and empirical distributions
// used by the evaluation harness: mean/median/percentiles and empirical CDFs
// for the Figure 8(b)/9(b) comparisons.
package stats

import (
	"errors"
	"fmt"
	"math"
	"sort"
)

// ErrEmpty is returned when a statistic is requested over no samples.
var ErrEmpty = errors.New("stats: empty sample set")

// Mean returns the arithmetic mean of xs, or 0 for an empty slice.
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// Variance returns the unbiased sample variance of xs (0 when len < 2).
func Variance(xs []float64) float64 {
	if len(xs) < 2 {
		return 0
	}
	m := Mean(xs)
	var s float64
	for _, x := range xs {
		d := x - m
		s += d * d
	}
	return s / float64(len(xs)-1)
}

// StdDev returns the sample standard deviation of xs.
func StdDev(xs []float64) float64 { return math.Sqrt(Variance(xs)) }

// Min returns the minimum of xs.
func Min(xs []float64) (float64, error) {
	if len(xs) == 0 {
		return 0, ErrEmpty
	}
	m := xs[0]
	for _, x := range xs[1:] {
		if x < m {
			m = x
		}
	}
	return m, nil
}

// Max returns the maximum of xs.
func Max(xs []float64) (float64, error) {
	if len(xs) == 0 {
		return 0, ErrEmpty
	}
	m := xs[0]
	for _, x := range xs[1:] {
		if x > m {
			m = x
		}
	}
	return m, nil
}

// Percentile returns the p-th percentile (p in [0, 100]) of xs using linear
// interpolation between order statistics.
func Percentile(xs []float64, p float64) (float64, error) {
	if len(xs) == 0 {
		return 0, ErrEmpty
	}
	if p < 0 || p > 100 {
		return 0, fmt.Errorf("stats: percentile %v out of range [0,100]", p)
	}
	sorted := append([]float64(nil), xs...)
	sort.Float64s(sorted)
	if len(sorted) == 1 {
		return sorted[0], nil
	}
	rank := p / 100 * float64(len(sorted)-1)
	lo := int(math.Floor(rank))
	hi := int(math.Ceil(rank))
	if lo == hi {
		return sorted[lo], nil
	}
	frac := rank - float64(lo)
	return sorted[lo]*(1-frac) + sorted[hi]*frac, nil
}

// Median returns the 50th percentile of xs.
func Median(xs []float64) (float64, error) { return Percentile(xs, 50) }

// CDF is an empirical cumulative distribution function over a sample set.
type CDF struct {
	sorted []float64
}

// NewCDF builds an empirical CDF from samples. The input is copied.
func NewCDF(samples []float64) (*CDF, error) {
	if len(samples) == 0 {
		return nil, ErrEmpty
	}
	sorted := append([]float64(nil), samples...)
	sort.Float64s(sorted)
	return &CDF{sorted: sorted}, nil
}

// At returns P(X <= x).
func (c *CDF) At(x float64) float64 {
	// Index of first element > x.
	idx := sort.Search(len(c.sorted), func(i int) bool { return c.sorted[i] > x })
	return float64(idx) / float64(len(c.sorted))
}

// Quantile returns the smallest sample value v with At(v) >= q, for
// q in (0, 1]. It answers questions like "the absolute estimation error at
// y=0.5 in the CDF figure".
func (c *CDF) Quantile(q float64) (float64, error) {
	if q <= 0 || q > 1 {
		return 0, fmt.Errorf("stats: quantile %v out of range (0,1]", q)
	}
	idx := int(math.Ceil(q*float64(len(c.sorted)))) - 1
	if idx < 0 {
		idx = 0
	}
	return c.sorted[idx], nil
}

// Summary bundles the descriptive statistics most experiments report.
type Summary struct {
	N      int
	Mean   float64
	StdDev float64
	Min    float64
	Median float64
	P90    float64
	Max    float64
}

// Summarize computes a Summary of xs.
func Summarize(xs []float64) (Summary, error) {
	if len(xs) == 0 {
		return Summary{}, ErrEmpty
	}
	min, _ := Min(xs)
	max, _ := Max(xs)
	med, _ := Median(xs)
	p90, _ := Percentile(xs, 90)
	return Summary{
		N:      len(xs),
		Mean:   Mean(xs),
		StdDev: StdDev(xs),
		Min:    min,
		Median: med,
		P90:    p90,
		Max:    max,
	}, nil
}
