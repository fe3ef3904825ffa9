// Package smoothing implements the signal smoothing used by the lane-change
// detector. The paper (§III-B1) applies local regression [16] to filter
// measuring noise and drift noise out of the steering-rate profile before
// bump features are extracted; this package provides that LOESS smoother
// along with a simpler moving average used elsewhere in the pipeline.
package smoothing

import (
	"errors"
	"fmt"
	"math"
	"sort"
)

// ErrBadSpan is returned when a LOESS span yields fewer than the three
// points a local quadratic needs.
var ErrBadSpan = errors.New("smoothing: span too small for polynomial degree")

// Loess is a local-regression smoother (Cleveland's LOESS): for every
// evaluation point it fits a weighted least-squares quadratic to the nearest
// Span fraction of samples, with tricube weights, and returns the local fit
// value.
type Loess struct {
	// Span is the fraction of samples in each local window, in (0, 1].
	Span float64
}

// NewLoess returns a Loess smoother with a validated span.
func NewLoess(span float64) (*Loess, error) {
	if span <= 0 || span > 1 {
		return nil, fmt.Errorf("smoothing: span %v out of range (0,1]", span)
	}
	return &Loess{Span: span}, nil
}

// Smooth fits the smoother at every sample location and returns the smoothed
// series. xs must be strictly increasing and the slices must be equal length.
func (l *Loess) Smooth(xs, ys []float64) ([]float64, error) {
	if len(xs) != len(ys) {
		return nil, fmt.Errorf("smoothing: length mismatch %d vs %d", len(xs), len(ys))
	}
	if len(xs) == 0 {
		return nil, errors.New("smoothing: empty input")
	}
	for i := 1; i < len(xs); i++ {
		if xs[i] <= xs[i-1] {
			return nil, fmt.Errorf("smoothing: xs not strictly increasing at %d", i)
		}
	}
	n := len(xs)
	window := int(math.Ceil(l.Span * float64(n)))
	if window < 3 {
		return nil, ErrBadSpan
	}
	window = min(window, n)
	out := make([]float64, n)
	for i := range xs {
		out[i], _ = fitAt(xs, ys, xs[i], window)
	}
	return out, nil
}

// fitPath names how fitAt found its value.
type fitPath string

const (
	pathFit      fitPath = "fit"      // the normal equations were solved
	pathFallback fitPath = "fallback" // they were singular; the weighted mean answered
	pathMean     fitPath = "mean"     // every window sample sits at x; their mean answered
)

// fitAt performs one weighted quadratic fit centred at x over the nearest
// window samples and reports which path answered. The normal equations'
// nine entries and three right-hand terms are scalars, so no sample touches
// memory beyond its x and y.
func fitAt(xs, ys []float64, x float64, window int) (float64, fitPath) {
	lo, hi := nearestWindow(xs, x, window)
	// Maximum distance in the window defines the tricube scale.
	maxDist := math.Max(math.Abs(xs[lo]-x), math.Abs(xs[hi-1]-x))
	if maxDist == 0 {
		// All window points coincide with x; return their mean.
		var s float64
		for i := lo; i < hi; i++ {
			s += ys[i]
		}
		return s / float64(hi-lo), pathMean
	}

	// Weighted normal equations for c_0 + c_1·t + c_2·t² in t = xi − x:
	// minimize Σ w_i (y_i − Σ_k c_k t^k)². The smoothed value is c_0. Each
	// entry sums (w·basis[r])·basis[c] over the basis 1, t, t², as the
	// generic fit formed it; w·1 is w exactly. Mirror entries are summed on
	// their own, not copied: (w·t)·t² and (w·t²)·t round differently, and
	// so do (w·t)·t and w·t².
	var a00, a01, a02, a10, a11, a12, a20, a21, a22, b0, b1, b2 float64
	for i := lo; i < hi; i++ {
		t := xs[i] - x
		w := tricube(math.Abs(t) / maxDist)
		if w == 0 {
			continue
		}
		t2 := t * t
		wt, wt2, y := w*t, w*t2, ys[i]
		a00 += w
		a01 += wt
		a02 += wt2
		a10 += wt
		a11 += wt * t
		a12 += wt * t2
		a20 += wt2
		a21 += wt2 * t
		a22 += wt2 * t2
		b0 += w * y
		b1 += wt * y
		b2 += wt2 * y
	}
	c0, ok := solveFirst([3][3]float64{{a00, a01, a02}, {a10, a11, a12}, {a20, a21, a22}}, [3]float64{b0, b1, b2})
	if !ok {
		// Degenerate window (e.g. duplicate weights concentrated at edges):
		// fall back to the weighted mean, which is always defined.
		var sw, swy float64
		for i := lo; i < hi; i++ {
			w := tricube(math.Abs(xs[i]-x) / maxDist)
			sw += w
			swy += w * ys[i]
		}
		if sw == 0 {
			return ys[(lo+hi)/2], pathFallback
		}
		return swy / sw, pathFallback
	}
	return c0, pathFit
}

// solveFirst solves the 3×3 system a·c = b by LU factorization with partial
// pivoting and returns c_0, or false if a is singular to working precision.
// It performs mat.SolveVec's factorization and substitutions step for step,
// so c_0 is bit-identical to the generic solver's.
func solveFirst(a [3][3]float64, b [3]float64) (float64, bool) {
	const n = 3
	perm := [n]int{0, 1, 2}
	for k := 0; k < n; k++ {
		// Partial pivot: largest magnitude in column k at/below the diagonal.
		p, big := k, math.Abs(a[k][k])
		for i := k + 1; i < n; i++ {
			if v := math.Abs(a[i][k]); v > big {
				p, big = i, v
			}
		}
		if big == 0 || math.IsNaN(big) {
			return 0, false
		}
		if p != k {
			a[k], a[p] = a[p], a[k]
			perm[k], perm[p] = perm[p], perm[k]
		}
		piv := a[k][k]
		for i := k + 1; i < n; i++ {
			l := a[i][k] / piv
			a[i][k] = l
			for j := k + 1; j < n; j++ {
				a[i][j] -= l * a[k][j]
			}
		}
	}
	var x [n]float64
	for i := 0; i < n; i++ {
		x[i] = b[perm[i]]
	}
	// Forward substitution (unit lower), then back substitution.
	for i := 1; i < n; i++ {
		for j := 0; j < i; j++ {
			x[i] -= a[i][j] * x[j]
		}
	}
	for i := n - 1; i >= 0; i-- {
		for j := i + 1; j < n; j++ {
			x[i] -= a[i][j] * x[j]
		}
		x[i] /= a[i][i]
	}
	return x[0], true
}

// nearestWindow returns [lo, hi) bounds of the `window` samples nearest to x.
func nearestWindow(xs []float64, x float64, window int) (int, int) {
	n := len(xs)
	if window >= n {
		return 0, n
	}
	// Start at the insertion point and expand toward the nearer side.
	pos := sort.SearchFloat64s(xs, x)
	lo, hi := pos, pos
	for hi-lo < window {
		switch {
		case lo == 0:
			hi++
		case hi == n:
			lo--
		case x-xs[lo-1] <= xs[hi]-x:
			lo--
		default:
			hi++
		}
	}
	return lo, hi
}

// tricube is the standard LOESS kernel (1 - u^3)^3 for u in [0, 1].
func tricube(u float64) float64 {
	if u >= 1 {
		return 0
	}
	c := 1 - u*u*u
	return c * c * c
}

// MovingAverage smooths ys with a centred window of the given half-width
// (window = 2*halfWidth + 1), shrinking the window at the edges.
func MovingAverage(ys []float64, halfWidth int) []float64 {
	if halfWidth <= 0 {
		return append([]float64(nil), ys...)
	}
	out := make([]float64, len(ys))
	for i := range ys {
		lo := i - halfWidth
		if lo < 0 {
			lo = 0
		}
		hi := i + halfWidth + 1
		if hi > len(ys) {
			hi = len(ys)
		}
		var s float64
		for j := lo; j < hi; j++ {
			s += ys[j]
		}
		out[i] = s / float64(hi-lo)
	}
	return out
}
