// Package smoothing implements the signal smoothing used by the lane-change
// detector. The paper (§III-B1) applies local regression [16] to filter
// measuring noise and drift noise out of the steering-rate profile before
// bump features are extracted; this package provides that LOESS smoother
// along with simpler moving-average and exponential filters used elsewhere
// in the pipeline.
package smoothing

import (
	"errors"
	"fmt"
	"math"
	"sort"
)

// ErrBadSpan is returned when a LOESS span yields fewer points than the
// polynomial degree requires.
var ErrBadSpan = errors.New("smoothing: span too small for polynomial degree")

// Loess is a local-regression smoother (Cleveland's LOWESS/LOESS family):
// for every evaluation point it fits a weighted least-squares polynomial to
// the nearest Span fraction of samples, with tricube weights, and returns the
// local fit value.
type Loess struct {
	// Span is the fraction of samples in each local window, in (0, 1].
	Span float64
	// Degree is the local polynomial degree (1 or 2).
	Degree int
}

// NewLoess returns a Loess smoother with validated parameters.
func NewLoess(span float64, degree int) (*Loess, error) {
	if span <= 0 || span > 1 {
		return nil, fmt.Errorf("smoothing: span %v out of range (0,1]", span)
	}
	if degree < 1 || degree > 2 {
		return nil, fmt.Errorf("smoothing: degree %d unsupported (want 1 or 2)", degree)
	}
	return &Loess{Span: span, Degree: degree}, nil
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
	window, err := l.window(n)
	if err != nil {
		return nil, err
	}
	out := make([]float64, n)
	for i := range xs {
		v, err := l.fitAt(xs, ys, xs[i], window)
		if err != nil {
			return nil, fmt.Errorf("smoothing: fit at index %d: %w", i, err)
		}
		out[i] = v
	}
	return out, nil
}

// At evaluates the smoother at an arbitrary x given the sample set.
func (l *Loess) At(xs, ys []float64, x float64) (float64, error) {
	if len(xs) != len(ys) || len(xs) == 0 {
		return 0, errors.New("smoothing: invalid sample set")
	}
	window, err := l.window(len(xs))
	if err != nil {
		return 0, err
	}
	return l.fitAt(xs, ys, x, window)
}

// window returns the local window size over n samples. It also rejects a
// Degree outside NewLoess's range, which a struct literal can set and the
// fixed-size fit cannot hold.
func (l *Loess) window(n int) (int, error) {
	if l.Degree < 1 || l.Degree > maxTerms-1 {
		return 0, fmt.Errorf("smoothing: degree %d unsupported (want 1 or 2)", l.Degree)
	}
	window := int(math.Ceil(l.Span * float64(n)))
	if window < l.Degree+1 {
		return 0, ErrBadSpan
	}
	return min(window, n), nil
}

// maxTerms bounds the local polynomial's coefficient count: Degree ≤ 2.
const maxTerms = 3

// fitAt performs one weighted polynomial fit centred at x over the nearest
// window samples. Its normal equations are at most 3×3, so they live in
// fixed-size arrays and no sample allocates.
func (l *Loess) fitAt(xs, ys []float64, x float64, window int) (float64, error) {
	lo, hi := nearestWindow(xs, x, window)
	// Maximum distance in the window defines the tricube scale.
	maxDist := math.Max(math.Abs(xs[lo]-x), math.Abs(xs[hi-1]-x))
	if maxDist == 0 {
		// All window points coincide with x; return their mean.
		var s float64
		for i := lo; i < hi; i++ {
			s += ys[i]
		}
		return s / float64(hi-lo), nil
	}

	// Weighted normal equations for a degree-d polynomial in (t = xi - x):
	// minimize Σ w_i (y_i - Σ_k c_k t^k)^2. The smoothed value is c_0.
	p := l.Degree + 1
	var ata [maxTerms][maxTerms]float64
	var atb, basis [maxTerms]float64
	for i := lo; i < hi; i++ {
		t := xs[i] - x
		w := tricube(math.Abs(t) / maxDist)
		if w == 0 {
			continue
		}
		basis[0] = 1
		for k := 1; k < p; k++ {
			basis[k] = basis[k-1] * t
		}
		for r := 0; r < p; r++ {
			atb[r] += w * basis[r] * ys[i]
			for c := 0; c < p; c++ {
				ata[r][c] += w * basis[r] * basis[c]
			}
		}
	}
	c0, ok := solveFirst(ata, atb, p)
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
			return ys[(lo+hi)/2], nil
		}
		return swy / sw, nil
	}
	return c0, nil
}

// solveFirst solves the n×n system a·c = b (n ≤ maxTerms) by LU
// factorization with partial pivoting and returns c_0, or false if a is
// singular to working precision. It performs mat.SolveVec's factorization
// and substitutions step for step, so c_0 is bit-identical to the generic
// solver's.
func solveFirst(a [maxTerms][maxTerms]float64, b [maxTerms]float64, n int) (float64, bool) {
	var perm [maxTerms]int
	for i := range perm {
		perm[i] = i
	}
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
	var x [maxTerms]float64
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

// Exponential applies a first-order IIR low-pass y'_i = α y_i + (1-α) y'_{i-1}.
// α must be in (0, 1]; α = 1 returns the input unchanged.
func Exponential(ys []float64, alpha float64) ([]float64, error) {
	if alpha <= 0 || alpha > 1 {
		return nil, fmt.Errorf("smoothing: alpha %v out of range (0,1]", alpha)
	}
	out := make([]float64, len(ys))
	if len(ys) == 0 {
		return out, nil
	}
	out[0] = ys[0]
	for i := 1; i < len(ys); i++ {
		out[i] = alpha*ys[i] + (1-alpha)*out[i-1]
	}
	return out, nil
}
