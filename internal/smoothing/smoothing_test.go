package smoothing

import (
	"errors"
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"roadgrade/internal/mat"
)

func linspace(lo, hi float64, n int) []float64 {
	out := make([]float64, n)
	for i := range out {
		out[i] = lo + (hi-lo)*float64(i)/float64(n-1)
	}
	return out
}

func TestNewLoessValidation(t *testing.T) {
	tests := []struct {
		name   string
		span   float64
		degree int
		ok     bool
	}{
		{"valid-1", 0.3, 1, true},
		{"valid-2", 1.0, 2, true},
		{"zero-span", 0, 1, false},
		{"big-span", 1.5, 1, false},
		{"degree-0", 0.5, 0, false},
		{"degree-3", 0.5, 3, false},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			_, err := NewLoess(tt.span, tt.degree)
			if (err == nil) != tt.ok {
				t.Errorf("NewLoess(%v,%d) err = %v, ok=%v", tt.span, tt.degree, err, tt.ok)
			}
		})
	}
}

// LOESS with a degree-d local polynomial must reproduce any global polynomial
// of degree <= d exactly (up to numerical error), regardless of span.
func TestLoessReproducesPolynomials(t *testing.T) {
	xs := linspace(0, 10, 101)
	tests := []struct {
		name   string
		degree int
		f      func(x float64) float64
	}{
		{"line-deg1", 1, func(x float64) float64 { return 2*x - 3 }},
		{"line-deg2", 2, func(x float64) float64 { return -x + 7 }},
		{"quad-deg2", 2, func(x float64) float64 { return 0.5*x*x - x + 1 }},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			ys := make([]float64, len(xs))
			for i, x := range xs {
				ys[i] = tt.f(x)
			}
			l, err := NewLoess(0.3, tt.degree)
			if err != nil {
				t.Fatal(err)
			}
			sm, err := l.Smooth(xs, ys)
			if err != nil {
				t.Fatal(err)
			}
			for i := range sm {
				if math.Abs(sm[i]-ys[i]) > 1e-8 {
					t.Fatalf("at x=%v: smoothed %v, want %v", xs[i], sm[i], ys[i])
				}
			}
		})
	}
}

func TestLoessReducesNoise(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	xs := linspace(0, 2*math.Pi, 200)
	clean := make([]float64, len(xs))
	noisy := make([]float64, len(xs))
	for i, x := range xs {
		clean[i] = math.Sin(x)
		noisy[i] = clean[i] + rng.NormFloat64()*0.2
	}
	l, _ := NewLoess(0.15, 2)
	sm, err := l.Smooth(xs, noisy)
	if err != nil {
		t.Fatal(err)
	}
	var rawErr, smErr float64
	for i := range xs {
		rawErr += math.Abs(noisy[i] - clean[i])
		smErr += math.Abs(sm[i] - clean[i])
	}
	if smErr >= rawErr*0.5 {
		t.Errorf("smoothing did not reduce noise enough: raw %v vs smoothed %v", rawErr, smErr)
	}
}

func TestLoessErrors(t *testing.T) {
	l, _ := NewLoess(0.5, 2)
	if _, err := l.Smooth([]float64{1, 2}, []float64{1}); err == nil {
		t.Error("length mismatch should error")
	}
	if _, err := l.Smooth(nil, nil); err == nil {
		t.Error("empty input should error")
	}
	if _, err := l.Smooth([]float64{1, 1, 2}, []float64{1, 2, 3}); err == nil {
		t.Error("non-increasing xs should error")
	}
	// Window smaller than degree+1.
	tiny, _ := NewLoess(0.1, 2)
	if _, err := tiny.Smooth([]float64{1, 2}, []float64{1, 2}); !errors.Is(err, ErrBadSpan) {
		t.Errorf("want ErrBadSpan, got %v", err)
	}
	// A struct literal can set a degree NewLoess rejects.
	for _, degree := range []int{0, 3} {
		l := &Loess{Span: 0.5, Degree: degree}
		if _, err := l.Smooth([]float64{1, 2, 3, 4, 5}, []float64{1, 2, 3, 4, 5}); err == nil {
			t.Errorf("degree %d: Smooth should error", degree)
		}
	}
}

func TestNearestWindow(t *testing.T) {
	xs := []float64{0, 1, 2, 3, 4, 5}
	tests := []struct {
		x      float64
		window int
		lo, hi int
	}{
		{0, 3, 0, 3},
		{5, 3, 3, 6},
		{2.4, 3, 1, 4},
		{2.6, 3, 2, 5},
		{9, 2, 4, 6},
		{-2, 2, 0, 2},
		{3, 10, 0, 6},
	}
	for _, tt := range tests {
		lo, hi := nearestWindow(xs, tt.x, tt.window)
		if lo != tt.lo || hi != tt.hi {
			t.Errorf("nearestWindow(%v, %d) = [%d,%d), want [%d,%d)", tt.x, tt.window, lo, hi, tt.lo, tt.hi)
		}
	}
}

func TestTricube(t *testing.T) {
	if tricube(0) != 1 {
		t.Error("tricube(0) != 1")
	}
	if tricube(1) != 0 || tricube(2) != 0 {
		t.Error("tricube >= 1 should be 0")
	}
	if tricube(0.5) <= 0 || tricube(0.5) >= 1 {
		t.Error("tricube(0.5) out of (0,1)")
	}
}

func TestMovingAverage(t *testing.T) {
	ys := []float64{1, 2, 3, 4, 5}
	got := MovingAverage(ys, 1)
	want := []float64{1.5, 2, 3, 4, 4.5}
	for i := range want {
		if math.Abs(got[i]-want[i]) > 1e-12 {
			t.Errorf("MovingAverage[%d] = %v, want %v", i, got[i], want[i])
		}
	}
	same := MovingAverage(ys, 0)
	for i := range ys {
		if same[i] != ys[i] {
			t.Error("halfWidth 0 should be identity")
		}
	}
	same[0] = 99
	if ys[0] != 1 {
		t.Error("MovingAverage with halfWidth 0 aliases input")
	}
}

// Property: smoothed output is bounded by the input envelope for degree 1
// (a weighted-average-like property; degree-1 local fits can overshoot only
// slightly at the edges, so allow a small margin).
func TestLoessBoundedProperty(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := 10 + r.Intn(60)
		xs := make([]float64, n)
		ys := make([]float64, n)
		for i := range xs {
			xs[i] = float64(i) + r.Float64()*0.5
			ys[i] = r.NormFloat64()
		}
		l, err := NewLoess(0.5, 1)
		if err != nil {
			return false
		}
		sm, err := l.Smooth(xs, ys)
		if err != nil {
			return false
		}
		var lo, hi float64 = ys[0], ys[0]
		for _, y := range ys {
			lo = math.Min(lo, y)
			hi = math.Max(hi, y)
		}
		margin := (hi - lo) * 0.5
		for _, y := range sm {
			if y < lo-margin || y > hi+margin {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

func BenchmarkLoessSmooth(b *testing.B) {
	rng := rand.New(rand.NewSource(5))
	xs := linspace(0, 100, 500)
	ys := make([]float64, len(xs))
	for i := range ys {
		ys[i] = math.Sin(xs[i]/5) + rng.NormFloat64()*0.1
	}
	l, _ := NewLoess(0.1, 2)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := l.Smooth(xs, ys); err != nil {
			b.Fatal(err)
		}
	}
}

// fitAtReference is the generic-matrix fit Loess.fitAt replaced, kept as its
// reference: the same normal equations in a mat.Matrix, solved by
// mat.SolveVec. path names how v was found: "mean" for a window coincident
// with x, "fallback" when the solve failed and the weighted mean answered,
// else "fit".
func fitAtReference(l *Loess, xs, ys []float64, x float64, window int) (v float64, path string) {
	lo, hi := nearestWindow(xs, x, window)
	maxDist := math.Max(math.Abs(xs[lo]-x), math.Abs(xs[hi-1]-x))
	if maxDist == 0 {
		var s float64
		for i := lo; i < hi; i++ {
			s += ys[i]
		}
		return s / float64(hi-lo), "mean"
	}
	p := l.Degree + 1
	ata := mat.New(p, p)
	atb := make([]float64, p)
	basis := make([]float64, p)
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
				ata.Add(r, c, w*basis[r]*basis[c])
			}
		}
	}
	coef, err := mat.SolveVec(ata, atb)
	if err != nil {
		var sw, swy float64
		for i := lo; i < hi; i++ {
			w := tricube(math.Abs(xs[i]-x) / maxDist)
			sw += w
			swy += w * ys[i]
		}
		if sw == 0 {
			return ys[(lo+hi)/2], "fallback"
		}
		return swy / sw, "fallback"
	}
	return coef[0], "fit"
}

// TestLoessMatchesReference compares the fixed-size fit with the generic
// one by Float64bits, for both degrees and every window size down to the
// minimum, where the window's edge sample gets zero weight, the normal
// equations are singular and the weighted-mean fallback answers. Evaluation
// points include the samples, points between them and points beyond both
// ends; duplicate abscissae reach the coincident-window mean.
func TestLoessMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	n := 40
	xs := make([]float64, n)
	ys := make([]float64, n)
	for i := range xs {
		xs[i] = float64(i) + rng.Float64()*0.9
		ys[i] = math.Sin(xs[i]/4) + rng.NormFloat64()*0.2
	}
	var at []float64
	for i, x := range xs {
		at = append(at, x, x+0.5*rng.Float64())
		if i == 0 {
			at = append(at, x-3)
		}
	}
	at = append(at, xs[n-1]+3)
	dup := []float64{1, 2, 2, 2, 3}
	dupY := []float64{0.5, 1, 2, 4, 8}

	paths := map[string]int{}
	check := func(l *Loess, xs, ys []float64, x float64, window int) {
		t.Helper()
		got, err := l.fitAt(xs, ys, x, window)
		if err != nil {
			t.Fatalf("degree %d window %d at %v: %v", l.Degree, window, x, err)
		}
		want, path := fitAtReference(l, xs, ys, x, window)
		if math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("degree %d window %d at %v: %v (%#x), reference %v (%#x)",
				l.Degree, window, x, got, math.Float64bits(got), want, math.Float64bits(want))
		}
		paths[path]++
	}
	for _, degree := range []int{1, 2} {
		l := &Loess{Span: 1, Degree: degree}
		for window := degree + 1; window <= n; window++ {
			for _, x := range at {
				check(l, xs, ys, x, window)
			}
		}
		for window := degree + 1; window <= len(dup); window++ {
			check(l, dup, dupY, 2, window)
		}
		// A one-sample window at a sample is the coincident mean.
		check(l, xs, ys, xs[n/2], 1)
	}
	t.Logf("fits by path: %v", paths)
	if paths["fit"] == 0 || paths["fallback"] == 0 || paths["mean"] == 0 {
		t.Errorf("fits by path %v; the solve, its fallback and the coincident mean must all be exercised", paths)
	}
}
