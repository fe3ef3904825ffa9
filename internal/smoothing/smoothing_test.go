package smoothing

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
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
		name string
		span float64
		ok   bool
	}{
		{"valid-1", 0.3, true},
		{"valid-2", 1.0, true},
		{"zero-span", 0, false},
		{"big-span", 1.5, false},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			_, err := NewLoess(tt.span)
			if (err == nil) != tt.ok {
				t.Errorf("NewLoess(%v) err = %v, ok=%v", tt.span, err, tt.ok)
			}
		})
	}
}

// LOESS with a local quadratic must reproduce any global polynomial of
// degree <= 2 exactly (up to numerical error), regardless of span.
func TestLoessReproducesPolynomials(t *testing.T) {
	xs := linspace(0, 10, 101)
	tests := []struct {
		name string
		f    func(x float64) float64
	}{
		{"line-deg2", func(x float64) float64 { return -x + 7 }},
		{"quad-deg2", func(x float64) float64 { return 0.5*x*x - x + 1 }},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			ys := make([]float64, len(xs))
			for i, x := range xs {
				ys[i] = tt.f(x)
			}
			l, err := NewLoess(0.3)
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
	l, _ := NewLoess(0.15)
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
	l, _ := NewLoess(0.5)
	if _, err := l.Smooth([]float64{1, 2}, []float64{1}); err == nil {
		t.Error("length mismatch should error")
	}
	if _, err := l.Smooth(nil, nil); err == nil {
		t.Error("empty input should error")
	}
	if _, err := l.Smooth([]float64{1, 1, 2}, []float64{1, 2, 3}); err == nil {
		t.Error("non-increasing xs should error")
	}
	// A window of fewer than the quadratic's three points.
	tiny, _ := NewLoess(0.1)
	if _, err := tiny.Smooth([]float64{1, 2}, []float64{1, 2}); !errors.Is(err, ErrBadSpan) {
		t.Errorf("want ErrBadSpan, got %v", err)
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

// Property: smoothed output stays near the input envelope. Local quadratic
// fits overshoot at the edges: over 50,000 seeded inputs of this shape the
// worst overshoot was 0.14 of the range, inside the margin of half of it.
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
		l, err := NewLoess(0.5)
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
	l, _ := NewLoess(0.1)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := l.Smooth(xs, ys); err != nil {
			b.Fatal(err)
		}
	}
}

// fitAtReference is the generic-matrix fit fitAt replaced, kept as its
// reference: the same normal equations in a mat.Matrix, solved by
// mat.SolveVec, reporting the path that answered as fitAt does.
func fitAtReference(xs, ys []float64, x float64, window int) (v float64, path fitPath) {
	lo, hi := nearestWindow(xs, x, window)
	maxDist := math.Max(math.Abs(xs[lo]-x), math.Abs(xs[hi-1]-x))
	if maxDist == 0 {
		var s float64
		for i := lo; i < hi; i++ {
			s += ys[i]
		}
		return s / float64(hi-lo), pathMean
	}
	const p = 3
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
			return ys[(lo+hi)/2], pathFallback
		}
		return swy / sw, pathFallback
	}
	return coef[0], pathFit
}

// TestLoessMatchesReference compares the scalar fit with the generic one by
// Float64bits for every window size down to the minimum, where the window's
// edge sample gets zero weight, the normal equations are singular and the
// weighted-mean fallback answers. Evaluation points include the samples,
// points between them and points beyond both ends; duplicate abscissae reach
// the coincident-window mean.
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

	paths := map[fitPath]int{}
	check := func(xs, ys []float64, x float64, window int) {
		t.Helper()
		got, _ := fitAt(xs, ys, x, window)
		want, path := fitAtReference(xs, ys, x, window)
		if math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("window %d at %v: %v (%#x), reference %v (%#x)",
				window, x, got, math.Float64bits(got), want, math.Float64bits(want))
		}
		paths[path]++
	}
	for window := 3; window <= n; window++ {
		for _, x := range at {
			check(xs, ys, x, window)
		}
	}
	for window := 3; window <= len(dup); window++ {
		check(dup, dupY, 2, window)
	}
	// A one-sample window at a sample is the coincident mean.
	check(xs, ys, xs[n/2], 1)
	t.Logf("fits by path: %v", paths)
	if paths[pathFit] == 0 || paths[pathFallback] == 0 || paths[pathMean] == 0 {
		t.Errorf("fits by path %v; the solve, its fallback and the coincident mean must all be exercised", paths)
	}
}

// loessFitMaxSamples bounds a FuzzLoessFit input's samples; the fit reads
// at most a window of them.
const loessFitMaxSamples = 64

// loessFitInput decodes a FuzzLoessFit input: a window byte, the evaluation
// point, then each sample's x and y, every float64 as 8 little-endian bytes;
// a trailing partial sample is ignored. The window holds 1 + byte mod n of
// the n samples, so it reaches the one-sample windows Smooth never asks for.
// ok is false unless there is a sample and the xs strictly increase, as
// Smooth requires.
func loessFitInput(input []byte) (xs, ys []float64, at float64, window int, ok bool) {
	n := (len(input) - 9) / 16
	if len(input) < 9 || n < 1 || n > loessFitMaxSamples {
		return nil, nil, 0, 0, false
	}
	f64 := func(b []byte) float64 { return math.Float64frombits(binary.LittleEndian.Uint64(b)) }
	at = f64(input[1:9])
	for i := 0; i < n; i++ {
		x, y := f64(input[9+16*i:]), f64(input[17+16*i:])
		if i > 0 && !(x > xs[i-1]) {
			return nil, nil, 0, 0, false
		}
		xs, ys = append(xs, x), append(ys, y)
	}
	return xs, ys, at, 1 + int(input[0])%n, true
}

// loessFitBytes encodes a FuzzLoessFit input from the window byte, the
// evaluation point and the samples' x, y pairs in order.
func loessFitBytes(window byte, at float64, xy ...float64) []byte {
	b := binary.LittleEndian.AppendUint64([]byte{window}, math.Float64bits(at))
	for _, v := range xy {
		b = binary.LittleEndian.AppendUint64(b, math.Float64bits(v))
	}
	return b
}

// loessFitCases are FuzzLoessFit's seed corpus, each with the path its fit
// must take: testdata/fuzz/FuzzLoessFit holds one file per case, named
// after it (TestLoessFitCorpus keeps the two in step).
var loessFitCases = []struct {
	name  string
	input []byte
	want  fitPath
}{
	{"nominal", loessFitBytes(5, 3.3, 0, 0.1, 1.1, 0.5, 2, 0.2, 2.9, 0.9, 4.2, 0.4, 5, 1.3, 6.1, 0.8), pathFit},
	{"beyond-end", loessFitBytes(3, 9.5, 0, 0.1, 1.1, 0.5, 2, 0.2, 2.9, 0.9, 4.2, 0.4, 5, 1.3, 6.1, 0.8), pathFit},
	{"one-point-window", loessFitBytes(0, 2, 0, 0.1, 1.1, 0.5, 2, 0.2, 2.9, 0.9), pathMean},
	// The window's two edge samples sit at the tricube's scale, weight 0:
	// only the middle one counts, and the weighted mean answers with its y.
	{"one-weight", loessFitBytes(2, 0, -1, 3, 0, 5, 1, 7), pathFallback},
	// Two samples weigh in, so the 3×3 system has rank two.
	{"singular", loessFitBytes(2, 0, 0, 3, 1, 5, 2, 7), pathFallback},
	// Both samples sit at the scale: every weight is 0 and the window's
	// middle sample answers.
	{"zero-weights", loessFitBytes(1, 1, 0, 3, 2, 5), pathFallback},
	// The right-hand sums overflow; the solve runs on and answers NaN.
	{"near-overflow-y", loessFitBytes(5, 2.5, 0, 1.7e308, 1, 1.6e308, 2, 1.79e308, 3, 1.75e308, 4, 1.7e308, 5, 1.65e308), pathFit},
	// t⁴ overflows in the corner entry, and the solve answers NaN.
	{"overflowing-t4", loessFitBytes(4, 1e100, 0, 1, 1e100, 2, 2e100, 3, 3e100, 5, 4e100, 4), pathFit},
	{"nan-y", loessFitBytes(5, 2.5, 0, 0.1, 1, 0.5, 2, math.NaN(), 3, 0.9, 4, 0.4, 5, 1.3), pathFit},
}

// checkLoessFit runs one FuzzLoessFit input through fitAt and the generic
// reference, which must return the same bits by the same path, and returns
// that path; skip is true for an input loessFitInput rejects.
func checkLoessFit(input []byte) (path fitPath, skip bool, err error) {
	xs, ys, at, window, ok := loessFitInput(input)
	if !ok {
		return "", true, nil
	}
	got, gotPath := fitAt(xs, ys, at, window)
	want, wantPath := fitAtReference(xs, ys, at, window)
	if math.Float64bits(got) != math.Float64bits(want) || gotPath != wantPath {
		return "", false, fmt.Errorf("window %d of %d at %v: %v (%#x) by %s, reference %v (%#x) by %s",
			window, len(xs), at, got, math.Float64bits(got), gotPath, want, math.Float64bits(want), wantPath)
	}
	return gotPath, false, nil
}

// TestLoessFitCases runs the seed table through both fits and checks each
// case takes the path it is named for.
func TestLoessFitCases(t *testing.T) {
	for _, tc := range loessFitCases {
		t.Run(tc.name, func(t *testing.T) {
			path, skip, err := checkLoessFit(tc.input)
			switch {
			case skip:
				t.Fatal("input rejected")
			case err != nil:
				t.Fatal(err)
			case path != tc.want:
				t.Errorf("path %s, want %s", path, tc.want)
			}
		})
	}
}

// TestLoessFitCorpus checks every seed case has its corpus file, in the go
// test fuzz v1 encoding of its input.
func TestLoessFitCorpus(t *testing.T) {
	for _, tc := range loessFitCases {
		want := fmt.Sprintf("go test fuzz v1\n[]byte(%q)\n", tc.input)
		got, err := os.ReadFile(filepath.Join("testdata", "fuzz", "FuzzLoessFit", tc.name))
		if err != nil || string(got) != want {
			t.Errorf("seed %s: corpus file %q (%v), want %q", tc.name, got, err, want)
		}
	}
}

// FuzzLoessFit is the differential check of the LOESS fit: from strictly
// increasing samples, a window size and an evaluation point built from
// bytes, fitAt must return the generic reference's bits by the same path
// (fit, fallback or mean), and neither may panic.
func FuzzLoessFit(f *testing.F) {
	f.Fuzz(func(t *testing.T, input []byte) {
		if _, _, err := checkLoessFit(input); err != nil {
			t.Fatal(err)
		}
	})
}
