package geo

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

// Charlottesville, VA — the paper's experiment city.
var cville = LatLon{Lat: 38.0293, Lon: -78.4767}

func TestRadiansDegreesRoundTrip(t *testing.T) {
	for _, d := range []float64{0, 45, -90, 180, 359} {
		if got := Degrees(Radians(d)); math.Abs(got-d) > 1e-12 {
			t.Errorf("round trip %v -> %v", d, got)
		}
	}
}

func TestHaversineKnownDistance(t *testing.T) {
	// One degree of latitude is ~111.2 km.
	a := LatLon{Lat: 38, Lon: -78}
	b := LatLon{Lat: 39, Lon: -78}
	d := HaversineM(a, b)
	if d < 110e3 || d > 112.5e3 {
		t.Errorf("1 degree latitude = %v m, want ~111.2 km", d)
	}
	if HaversineM(a, a) != 0 {
		t.Error("distance to self nonzero")
	}
}

func TestHaversineSymmetric(t *testing.T) {
	a := cville
	b := LatLon{Lat: 38.05, Lon: -78.5}
	if d1, d2 := HaversineM(a, b), HaversineM(b, a); math.Abs(d1-d2) > 1e-9 {
		t.Errorf("asymmetric: %v vs %v", d1, d2)
	}
}

func TestProjectorRoundTrip(t *testing.T) {
	p := NewProjector(cville)
	f := func(dLat, dLon float64) bool {
		// Constrain offsets to city scale (~0.2 degrees).
		pos := LatLon{
			Lat: cville.Lat + math.Mod(dLat, 0.2),
			Lon: cville.Lon + math.Mod(dLon, 0.2),
		}
		back := p.ToLatLon(p.ToENU(pos))
		return math.Abs(back.Lat-pos.Lat) < 1e-9 && math.Abs(back.Lon-pos.Lon) < 1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestProjectorAgreesWithHaversine(t *testing.T) {
	p := NewProjector(cville)
	pos := LatLon{Lat: cville.Lat + 0.05, Lon: cville.Lon + 0.05}
	e := p.ToENU(pos)
	planar := math.Hypot(e.E, e.N)
	hav := HaversineM(cville, pos)
	if math.Abs(planar-hav)/hav > 0.001 {
		t.Errorf("planar %v vs haversine %v", planar, hav)
	}
}

func TestPaperSegmentDirection(t *testing.T) {
	// Due-north segment: Δλ = 0 so arctan(0) = 0 in the paper's convention.
	s := LatLon{Lat: 38, Lon: -78}
	e := LatLon{Lat: 38.001, Lon: -78}
	if got := PaperSegmentDirection(s, e); got != 0 {
		t.Errorf("north segment direction = %v, want 0", got)
	}
	// 45-degree segment in degree space.
	e2 := LatLon{Lat: 38.001, Lon: -77.999}
	if got := PaperSegmentDirection(s, e2); math.Abs(got-math.Pi/4) > 1e-9 {
		t.Errorf("diag segment direction = %v, want pi/4", got)
	}
}

func TestWrapAngle(t *testing.T) {
	tests := []struct {
		in, want float64
	}{
		{0, 0},
		{math.Pi, math.Pi},
		{-math.Pi, math.Pi},
		{3 * math.Pi, math.Pi},
		{math.Pi + 0.1, -math.Pi + 0.1},
		{-math.Pi - 0.1, math.Pi - 0.1},
		{2 * math.Pi, 0},
	}
	for _, tt := range tests {
		if got := WrapAngle(tt.in); math.Abs(got-tt.want) > 1e-12 {
			t.Errorf("WrapAngle(%v) = %v, want %v", tt.in, got, tt.want)
		}
	}
}

func TestWrapAngleProperty(t *testing.T) {
	f := func(a float64) bool {
		a = math.Mod(a, 100)
		w := WrapAngle(a)
		if w <= -math.Pi || w > math.Pi {
			return false
		}
		// Same direction: difference is a multiple of 2π.
		k := (a - w) / (2 * math.Pi)
		return math.Abs(k-math.Round(k)) < 1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

func TestAngleDiff(t *testing.T) {
	if got := AngleDiff(0.1, 0.3); math.Abs(got-0.2) > 1e-12 {
		t.Errorf("AngleDiff = %v", got)
	}
	// Crossing the wrap point.
	if got := AngleDiff(math.Pi-0.1, -math.Pi+0.1); math.Abs(got-0.2) > 1e-12 {
		t.Errorf("AngleDiff across wrap = %v, want 0.2", got)
	}
}

func TestPolylineBasics(t *testing.T) {
	pl, err := NewPolyline([]ENU{{0, 0}, {100, 0}, {100, 50}})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(pl.Length()-150) > 1e-12 {
		t.Errorf("Length = %v, want 150", pl.Length())
	}
	if got := pl.At(50); got.E != 50 || got.N != 0 {
		t.Errorf("At(50) = %+v", got)
	}
	if got := pl.At(125); got.E != 100 || got.N != 25 {
		t.Errorf("At(125) = %+v", got)
	}
	// Clamping.
	if got := pl.At(-5); got != (ENU{0, 0}) {
		t.Errorf("At(-5) = %+v", got)
	}
	if got := pl.At(1e9); got != (ENU{100, 50}) {
		t.Errorf("At(big) = %+v", got)
	}
	if got := pl.DirectionAt(10); math.Abs(got) > 1e-12 {
		t.Errorf("DirectionAt(10) = %v, want 0 (east)", got)
	}
	if got := pl.DirectionAt(120); math.Abs(got-math.Pi/2) > 1e-12 {
		t.Errorf("DirectionAt(120) = %v, want pi/2 (north)", got)
	}
}

func TestPolylineErrors(t *testing.T) {
	if _, err := NewPolyline([]ENU{{0, 0}}); err == nil {
		t.Error("single point should error")
	}
	if _, err := NewPolyline([]ENU{{0, 0}, {0, 0}}); err == nil {
		t.Error("duplicate point should error")
	}
}

func TestPolylinePointsCopy(t *testing.T) {
	src := []ENU{{0, 0}, {1, 0}}
	pl, _ := NewPolyline(src)
	pts := pl.Points()
	pts[0].E = 99
	src[1].E = 99
	if pl.At(0).E != 0 || pl.At(1).E != 1 {
		t.Error("polyline aliases caller slices")
	}
}

func TestPolylineResample(t *testing.T) {
	pl, _ := NewPolyline([]ENU{{0, 0}, {10, 0}})
	pts, err := pl.Resample(2.5)
	if err != nil {
		t.Fatal(err)
	}
	if len(pts) != 5 {
		t.Fatalf("Resample len = %d, want 5: %+v", len(pts), pts)
	}
	if pts[4].E != 10 {
		t.Errorf("last point = %+v", pts[4])
	}
	if _, err := pl.Resample(0); err == nil {
		t.Error("zero spacing should error")
	}
}

func TestPolylineCurvature(t *testing.T) {
	// Approximate a circle of radius 50 m; curvature should be ~1/50.
	const r = 50.0
	var pts []ENU
	for i := 0; i <= 90; i++ {
		a := float64(i) * math.Pi / 180
		pts = append(pts, ENU{E: r * math.Cos(a), N: r * math.Sin(a)})
	}
	pl, err := NewPolyline(pts)
	if err != nil {
		t.Fatal(err)
	}
	k := pl.CurvatureAt(pl.Length()/2, 10)
	if math.Abs(k-1/r) > 0.002 {
		t.Errorf("curvature = %v, want %v", k, 1/r)
	}
	// Straight line has zero curvature.
	line, _ := NewPolyline([]ENU{{0, 0}, {100, 0}})
	if got := line.CurvatureAt(50, 5); got != 0 {
		t.Errorf("line curvature = %v", got)
	}
	if got := line.CurvatureAt(50, -1); got != 0 {
		t.Errorf("negative window curvature = %v", got)
	}
}

// Property: At(s) advances monotonically in arc length along the line.
func TestPolylineArcLengthProperty(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := 3 + r.Intn(10)
		pts := make([]ENU, n)
		for i := 1; i < n; i++ {
			pts[i] = ENU{
				E: pts[i-1].E + 1 + r.Float64()*20,
				N: pts[i-1].N + r.NormFloat64()*5,
			}
		}
		pl, err := NewPolyline(pts)
		if err != nil {
			return false
		}
		// Distance travelled between consecutive sample points should be
		// close to the arc-length step (equal for straight segments, less
		// than or equal around corners).
		step := pl.Length() / 50
		prev := pl.At(0)
		for i := 1; i <= 50; i++ {
			cur := pl.At(float64(i) * step)
			if dist(prev, cur) > step+1e-9 {
				return false
			}
			prev = cur
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func BenchmarkPolylineAt(b *testing.B) {
	r := rand.New(rand.NewSource(9))
	pts := make([]ENU, 1000)
	for i := 1; i < len(pts); i++ {
		pts[i] = ENU{E: pts[i-1].E + 1 + r.Float64()*10, N: r.NormFloat64() * 3}
	}
	pl, err := NewPolyline(pts)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		pl.At(float64(i%5000) / 5000 * pl.Length())
	}
}
