package road

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"roadgrade/internal/geo"
)

func TestNewProfileValidation(t *testing.T) {
	if _, err := NewProfile(0, []float64{1, 2}); err == nil {
		t.Error("zero spacing should error")
	}
	if _, err := NewProfile(1, []float64{1}); err == nil {
		t.Error("single sample should error")
	}
}

func TestProfileAltitudeInterpolation(t *testing.T) {
	p, err := NewProfile(10, []float64{100, 110, 105})
	if err != nil {
		t.Fatal(err)
	}
	if p.Length() != 20 {
		t.Errorf("Length = %v", p.Length())
	}
	if p.Spacing() != 10 {
		t.Errorf("Spacing = %v", p.Spacing())
	}
	tests := []struct {
		s, want float64
	}{
		{-5, 100}, {0, 100}, {5, 105}, {10, 110}, {15, 107.5}, {20, 105}, {100, 105},
	}
	for _, tt := range tests {
		if got := p.AltitudeAt(tt.s); math.Abs(got-tt.want) > 1e-12 {
			t.Errorf("AltitudeAt(%v) = %v, want %v", tt.s, got, tt.want)
		}
	}
}

func TestProfileGrade(t *testing.T) {
	// 1 m rise over 10 m: grade = arcsin(0.1).
	p, _ := NewProfile(10, []float64{0, 1, 1})
	want := math.Asin(0.1)
	if got := p.GradeAt(5); math.Abs(got-want) > 1e-12 {
		t.Errorf("GradeAt(5) = %v, want %v", got, want)
	}
	if got := p.GradeAt(15); got != 0 {
		t.Errorf("GradeAt(15) = %v, want 0", got)
	}
	// Clamping at the ends.
	if got := p.GradeAt(-1); math.Abs(got-want) > 1e-12 {
		t.Errorf("GradeAt(-1) = %v", got)
	}
	if got := p.GradeAt(1e6); got != 0 {
		t.Errorf("GradeAt(big) = %v", got)
	}
	// Steeper than 45° clamps the arcsin argument instead of NaN.
	steep, _ := NewProfile(1, []float64{0, 5})
	if g := steep.GradeAt(0); math.IsNaN(g) || g != math.Pi/2 {
		t.Errorf("steep grade = %v, want pi/2", g)
	}
}

func TestNewProfileFromGradesRoundTrip(t *testing.T) {
	grades := []float64{0.02, 0.05, -0.03, 0}
	p, err := NewProfileFromGrades(2, grades, 100)
	if err != nil {
		t.Fatal(err)
	}
	for i, g := range grades {
		s := (float64(i) + 0.5) * 2
		if got := p.GradeAt(s); math.Abs(got-g) > 1e-9 {
			t.Errorf("GradeAt(%v) = %v, want %v", s, got, g)
		}
	}
	if _, err := NewProfileFromGrades(1, nil, 0); err == nil {
		t.Error("empty grades should error")
	}
	if _, err := NewProfileFromGrades(-1, grades, 0); err == nil {
		t.Error("negative spacing should error")
	}
}

func TestProfileAltitudesCopy(t *testing.T) {
	p, _ := NewProfile(1, []float64{1, 2, 3})
	a := p.Altitudes()
	a[0] = 99
	if p.AltitudeAt(0) != 1 {
		t.Error("Altitudes aliases internal state")
	}
}

func TestMaxAbsGradeDeg(t *testing.T) {
	p, _ := NewProfileFromGrades(1, []float64{Deg(1), Deg(-3), Deg(2)}, 0)
	if got := p.MaxAbsGradeDeg(); math.Abs(got-3) > 0.01 {
		t.Errorf("MaxAbsGradeDeg = %v, want 3", got)
	}
}

func TestTerrainDeterministic(t *testing.T) {
	a := NewTerrain(7, TerrainConfig{})
	b := NewTerrain(7, TerrainConfig{})
	c := NewTerrain(8, TerrainConfig{})
	p := geo.ENU{E: 1234, N: -567}
	if a.ElevationAt(p) != b.ElevationAt(p) {
		t.Error("same seed, different elevation")
	}
	if a.ElevationAt(p) == c.ElevationAt(p) {
		t.Error("different seeds produced identical elevation (unlikely)")
	}
}

func TestTerrainGradesBounded(t *testing.T) {
	tr := NewTerrain(3, TerrainConfig{MaxGradeDeg: 4})
	b := NewPathBuilder(geo.ENU{}, 0.3, 5)
	b.Straight(5000)
	line, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	prof, err := tr.ProfileAlong(line, 5)
	if err != nil {
		t.Fatal(err)
	}
	if got := prof.MaxAbsGradeDeg(); got > 10 {
		t.Errorf("terrain grade %v deg exceeds sane bound", got)
	}
	if got := prof.MaxAbsGradeDeg(); got < 0.5 {
		t.Errorf("terrain suspiciously flat: %v deg", got)
	}
}

func TestPathBuilderStraight(t *testing.T) {
	b := NewPathBuilder(geo.ENU{}, 0, 5)
	line, err := b.Straight(100).Build()
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(line.Length()-100) > 1e-9 {
		t.Errorf("Length = %v", line.Length())
	}
	end := line.At(line.Length())
	if math.Abs(end.E-100) > 1e-9 || math.Abs(end.N) > 1e-9 {
		t.Errorf("end = %+v", end)
	}
}

func TestPathBuilderArc(t *testing.T) {
	// Quarter turn left with radius 100 from heading east ends heading north
	// at (100, 100).
	b := NewPathBuilder(geo.ENU{}, 0, 2)
	line, err := b.Arc(100, math.Pi/2).Build()
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(b.heading-math.Pi/2) > 1e-9 {
		t.Errorf("heading = %v", b.heading)
	}
	end := line.At(line.Length())
	if math.Abs(end.E-100) > 0.5 || math.Abs(end.N-100) > 0.5 {
		t.Errorf("end = %+v, want ~(100,100)", end)
	}
	wantLen := math.Pi / 2 * 100
	if math.Abs(line.Length()-wantLen) > wantLen*0.01 {
		t.Errorf("arc length = %v, want ~%v", line.Length(), wantLen)
	}
}

func TestPathBuilderArcRight(t *testing.T) {
	b := NewPathBuilder(geo.ENU{}, 0, 2)
	line, err := b.Arc(50, -math.Pi/2).Build()
	if err != nil {
		t.Fatal(err)
	}
	end := line.At(line.Length())
	if math.Abs(end.E-50) > 0.5 || math.Abs(end.N+50) > 0.5 {
		t.Errorf("right-turn end = %+v, want ~(50,-50)", end)
	}
}

func TestPathBuilderSCurveReturnsHeading(t *testing.T) {
	b := NewPathBuilder(geo.ENU{}, 0, 2)
	if _, err := b.SCurve(60, Deg(35)).Build(); err != nil {
		t.Fatal(err)
	}
	if math.Abs(b.heading) > 1e-9 {
		t.Errorf("S-curve should restore heading, got %v", b.heading)
	}
}

func TestPathBuilderEmpty(t *testing.T) {
	b := NewPathBuilder(geo.ENU{}, 0, 5)
	if _, err := b.Build(); err == nil {
		t.Error("empty path should error")
	}
	b.Straight(-5) // no-op
	b.Arc(-1, 1)   // no-op
	b.Arc(10, 0)   // no-op
	if _, err := b.Build(); err == nil {
		t.Error("no-op path should still error")
	}
}

func TestBuildProfileFromSections(t *testing.T) {
	specs := []SectionSpec{
		{LengthM: 100, PeakGradeRad: Deg(2), Lanes: 1},
		{LengthM: 100, PeakGradeRad: Deg(-2), Lanes: 2},
	}
	prof, sections, err := BuildProfileFromSections(specs, 1, 50)
	if err != nil {
		t.Fatal(err)
	}
	if len(sections) != 2 || sections[1].StartS != 100 || sections[1].EndS != 200 {
		t.Errorf("sections = %+v", sections)
	}
	// Peak grade occurs mid-section and approaches the spec value.
	if got := prof.GradeAt(50); math.Abs(got-Deg(2)) > Deg(0.1) {
		t.Errorf("mid-section grade = %v, want ~%v", got, Deg(2))
	}
	// Grade near the section join should be close to zero.
	if got := prof.GradeAt(100); math.Abs(got) > Deg(0.3) {
		t.Errorf("join grade = %v, want ~0", got)
	}
	// Error cases.
	if _, _, err := BuildProfileFromSections(nil, 1, 0); err == nil {
		t.Error("no specs should error")
	}
	if _, _, err := BuildProfileFromSections(specs, -1, 0); err == nil {
		t.Error("bad spacing should error")
	}
	bad := []SectionSpec{{LengthM: 0, PeakGradeRad: 0, Lanes: 1}}
	if _, _, err := BuildProfileFromSections(bad, 1, 0); err == nil {
		t.Error("zero-length section should error")
	}
	bad2 := []SectionSpec{{LengthM: 10, PeakGradeRad: 0, Lanes: 0}}
	if _, _, err := BuildProfileFromSections(bad2, 1, 0); err == nil {
		t.Error("zero-lane section should error")
	}
}

func TestNewRoadValidation(t *testing.T) {
	line, _ := geo.NewPolyline([]geo.ENU{{E: 0, N: 0}, {E: 100, N: 0}})
	prof, _ := NewProfile(1, make([]float64, 101))
	if _, err := NewRoad("", line, prof, nil, ClassLocal); err == nil {
		t.Error("empty id should error")
	}
	if _, err := NewRoad("x", nil, prof, nil, ClassLocal); err == nil {
		t.Error("nil line should error")
	}
	shortProf, _ := NewProfile(1, make([]float64, 11))
	if _, err := NewRoad("x", line, shortProf, nil, ClassLocal); err == nil {
		t.Error("short profile should error")
	}
	// Bad sections.
	bad := []Section{{StartS: 0, EndS: 50, Lanes: 1}, {StartS: 60, EndS: 100, Lanes: 1}}
	if _, err := NewRoad("x", line, prof, bad, ClassLocal); err == nil {
		t.Error("gapped sections should error")
	}
	bad2 := []Section{{StartS: 0, EndS: 100, Lanes: 0}}
	if _, err := NewRoad("x", line, prof, bad2, ClassLocal); err == nil {
		t.Error("zero lanes should error")
	}
	bad3 := []Section{{StartS: 0, EndS: 50, Lanes: 1}}
	if _, err := NewRoad("x", line, prof, bad3, ClassLocal); err == nil {
		t.Error("sections not covering road should error")
	}
	// Default sections.
	r, err := NewRoad("x", line, prof, nil, ClassLocal)
	if err != nil {
		t.Fatal(err)
	}
	if got := r.LanesAt(50); got != 1 {
		t.Errorf("default LanesAt = %d", got)
	}
}

func TestRedRoute(t *testing.T) {
	r, err := RedRoute()
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(r.Length()-RedRouteLengthM) > 20 {
		t.Errorf("red route length = %v, want ~%v", r.Length(), RedRouteLengthM)
	}
	secs := r.Sections()
	if len(secs) != 7 {
		t.Fatalf("sections = %d, want 7", len(secs))
	}
	// Table III: lanes 1,1,1,1,2,2,1 and alternating +,-,+,-,+,-,+ grades.
	wantLanes := []int{1, 1, 1, 1, 2, 2, 1}
	wantSign := []float64{1, -1, 1, -1, 1, -1, 1}
	for i, sec := range secs {
		if sec.Lanes != wantLanes[i] {
			t.Errorf("section %d lanes = %d, want %d", i, sec.Lanes, wantLanes[i])
		}
		mid := (sec.StartS + sec.EndS) / 2
		if g := r.GradeAt(mid); g*wantSign[i] <= 0 {
			t.Errorf("section %d grade sign = %v, want sign %v", i, g, wantSign[i])
		}
	}
	if r.MeanAbsGradeDeg(500) < 0.5 {
		t.Error("red route suspiciously flat")
	}
	if got := r.LanesAt(RedRouteLengthM * 0.99); got != 1 {
		t.Errorf("final section lanes = %d", got)
	}
	if got := r.LanesAt(1e9); got != 1 {
		t.Errorf("LanesAt beyond end = %d", got)
	}
}

func TestSCurveRoad(t *testing.T) {
	r, err := SCurveRoad(0, 0) // defaults
	if err != nil {
		t.Fatal(err)
	}
	// The S restores heading: start and end directions match.
	d0 := r.DirectionAt(10)
	d1 := r.DirectionAt(r.Length() - 10)
	if math.Abs(geo.AngleDiff(d0, d1)) > 0.01 {
		t.Errorf("S-curve heading not restored: %v vs %v", d0, d1)
	}
	// Mid-course heading deviates substantially.
	mid := r.DirectionAt(200 + 60*Deg(35)) // end of first arc
	if math.Abs(geo.AngleDiff(d0, mid)) < Deg(20) {
		t.Errorf("mid-course deviation = %v, want >= 20 deg", geo.AngleDiff(d0, mid))
	}
	// Flat profile.
	if g := r.GradeAt(r.Length() / 2); g != 0 {
		t.Errorf("S-curve grade = %v", g)
	}
}

func TestStraightRoad(t *testing.T) {
	r, err := StraightRoad("s", 500, Deg(3), 2)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(r.GradeAt(250)-Deg(3)) > 1e-9 {
		t.Errorf("grade = %v", r.GradeAt(250))
	}
	if r.LanesAt(100) != 2 {
		t.Errorf("lanes = %d", r.LanesAt(100))
	}
	if r.Class() != ClassLocal {
		t.Errorf("class = %v", r.Class())
	}
	// Altitude rises by 500*sin(3 deg).
	wantRise := 500 * math.Sin(Deg(3))
	rise := r.AltitudeAt(500) - r.AltitudeAt(0)
	if math.Abs(rise-wantRise) > 0.1 {
		t.Errorf("rise = %v, want %v", rise, wantRise)
	}
}

func TestClassString(t *testing.T) {
	if ClassArterial.String() != "arterial" || ClassCollector.String() != "collector" ||
		ClassLocal.String() != "local" {
		t.Error("class names wrong")
	}
	if Class(99).String() == "" {
		t.Error("unknown class should still render")
	}
}

func TestGenerateNetworkSmall(t *testing.T) {
	net, err := GenerateNetwork(5, NetworkConfig{TargetStreetKM: 10})
	if err != nil {
		t.Fatal(err)
	}
	if len(net.Nodes) == 0 || len(net.Edges) == 0 {
		t.Fatal("empty network")
	}
	got := net.TotalLengthM() / 1000
	if got < 5 || got > 16 {
		t.Errorf("street length = %v km, want near 10", got)
	}
	// Both directions exist for the first street.
	e := net.Edges[0]
	found := false
	for _, other := range net.Outgoing(e.To) {
		if other.To == e.From {
			found = true
		}
	}
	if !found {
		t.Error("reverse edge missing")
	}
	// Node positions of edge endpoints roughly match road geometry ends.
	var fromNode Node
	for _, n := range net.Nodes {
		if n.ID == e.From {
			fromNode = n
		}
	}
	start := e.Road.PositionAt(0)
	if math.Hypot(start.E-fromNode.Pos.E, start.N-fromNode.Pos.N) > 1 {
		t.Error("edge geometry does not start at its From node")
	}
}

func TestGenerateNetworkDeterministic(t *testing.T) {
	a, err := GenerateNetwork(11, NetworkConfig{TargetStreetKM: 8})
	if err != nil {
		t.Fatal(err)
	}
	b, err := GenerateNetwork(11, NetworkConfig{TargetStreetKM: 8})
	if err != nil {
		t.Fatal(err)
	}
	if len(a.Edges) != len(b.Edges) {
		t.Fatalf("edge counts differ: %d vs %d", len(a.Edges), len(b.Edges))
	}
	for i := range a.Edges {
		if a.Edges[i].Road.Length() != b.Edges[i].Road.Length() {
			t.Fatalf("edge %d length differs", i)
		}
	}
}

func TestNewNetworkValidation(t *testing.T) {
	if _, err := NewNetwork(nil, nil); err == nil {
		t.Error("empty network should error")
	}
	nodes := []Node{{ID: 1}, {ID: 1}}
	if _, err := NewNetwork(nodes, nil); err == nil {
		t.Error("duplicate node ids should error")
	}
	r, _ := StraightRoad("x", 100, 0, 1)
	edges := []*Edge{{From: 1, To: 99, Road: r}}
	if _, err := NewNetwork([]Node{{ID: 1}}, edges); err == nil {
		t.Error("edge to unknown node should error")
	}
}

func TestCharlottesvilleLength(t *testing.T) {
	if testing.Short() {
		t.Skip("network generation is slow in -short mode")
	}
	net, err := Charlottesville()
	if err != nil {
		t.Fatal(err)
	}
	got := net.TotalLengthM() / 1000
	if math.Abs(got-164.8) > 12 {
		t.Errorf("Charlottesville street length = %v km, want ~164.8", got)
	}
}

// Property: profiles built from bounded grades stay within the grade bound.
func TestProfileGradeBoundProperty(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := 2 + r.Intn(100)
		bound := 0.05 + r.Float64()*0.1
		grades := make([]float64, n)
		for i := range grades {
			grades[i] = (r.Float64()*2 - 1) * bound
		}
		p, err := NewProfileFromGrades(1, grades, 100)
		if err != nil {
			return false
		}
		for i := 0; i < n; i++ {
			if math.Abs(p.GradeAt(float64(i)+0.5)) > bound+1e-9 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func BenchmarkGenerateNetwork(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := GenerateNetwork(3, NetworkConfig{TargetStreetKM: 20}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkProfileGradeAt(b *testing.B) {
	p, _ := NewProfileFromGrades(1, make([]float64, 2000), 0)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		p.GradeAt(float64(i % 2000))
	}
}
