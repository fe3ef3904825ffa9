package road

import (
	"errors"
	"fmt"
	"math"

	"roadgrade/internal/geo"
)

// PathBuilder accumulates planar road geometry from straight and circular-arc
// primitives, emitting polyline vertices every stepM meters. It is the tool
// the synthetic route constructors (red route, S-curves, network edges) use.
type PathBuilder struct {
	stepM   float64
	pos     geo.ENU
	heading float64 // CCW from East
	pts     []geo.ENU
}

// NewPathBuilder starts a path at start with the given heading. stepM
// controls vertex density (default 5 m when <= 0).
func NewPathBuilder(start geo.ENU, heading, stepM float64) *PathBuilder {
	if stepM <= 0 {
		stepM = 5
	}
	return &PathBuilder{stepM: stepM, pos: start, heading: heading, pts: []geo.ENU{start}}
}

// Straight extends the path by length meters along the current heading.
func (b *PathBuilder) Straight(length float64) *PathBuilder {
	if length <= 0 {
		return b
	}
	n := int(math.Ceil(length / b.stepM))
	for i := 1; i <= n; i++ {
		d := length * float64(i) / float64(n)
		b.push(geo.ENU{
			E: b.pos.E + d*math.Cos(b.heading),
			N: b.pos.N + d*math.Sin(b.heading),
		})
	}
	b.pos = b.pts[len(b.pts)-1]
	return b
}

// Arc turns through angle radians (positive = left/CCW) along a circular arc
// of the given radius.
func (b *PathBuilder) Arc(radius, angle float64) *PathBuilder {
	if radius <= 0 || angle == 0 {
		return b
	}
	arcLen := math.Abs(angle) * radius
	n := int(math.Ceil(arcLen / b.stepM))
	if n < 2 {
		n = 2
	}
	sign := 1.0
	if angle < 0 {
		sign = -1
	}
	// Center of the turning circle is perpendicular to the heading.
	cx := b.pos.E - sign*radius*math.Sin(b.heading)
	cy := b.pos.N + sign*radius*math.Cos(b.heading)
	startAngle := math.Atan2(b.pos.N-cy, b.pos.E-cx)
	for i := 1; i <= n; i++ {
		a := startAngle + angle*float64(i)/float64(n)
		b.push(geo.ENU{E: cx + radius*math.Cos(a), N: cy + radius*math.Sin(a)})
	}
	b.pos = b.pts[len(b.pts)-1]
	b.heading = geo.WrapAngle(b.heading + angle)
	return b
}

// SCurve appends two opposite arcs of equal radius and sweep, the Figure 5
// "S-sharp road" shape. Positive angle starts with a left turn.
func (b *PathBuilder) SCurve(radius, angle float64) *PathBuilder {
	return b.Arc(radius, angle).Arc(radius, -angle)
}

func (b *PathBuilder) push(p geo.ENU) {
	last := b.pts[len(b.pts)-1]
	if math.Hypot(p.E-last.E, p.N-last.N) < 1e-9 {
		return
	}
	b.pts = append(b.pts, p)
}

// Length returns the accumulated path length so far.
func (b *PathBuilder) Length() float64 {
	var sum float64
	for i := 1; i < len(b.pts); i++ {
		sum += math.Hypot(b.pts[i].E-b.pts[i-1].E, b.pts[i].N-b.pts[i-1].N)
	}
	return sum
}

// Build returns the accumulated polyline.
func (b *PathBuilder) Build() (*geo.Polyline, error) {
	if len(b.pts) < 2 {
		return nil, errors.New("road: path has no extent; add segments before Build")
	}
	return geo.NewPolyline(b.pts)
}

// SectionSpec describes one vertical section of a synthetic route: length,
// peak grade (radians, signed) and lane count. The grade within the section
// follows a smooth sin² bump that is zero at both ends, so sections join
// with continuous grade.
type SectionSpec struct {
	LengthM      float64
	PeakGradeRad float64
	Lanes        int
}

// BuildProfileFromSections integrates the section grade bumps into an
// altitude profile at the given spacing and returns the profile plus the
// lane Section table.
func BuildProfileFromSections(specs []SectionSpec, spacing, startAlt float64) (*Profile, []Section, error) {
	if len(specs) == 0 {
		return nil, nil, errors.New("road: no section specs")
	}
	if spacing <= 0 {
		return nil, nil, fmt.Errorf("road: invalid spacing %v", spacing)
	}
	var total float64
	sections := make([]Section, 0, len(specs))
	for i, sp := range specs {
		if sp.LengthM <= 0 {
			return nil, nil, fmt.Errorf("road: section %d has length %v", i, sp.LengthM)
		}
		if sp.Lanes < 1 {
			return nil, nil, fmt.Errorf("road: section %d has %d lanes", i, sp.Lanes)
		}
		sections = append(sections, Section{StartS: total, EndS: total + sp.LengthM, Lanes: sp.Lanes})
		total += sp.LengthM
	}
	n := int(math.Round(total / spacing))
	grades := make([]float64, n)
	for i := range grades {
		s := (float64(i) + 0.5) * spacing
		grades[i] = gradeAtSpec(specs, sections, s)
	}
	prof, err := NewProfileFromGrades(spacing, grades, startAlt)
	if err != nil {
		return nil, nil, err
	}
	return prof, sections, nil
}

// gradeAtSpec shapes each section's grade as a trapezoid: a smooth ramp over
// the first 20% of the section, a constant hold at the peak grade, and a
// ramp back to zero over the last 20% — the vertical-curve-plus-tangent
// profile real roads use, with grade continuous across section joins.
func gradeAtSpec(specs []SectionSpec, sections []Section, s float64) float64 {
	const rampFrac = 0.2
	for i, sec := range sections {
		if s >= sec.StartS && s < sec.EndS {
			frac := (s - sec.StartS) / (sec.EndS - sec.StartS)
			var shape float64
			switch {
			case frac < rampFrac:
				u := frac / rampFrac
				shape = 0.5 * (1 - math.Cos(math.Pi*u))
			case frac > 1-rampFrac:
				u := (1 - frac) / rampFrac
				shape = 0.5 * (1 - math.Cos(math.Pi*u))
			default:
				shape = 1
			}
			return specs[i].PeakGradeRad * shape
		}
	}
	return 0
}
