package geo

import (
	"errors"
	"fmt"
	"math"
	"slices"
	"sync"
)

// Polyline is a planar path in a local ENU frame with cumulative arc length,
// used to represent road center lines. Altitude is handled by road profiles,
// not here.
type Polyline struct {
	pts []ENU
	cum []float64 // cumulative arc length, cum[0] = 0

	// Lazily built spatial index for ClosestS queries; see Index.
	indexOnce sync.Once
	index     *IndexedPolyline
}

// NewPolyline builds a polyline from at least two points. Consecutive
// duplicate points are rejected because they leave the direction undefined.
func NewPolyline(pts []ENU) (*Polyline, error) {
	if len(pts) < 2 {
		return nil, errors.New("geo: polyline needs at least two points")
	}
	cum := make([]float64, len(pts))
	for i := 1; i < len(pts); i++ {
		d := dist(pts[i-1], pts[i])
		if d == 0 {
			return nil, fmt.Errorf("geo: duplicate polyline point at index %d", i)
		}
		cum[i] = cum[i-1] + d
	}
	cp := make([]ENU, len(pts))
	copy(cp, pts)
	return &Polyline{pts: cp, cum: cum}, nil
}

func dist(a, b ENU) float64 {
	return math.Hypot(b.E-a.E, b.N-a.N)
}

// Length returns the total arc length in meters.
func (p *Polyline) Length() float64 { return p.cum[len(p.cum)-1] }

// Points returns a copy of the vertex list.
func (p *Polyline) Points() []ENU {
	out := make([]ENU, len(p.pts))
	copy(out, p.pts)
	return out
}

// At returns the position at arc length s, clamped to [0, Length].
func (p *Polyline) At(s float64) ENU {
	i, t := p.locate(s)
	a, b := p.pts[i], p.pts[i+1]
	return ENU{E: a.E + (b.E-a.E)*t, N: a.N + (b.N-a.N)*t}
}

// DirectionAt returns the tangent heading (CCW from East) at arc length s.
func (p *Polyline) DirectionAt(s float64) float64 {
	i, _ := p.locate(s)
	a, b := p.pts[i], p.pts[i+1]
	return math.Atan2(b.N-a.N, b.E-a.E)
}

// locate returns the segment index i and interpolation fraction t in [0,1]
// such that s lies on segment (i, i+1).
func (p *Polyline) locate(s float64) (int, float64) {
	if s <= 0 {
		return 0, 0
	}
	last := len(p.pts) - 2
	if s >= p.Length() {
		return last, 1
	}
	// Binary search over cumulative lengths.
	lo, hi := 0, len(p.cum)-1
	for lo+1 < hi {
		mid := (lo + hi) / 2
		if p.cum[mid] <= s {
			lo = mid
		} else {
			hi = mid
		}
	}
	segLen := p.cum[lo+1] - p.cum[lo]
	return lo, (s - p.cum[lo]) / segLen
}

// Resample returns positions every spacing meters from 0 to Length inclusive.
func (p *Polyline) Resample(spacing float64) ([]ENU, error) {
	return p.AppendResample(nil, spacing)
}

// AppendResample appends Resample's positions to dst and returns the
// extended slice, so a caller that resamples many polylines can reuse one
// buffer.
func (p *Polyline) AppendResample(dst []ENU, spacing float64) ([]ENU, error) {
	if spacing <= 0 {
		return nil, fmt.Errorf("geo: invalid resample spacing %v", spacing)
	}
	n := int(math.Floor(p.Length()/spacing)) + 1
	out := slices.Grow(dst, n+1)
	hint := 0 // sample positions are monotone, so the hinted locate is O(1)
	for i := 0; i < n; i++ {
		out = append(out, p.AtHint(float64(i)*spacing, &hint))
	}
	if p.Length()-float64(n-1)*spacing > spacing/2 {
		out = append(out, p.At(p.Length()))
	}
	return out, nil
}

// ClosestS returns the arc length of the point on the polyline nearest to p,
// and the distance to it. Used for map-matching GPS fixes onto a road. This
// is the exact O(segments) scan; Index().ClosestS gives the same answer
// sub-linearly.
func (p *Polyline) ClosestS(q ENU) (s, dist float64) {
	best := math.Inf(1)
	bestS := 0.0
	for i := 0; i+1 < len(p.pts); i++ {
		if cs, d := p.segClosest(i, q); d < best {
			best, bestS = d, cs
		}
	}
	return bestS, best
}

// segClosest returns the arc length and distance of the point on segment i
// nearest to q. Both the brute-force scan and the spatial index score
// segments through this one helper so their results are bit-identical.
func (p *Polyline) segClosest(i int, q ENU) (s, d float64) {
	a, b := p.pts[i], p.pts[i+1]
	abE, abN := b.E-a.E, b.N-a.N
	segLen2 := abE*abE + abN*abN
	t := ((q.E-a.E)*abE + (q.N-a.N)*abN) / segLen2
	if t < 0 {
		t = 0
	} else if t > 1 {
		t = 1
	}
	cE, cN := a.E+t*abE, a.N+t*abN
	return p.cum[i] + t*math.Sqrt(segLen2), math.Hypot(q.E-cE, q.N-cN)
}

// AtHint is At with a monotone-query accelerator: hint carries the segment
// index of the previous hit, so sweeps along the road (odometer integration,
// heading windows) locate in O(1) instead of O(log n). Results are identical
// to At for any hint value; a nil hint degrades to plain At.
func (p *Polyline) AtHint(s float64, hint *int) ENU {
	i, t := p.locateHint(s, hint)
	a, b := p.pts[i], p.pts[i+1]
	return ENU{E: a.E + (b.E-a.E)*t, N: a.N + (b.N-a.N)*t}
}

// locateHint is locate with a cached starting segment. The located segment
// is the unique one with cum[i] <= s < cum[i+1], so checking the hinted
// segment (and walking forward a few) returns exactly what the binary
// search would.
func (p *Polyline) locateHint(s float64, hint *int) (int, float64) {
	if hint == nil {
		return p.locate(s)
	}
	if s <= 0 {
		return 0, 0
	}
	last := len(p.pts) - 2
	if s >= p.Length() {
		return last, 1
	}
	if i := *hint; i >= 0 && i <= last && p.cum[i] <= s {
		for step := 0; step < 8 && i < last && p.cum[i+1] <= s; step++ {
			i++
		}
		if p.cum[i] <= s && p.cum[i+1] > s {
			*hint = i
			return i, (s - p.cum[i]) / (p.cum[i+1] - p.cum[i])
		}
	}
	i, t := p.locate(s)
	*hint = i
	return i, t
}

// CurvatureAt estimates signed curvature (1/m) at arc length s by finite
// differencing the tangent direction over a small window. Positive curvature
// turns left (counter-clockwise).
func (p *Polyline) CurvatureAt(s, window float64) float64 {
	if window <= 0 {
		window = 1
	}
	s0 := math.Max(0, s-window/2)
	s1 := math.Min(p.Length(), s+window/2)
	if s1 <= s0 {
		return 0
	}
	d0 := p.DirectionAt(s0)
	d1 := p.DirectionAt(s1)
	return AngleDiff(d0, d1) / (s1 - s0)
}
