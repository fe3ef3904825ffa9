package geo

import (
	"math"
)

// IndexedPolyline accelerates nearest-point queries on a Polyline with a
// uniform grid over its segments. Map matching calls ClosestS for every
// GPS-valid record of every trace, and the brute-force scan is O(segments)
// per fix; the index bins segments into grid cells and searches outward
// ring by ring, visiting only the cells that can still contain a closer
// segment.
//
// The query is bit-exact with Polyline.ClosestS: candidate segments are
// scored with the same arithmetic (segClosest) and, after the ring search
// has bounded the answer, re-evaluated in ascending segment order with the
// same strict-less-than comparison, so ties resolve to the same segment the
// brute-force scan picks.
type IndexedPolyline struct {
	line       *Polyline
	minE, minN float64
	cellM      float64
	nx, ny     int
	cells      [][]int32 // cells[cy*nx+cx] = indices of segments overlapping the cell
}

// indexMinSegments is the segment count below which the grid buys nothing;
// shorter polylines fall back to the exact scan.
const indexMinSegments = 32

// indexMaxCells bounds the grid footprint; the cell size grows to fit.
const indexMaxCells = 1 << 18

// Index returns the polyline's spatial index, building it on first use.
// The index is cached on the polyline and safe for concurrent use.
func (p *Polyline) Index() *IndexedPolyline {
	p.indexOnce.Do(func() { p.index = newIndexedPolyline(p) })
	return p.index
}

func newIndexedPolyline(p *Polyline) *IndexedPolyline {
	ip := &IndexedPolyline{line: p}
	nSeg := len(p.pts) - 1
	if nSeg < indexMinSegments {
		return ip // cells == nil: ClosestS falls back to the exact scan
	}
	minE, minN := math.Inf(1), math.Inf(1)
	maxE, maxN := math.Inf(-1), math.Inf(-1)
	for _, pt := range p.pts {
		minE = math.Min(minE, pt.E)
		maxE = math.Max(maxE, pt.E)
		minN = math.Min(minN, pt.N)
		maxN = math.Max(maxN, pt.N)
	}
	// Twice the mean segment length keeps a handful of segments per cell;
	// grow the cell if that would exceed the grid budget.
	cell := 2 * p.Length() / float64(nSeg)
	if cell <= 0 {
		return ip
	}
	nx := int((maxE-minE)/cell) + 1
	ny := int((maxN-minN)/cell) + 1
	if float64(nx)*float64(ny) > indexMaxCells {
		scale := math.Sqrt(float64(nx) * float64(ny) / indexMaxCells)
		cell *= scale
		nx = int((maxE-minE)/cell) + 1
		ny = int((maxN-minN)/cell) + 1
	}
	ip.minE, ip.minN = minE, minN
	ip.cellM = cell
	ip.nx, ip.ny = nx, ny
	ip.cells = make([][]int32, nx*ny)
	for i := 0; i < nSeg; i++ {
		a, b := p.pts[i], p.pts[i+1]
		c0x, c1x := ip.cellX(math.Min(a.E, b.E)), ip.cellX(math.Max(a.E, b.E))
		c0y, c1y := ip.cellY(math.Min(a.N, b.N)), ip.cellY(math.Max(a.N, b.N))
		for cy := c0y; cy <= c1y; cy++ {
			for cx := c0x; cx <= c1x; cx++ {
				k := cy*nx + cx
				ip.cells[k] = append(ip.cells[k], int32(i))
			}
		}
	}
	return ip
}

func (ip *IndexedPolyline) cellX(e float64) int {
	return clampInt(int(math.Floor((e-ip.minE)/ip.cellM)), 0, ip.nx-1)
}

func (ip *IndexedPolyline) cellY(n float64) int {
	return clampInt(int(math.Floor((n-ip.minN)/ip.cellM)), 0, ip.ny-1)
}

func clampInt(v, lo, hi int) int {
	if v < lo {
		return lo
	}
	if v > hi {
		return hi
	}
	return v
}

// ClosestS returns the arc length of the point on the polyline nearest to q
// and the distance to it, identical to Polyline.ClosestS but sub-linear in
// the segment count for queries near the line.
func (ip *IndexedPolyline) ClosestS(q ENU) (s, dist float64) {
	if ip.cells == nil {
		return ip.line.ClosestS(q)
	}
	// Ring expansion from the query's (virtual, possibly off-grid) cell.
	// After each ring the best distance so far upper-bounds the answer; a
	// ring at Chebyshev radius r cannot hold anything closer than
	// (r-1)*cellM when the query sits inside its own cell, so expansion
	// stops once that lower bound exceeds the best.
	cx := int(math.Floor((q.E - ip.minE) / ip.cellM))
	cy := int(math.Floor((q.N - ip.minN) / ip.cellM))
	maxRing := maxInt(maxInt(cx, ip.nx-1-cx), maxInt(cy, ip.ny-1-cy))
	if maxRing < 0 {
		maxRing = 0
	}
	best := math.Inf(1)
	cand := make([]int32, 0, 64)
	for r := 0; r <= maxRing; r++ {
		if !math.IsInf(best, 1) && float64(r-1)*ip.cellM > best {
			break
		}
		prev := len(cand)
		cand = ip.appendRing(cand, cx, cy, r)
		for _, si := range cand[prev:] {
			if _, d := ip.line.segClosest(int(si), q); d < best {
				best = d
			}
		}
	}
	// Exact pass: evaluate the (deduplicated) candidates in ascending
	// segment order with the brute-force comparison, so the returned arc
	// length matches the exact scan even under distance ties.
	sortInt32(cand)
	best = math.Inf(1)
	bestS := 0.0
	prev := int32(-1)
	for _, si := range cand {
		if si == prev {
			continue
		}
		prev = si
		if cs, d := ip.line.segClosest(int(si), q); d < best {
			best, bestS = d, cs
		}
	}
	return bestS, best
}

// appendRing collects the segment lists of every in-grid cell at Chebyshev
// radius r around (cx, cy).
func (ip *IndexedPolyline) appendRing(cand []int32, cx, cy, r int) []int32 {
	add := func(x, y int) []int32 {
		if x < 0 || x >= ip.nx || y < 0 || y >= ip.ny {
			return cand
		}
		return append(cand, ip.cells[y*ip.nx+x]...)
	}
	if r == 0 {
		return add(cx, cy)
	}
	for x := cx - r; x <= cx+r; x++ {
		cand = add(x, cy-r)
		cand = add(x, cy+r)
	}
	for y := cy - r + 1; y <= cy+r-1; y++ {
		cand = add(cx-r, y)
		cand = add(cx+r, y)
	}
	return cand
}

func maxInt(a, b int) int {
	if a > b {
		return a
	}
	return b
}

// sortInt32 is an insertion sort; candidate sets are tens of entries, below
// the point where sort.Slice's overhead pays off.
func sortInt32(xs []int32) {
	for i := 1; i < len(xs); i++ {
		v := xs[i]
		j := i - 1
		for j >= 0 && xs[j] > v {
			xs[j+1] = xs[j]
			j--
		}
		xs[j+1] = v
	}
}
