package road

import (
	"encoding/csv"
	"errors"
	"fmt"
	"io"
	"math"
	"strconv"

	"roadgrade/internal/geo"
)

// ElevationField is anything that can report terrain altitude at a planar
// position: the procedural Terrain, or a GridTerrain imported from real
// elevation data. ElevationAt may be called from several goroutines at
// once (GenerateNetwork samples its streets' profiles in parallel); both
// implementations here only read.
type ElevationField interface {
	ElevationAt(p geo.ENU) float64
}

// Interface compliance.
var (
	_ ElevationField = (*Terrain)(nil)
	_ ElevationField = (*GridTerrain)(nil)
)

// ProfileAlongField samples any elevation field along a polyline every
// spacing meters and returns the resulting road profile.
func ProfileAlongField(f ElevationField, line *geo.Polyline, spacing float64) (*Profile, error) {
	if f == nil {
		return nil, errors.New("road: nil elevation field")
	}
	pts, err := line.Resample(spacing)
	if err != nil {
		return nil, err
	}
	alts := make([]float64, len(pts))
	for i, p := range pts {
		alts[i] = f.ElevationAt(p)
	}
	return NewProfile(spacing, alts)
}

// GridTerrain is a regular elevation grid with bilinear interpolation — the
// shape real digital elevation models (USGS, SRTM exports) come in, so real
// terrain can drive the simulator.
type GridTerrain struct {
	originE, originN float64 // ENU position of grid cell (0, 0)
	cellM            float64 // cell edge length
	rows, cols       int
	z                []float64 // row-major, z[r*cols+c]
}

// NewGridTerrain builds a grid from row-major elevation samples.
func NewGridTerrain(originE, originN, cellM float64, rows, cols int, z []float64) (*GridTerrain, error) {
	if cellM <= 0 {
		return nil, fmt.Errorf("road: invalid grid cell size %v", cellM)
	}
	if rows < 2 || cols < 2 {
		return nil, fmt.Errorf("road: grid needs at least 2x2 cells, got %dx%d", rows, cols)
	}
	if len(z) != rows*cols {
		return nil, fmt.Errorf("road: grid has %d samples, want %d", len(z), rows*cols)
	}
	return &GridTerrain{
		originE: originE, originN: originN, cellM: cellM,
		rows: rows, cols: cols,
		z: append([]float64(nil), z...),
	}, nil
}

// ElevationAt returns the bilinearly interpolated altitude at p, clamping
// positions outside the grid to its edges.
func (g *GridTerrain) ElevationAt(p geo.ENU) float64 {
	fx := (p.E - g.originE) / g.cellM
	fy := (p.N - g.originN) / g.cellM
	fx = clampRange(fx, 0, float64(g.cols-1))
	fy = clampRange(fy, 0, float64(g.rows-1))
	c0 := int(fx)
	r0 := int(fy)
	if c0 >= g.cols-1 {
		c0 = g.cols - 2
	}
	if r0 >= g.rows-1 {
		r0 = g.rows - 2
	}
	tx := fx - float64(c0)
	ty := fy - float64(r0)
	z00 := g.z[r0*g.cols+c0]
	z01 := g.z[r0*g.cols+c0+1]
	z10 := g.z[(r0+1)*g.cols+c0]
	z11 := g.z[(r0+1)*g.cols+c0+1]
	return z00*(1-tx)*(1-ty) + z01*tx*(1-ty) + z10*(1-tx)*ty + z11*tx*ty
}

// ProfileAlong samples the grid along a polyline.
func (g *GridTerrain) ProfileAlong(line *geo.Polyline, spacing float64) (*Profile, error) {
	return ProfileAlongField(g, line, spacing)
}

func clampRange(x, lo, hi float64) float64 {
	if x < lo {
		return lo
	}
	if x > hi {
		return hi
	}
	return x
}

// Grid CSV format: a header row
//
//	grid,<originE>,<originN>,<cellM>,<rows>,<cols>
//
// followed by <rows> rows of <cols> elevation values each (row 0 is the
// southernmost / lowest-N row).

// WriteGridCSV serializes a grid terrain.
func WriteGridCSV(w io.Writer, g *GridTerrain) error {
	if g == nil {
		return errors.New("road: nil grid")
	}
	cw := csv.NewWriter(w)
	header := []string{
		"grid",
		formatF(g.originE), formatF(g.originN), formatF(g.cellM),
		strconv.Itoa(g.rows), strconv.Itoa(g.cols),
	}
	if err := cw.Write(header); err != nil {
		return fmt.Errorf("road: writing grid header: %w", err)
	}
	row := make([]string, g.cols)
	for r := 0; r < g.rows; r++ {
		for c := 0; c < g.cols; c++ {
			row[c] = formatF(g.z[r*g.cols+c])
		}
		if err := cw.Write(row); err != nil {
			return fmt.Errorf("road: writing grid row %d: %w", r, err)
		}
	}
	cw.Flush()
	if err := cw.Error(); err != nil {
		return fmt.Errorf("road: flushing grid CSV: %w", err)
	}
	return nil
}

// ReadGridCSV parses a grid terrain written by WriteGridCSV (or exported
// from a DEM in the same shape).
func ReadGridCSV(r io.Reader) (*GridTerrain, error) {
	cr := csv.NewReader(r)
	cr.FieldsPerRecord = -1
	rows, err := cr.ReadAll()
	if err != nil {
		return nil, fmt.Errorf("road: reading grid CSV: %w", err)
	}
	if len(rows) < 3 {
		return nil, errors.New("road: grid CSV needs a header and at least two rows")
	}
	h := rows[0]
	if len(h) != 6 || h[0] != "grid" {
		return nil, errors.New("road: grid CSV header malformed (want grid,<E>,<N>,<cell>,<rows>,<cols>)")
	}
	vals := make([]float64, 3)
	for i := 0; i < 3; i++ {
		v, err := strconv.ParseFloat(h[i+1], 64)
		if err != nil {
			return nil, fmt.Errorf("road: grid header field %d: %w", i+1, err)
		}
		vals[i] = v
	}
	nRows, err := strconv.Atoi(h[4])
	if err != nil {
		return nil, fmt.Errorf("road: grid rows: %w", err)
	}
	nCols, err := strconv.Atoi(h[5])
	if err != nil {
		return nil, fmt.Errorf("road: grid cols: %w", err)
	}
	if len(rows)-1 != nRows {
		return nil, fmt.Errorf("road: grid CSV has %d data rows, header says %d", len(rows)-1, nRows)
	}
	z := make([]float64, 0, nRows*nCols)
	for ri, row := range rows[1:] {
		if len(row) != nCols {
			return nil, fmt.Errorf("road: grid row %d has %d cols, want %d", ri, len(row), nCols)
		}
		for ci, cell := range row {
			v, err := strconv.ParseFloat(cell, 64)
			if err != nil {
				return nil, fmt.Errorf("road: grid cell (%d,%d): %w", ri, ci, err)
			}
			if math.IsNaN(v) {
				return nil, fmt.Errorf("road: grid cell (%d,%d) is NaN", ri, ci)
			}
			z = append(z, v)
		}
	}
	return NewGridTerrain(vals[0], vals[1], vals[2], nRows, nCols, z)
}

func formatF(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }

// SampleToGrid rasterizes any elevation field into a grid covering the
// given extent — useful for archiving a procedural terrain or downsampling.
func SampleToGrid(f ElevationField, originE, originN, cellM float64, rows, cols int) (*GridTerrain, error) {
	if f == nil {
		return nil, errors.New("road: nil elevation field")
	}
	if cellM <= 0 || rows < 2 || cols < 2 {
		return nil, fmt.Errorf("road: invalid grid spec %vx%d x %d", cellM, rows, cols)
	}
	z := make([]float64, 0, rows*cols)
	for r := 0; r < rows; r++ {
		for c := 0; c < cols; c++ {
			z = append(z, f.ElevationAt(geo.ENU{
				E: originE + float64(c)*cellM,
				N: originN + float64(r)*cellM,
			}))
		}
	}
	return NewGridTerrain(originE, originN, cellM, rows, cols, z)
}
