package road

import (
	"math"
	"math/rand"

	"roadgrade/internal/geo"
)

// Terrain is a smooth deterministic elevation field over a local ENU plane.
// It stands in for the real Charlottesville topography: a sum of randomly
// oriented sinusoidal ridges whose wavelengths (hundreds of meters to a few
// km) and amplitudes are tuned so road grades mostly stay within the ±6-7°
// range the paper's hilly urban routes exhibit.
type Terrain struct {
	waves []wave
	base  float64
}

type wave struct {
	kE, kN float64 // wave vector (rad/m)
	amp    float64 // meters
	phase  float64
}

// TerrainConfig controls terrain roughness.
type TerrainConfig struct {
	// Waves is the number of sinusoidal components (default 12).
	Waves int
	// MinWavelengthM / MaxWavelengthM bound component wavelengths
	// (defaults 400 m and 4000 m).
	MinWavelengthM float64
	MaxWavelengthM float64
	// MaxGradeDeg approximately bounds the slope magnitude of each
	// component; the summed field stays near this bound because long
	// wavelengths dominate (default 4.5).
	MaxGradeDeg float64
	// BaseAltM is the mean altitude (default 180 m, Charlottesville's).
	BaseAltM float64
}

func (c TerrainConfig) withDefaults() TerrainConfig {
	if c.Waves <= 0 {
		c.Waves = 12
	}
	if c.MinWavelengthM <= 0 {
		c.MinWavelengthM = 400
	}
	if c.MaxWavelengthM <= c.MinWavelengthM {
		c.MaxWavelengthM = 4000
	}
	if c.MaxGradeDeg <= 0 {
		c.MaxGradeDeg = 5.0
	}
	if c.BaseAltM == 0 {
		c.BaseAltM = 180
	}
	return c
}

// NewTerrain builds a terrain field from a seed and config. The same seed
// always produces the same terrain.
func NewTerrain(seed int64, cfg TerrainConfig) *Terrain {
	cfg = cfg.withDefaults()
	rng := rand.New(rand.NewSource(seed))
	t := &Terrain{base: cfg.BaseAltM}
	// Per-component slope budget: slope of A·sin(k·x) is A·k; divide the
	// total budget across components assuming ~sqrt accumulation.
	slopeBudget := math.Tan(cfg.MaxGradeDeg*math.Pi/180) / math.Sqrt(float64(cfg.Waves)/2)
	for i := 0; i < cfg.Waves; i++ {
		// Log-uniform wavelength.
		logMin, logMax := math.Log(cfg.MinWavelengthM), math.Log(cfg.MaxWavelengthM)
		wl := math.Exp(logMin + rng.Float64()*(logMax-logMin))
		k := 2 * math.Pi / wl
		dir := rng.Float64() * 2 * math.Pi
		amp := slopeBudget / k * (0.5 + rng.Float64())
		t.waves = append(t.waves, wave{
			kE:    k * math.Cos(dir),
			kN:    k * math.Sin(dir),
			amp:   amp,
			phase: rng.Float64() * 2 * math.Pi,
		})
	}
	return t
}

// ElevationAt returns the terrain altitude at a planar position. It only
// reads t, so it may be called from several goroutines at once:
// GenerateNetwork samples its streets' profiles in parallel.
func (t *Terrain) ElevationAt(p geo.ENU) float64 {
	z := t.base
	for _, w := range t.waves {
		z += w.amp * math.Sin(w.kE*p.E+w.kN*p.N+w.phase)
	}
	return z
}

// ProfileAlong samples the terrain along a polyline every spacing meters and
// returns the resulting road profile.
func (t *Terrain) ProfileAlong(line *geo.Polyline, spacing float64) (*Profile, error) {
	prof, _, err := t.profileAlong(line, spacing, nil)
	return prof, err
}

// profileAlong is ProfileAlong resampling the line into buf, which it
// returns for the next call: the profile's altitudes are then the only
// allocation, made once at their final size.
func (t *Terrain) profileAlong(line *geo.Polyline, spacing float64, buf []geo.ENU) (*Profile, []geo.ENU, error) {
	pts, err := line.AppendResample(buf[:0], spacing)
	if err != nil {
		return nil, buf, err
	}
	alts := make([]float64, len(pts))
	for i, p := range pts {
		alts[i] = t.ElevationAt(p)
	}
	prof, err := ownProfile(spacing, alts)
	return prof, pts, err
}
