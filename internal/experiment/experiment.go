// Package experiment reproduces every table and figure of the paper's
// evaluation (§IV) on the simulated substrate: each experiment builds its
// workload, runs the system (and the compared methods where the paper does),
// and returns a formatted table with the same rows/series the paper reports.
// DESIGN.md §3 maps experiment IDs to paper artifacts.
package experiment

import (
	"fmt"
	"math"
	"math/rand"
	"strings"

	"roadgrade/internal/core"
	"roadgrade/internal/fusion"
	"roadgrade/internal/groundtruth"
	"roadgrade/internal/lanechange"
	"roadgrade/internal/road"
	"roadgrade/internal/sensors"
	"roadgrade/internal/stats"
	"roadgrade/internal/vehicle"
)

// Options configure an experiment run.
type Options struct {
	// Seed drives all randomness; the same seed reproduces the run.
	Seed int64
	// Quick shrinks workloads (fewer drivers, shorter network) so the
	// experiment finishes in test-suite time. Benchmarks and the CLI run
	// with Quick=false.
	Quick bool
}

// Table is a rendered experiment result.
type Table struct {
	ID     string     `json:"id"`
	Title  string     `json:"title"`
	Note   string     `json:"note,omitempty"`
	Header []string   `json:"header"`
	Rows   [][]string `json:"rows"`
}

// String renders the table as aligned text.
func (t Table) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "== %s: %s ==\n", t.ID, t.Title)
	if t.Note != "" {
		fmt.Fprintf(&b, "%s\n", t.Note)
	}
	cols := len(t.Header)
	for _, row := range t.Rows {
		if len(row) > cols {
			cols = len(row)
		}
	}
	widths := make([]int, cols)
	for i, h := range t.Header {
		widths[i] = len(h)
	}
	for _, row := range t.Rows {
		for i, cell := range row {
			if len(cell) > widths[i] {
				widths[i] = len(cell)
			}
		}
	}
	writeRow := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(&b, "%-*s", widths[i], c)
		}
		b.WriteString("\n")
	}
	writeRow(t.Header)
	sep := make([]string, len(t.Header))
	for i := range sep {
		sep[i] = strings.Repeat("-", widths[i])
	}
	writeRow(sep)
	for _, row := range t.Rows {
		writeRow(row)
	}
	return b.String()
}

// cell formats a float at the given precision.
func cell(v float64, prec int) string { return fmt.Sprintf("%.*f", prec, v) }

// deg converts radians to degrees.
func deg(rad float64) float64 { return rad * 180 / math.Pi }

// cruiseKmh is the evaluation cruise speed (§IV-C: 40 km/h).
const cruiseKmh = 40.0

// workload bundles one simulated drive.
type workload struct {
	road  *road.Road
	trip  *vehicle.Trip
	trace *sensors.Trace
	ref   *groundtruth.Reference
}

// redRouteWorkload simulates the small-scale evaluation drive on the
// Table III red route, including lane changes, and builds the §III-D
// reference profile. The workload is memoized per seed and shared read-only
// across experiments.
func redRouteWorkload(seed int64) (*workload, error) {
	return cached(cacheKey{kind: "redRoute", seed: seed}, func() (*workload, error) {
		return buildRedRouteWorkload(seed)
	})
}

func buildRedRouteWorkload(seed int64) (*workload, error) {
	r, err := road.RedRoute()
	if err != nil {
		return nil, err
	}
	d := vehicle.DefaultDriver(cruiseKmh / 3.6)
	d.LaneChangesPerKm = 2
	trip, err := vehicle.SimulateTrip(vehicle.TripConfig{
		Road: r, Driver: d, Rng: rand.New(rand.NewSource(seed)),
	})
	if err != nil {
		return nil, err
	}
	trace, err := sensors.Sample(trip, sensors.DefaultConfig(), rand.New(rand.NewSource(seed+1)))
	if err != nil {
		return nil, err
	}
	ref, err := groundtruth.ReferenceFor(r, rand.New(rand.NewSource(seed+2)))
	if err != nil {
		return nil, err
	}
	return &workload{road: r, trip: trip, trace: trace, ref: ref}, nil
}

// refGradeAvg averages the reference profile over a window centred at s —
// per-1 m reference segments carry altimeter noise, so comparisons happen at
// cell granularity (see groundtruth docs).
func refGradeAvg(ref *groundtruth.Reference, s, window float64) float64 {
	return ref.GradeAvgAt(s, window)
}

// CalibrationResult is the driver-study output: per-maneuver features and
// the derived thresholds.
type CalibrationResult struct {
	Drivers    []string
	Features   []lanechange.ManeuverFeatures // left change at even, right at odd index
	Thresholds lanechange.Thresholds
}

// CalibrateFromStudy runs the ten-driver steering study (§III-B1): each
// driver performs a left and a right lane change at their cruise speed; the
// measured (gyro-noise-corrupted, then smoothed) steering-rate profiles are
// reduced to bump features; thresholds are the minima. The result is
// memoized per seed (nearly every experiment calibrates first) and must be
// treated as read-only.
func CalibrateFromStudy(seed int64) (*CalibrationResult, error) {
	return cached(cacheKey{kind: "calibrate", seed: seed}, func() (*CalibrationResult, error) {
		return calibrateFromStudy(seed)
	})
}

func calibrateFromStudy(seed int64) (*CalibrationResult, error) {
	rng := rand.New(rand.NewSource(seed))
	drivers := vehicle.StudyDrivers(rng)
	gyroNoise := sensors.DefaultConfig().Gyro
	res := &CalibrationResult{}
	const dt = 0.05
	for _, d := range drivers {
		res.Drivers = append(res.Drivers, d.Name)
		for _, dir := range []int{+1, -1} {
			states, err := vehicle.SimulateSingleLaneChange(d, d.TargetSpeedMS, dir, dt)
			if err != nil {
				return nil, fmt.Errorf("experiment: simulating %s maneuver: %w", d.Name, err)
			}
			steer := make([]float64, len(states))
			for i, st := range states {
				steer[i] = st.SteerRate + rng.NormFloat64()*gyroNoise.Sigma
			}
			smoothed, err := lanechange.SmoothProfile(dt, steer, 1.2)
			if err != nil {
				return nil, fmt.Errorf("experiment: smoothing %s profile: %w", d.Name, err)
			}
			f, err := lanechange.ExtractManeuverFeatures(dt, smoothed)
			if err != nil {
				return nil, fmt.Errorf("experiment: extracting %s features: %w", d.Name, err)
			}
			res.Features = append(res.Features, f)
		}
	}
	th, err := lanechange.Calibrate(res.Features)
	if err != nil {
		return nil, fmt.Errorf("experiment: calibrating thresholds: %w", err)
	}
	// The paper takes minima "in order not to miss any bumps whose
	// features are close to our results" — bumps observed on the road sit
	// at the minima ± sensor noise and smoothing attenuation, so leave a
	// tolerance below the study's minima.
	th.DeltaRad *= 0.88
	th.TMinS *= 0.8
	res.Thresholds = th
	return res, nil
}

// opsPipeline builds the proposed system's pipeline with study-calibrated
// thresholds.
func opsPipeline(seed int64) (*core.Pipeline, *CalibrationResult, error) {
	cal, err := CalibrateFromStudy(seed)
	if err != nil {
		return nil, nil, err
	}
	p, err := core.NewPipeline(core.Config{Thresholds: cal.Thresholds})
	if err != nil {
		return nil, nil, err
	}
	return p, cal, nil
}

// fusedProfile runs the full proposed system over a workload: adjust,
// estimate all four tracks, fuse on a 5 m grid.
func fusedProfile(p *core.Pipeline, w *workload) (*fusion.Profile, []*core.Track, error) {
	tracks, err := p.EstimateAll(w.trace, w.road.Line())
	if err != nil {
		return nil, nil, err
	}
	prof, err := fusion.FuseTracks(tracks, 5, w.road.Length())
	if err != nil {
		return nil, nil, err
	}
	return prof, tracks, nil
}

// profileErrors compares a fused profile against the reference, returning
// absolute errors in degrees (skipping the first skipM meters).
func profileErrors(prof *fusion.Profile, ref *groundtruth.Reference, skipM float64) []float64 {
	out := make([]float64, 0, len(prof.S))
	for i := range prof.S {
		if prof.S[i] < skipM || prof.S[i] > ref.Length() {
			continue
		}
		truth := refGradeAvg(ref, prof.S[i], prof.SpacingM)
		out = append(out, math.Abs(deg(prof.GradeRad[i]-truth)))
	}
	return out
}

// profileMRE is Σ|err| / Σ|truth| against the reference.
func profileMRE(prof *fusion.Profile, ref *groundtruth.Reference, skipM float64) float64 {
	var num, den float64
	for i := range prof.S {
		if prof.S[i] < skipM || prof.S[i] > ref.Length() {
			continue
		}
		truth := refGradeAvg(ref, prof.S[i], prof.SpacingM)
		num += math.Abs(prof.GradeRad[i] - truth)
		den += math.Abs(truth)
	}
	if den == 0 {
		return 0
	}
	return num / den
}

// seriesErrors compares an arbitrary (S, grade) series against the
// reference, in degrees.
func seriesErrors(s, grade []float64, ref *groundtruth.Reference, skipM float64) []float64 {
	out := make([]float64, 0, len(s))
	for i := range s {
		if s[i] < skipM || s[i] > ref.Length() {
			continue
		}
		truth := refGradeAvg(ref, s[i], 5)
		out = append(out, math.Abs(deg(grade[i]-truth)))
	}
	return out
}

// seriesMRE is the MRE of an (S, grade) series against the reference.
func seriesMRE(s, grade []float64, ref *groundtruth.Reference, skipM float64) float64 {
	var num, den float64
	for i := range s {
		if s[i] < skipM || s[i] > ref.Length() {
			continue
		}
		truth := refGradeAvg(ref, s[i], 5)
		num += math.Abs(grade[i] - truth)
		den += math.Abs(truth)
	}
	if den == 0 {
		return 0
	}
	return num / den
}

// medianOf is a convenience wrapper that tolerates empty input.
func medianOf(xs []float64) float64 {
	m, err := stats.Median(xs)
	if err != nil {
		return math.NaN()
	}
	return m
}
