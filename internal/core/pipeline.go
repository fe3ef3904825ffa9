package core

import (
	"errors"
	"fmt"
	"math"
	"time"

	"roadgrade/internal/frame"
	"roadgrade/internal/geo"
	"roadgrade/internal/lanechange"
	"roadgrade/internal/obs"
	"roadgrade/internal/sensors"
	"roadgrade/internal/vehicle"
)

// Pipeline instrumentation. Handles are package vars so the per-track and
// per-tick paths only touch atomics; spans are recorded per stage (never per
// tick) and are no-ops unless a collector enabled obs.DefaultTracer.
var (
	obsAdjustSeconds = obs.Default.Histogram("pipeline_adjust_seconds", obs.LatencyBuckets)
	obsTrackSeconds  = obs.Default.Histogram("pipeline_estimate_track_seconds", obs.LatencyBuckets)

	obsBatchRejected = obs.Default.Counter("pipeline_gate_rejected_total", obs.L("mode", "batch"))
	obsBatchResets   = obs.Default.Counter("pipeline_filter_resets_total", obs.L("mode", "batch"))
	obsBatchBridged  = obs.Default.Counter("pipeline_nonfinite_bridged_total", obs.L("mode", "batch"))

	obsStreamRejected = obs.Default.Counter("pipeline_gate_rejected_total", obs.L("mode", "streaming"))
	obsStreamResets   = obs.Default.Counter("pipeline_filter_resets_total", obs.L("mode", "streaming"))
	obsStreamBridged  = obs.Default.Counter("pipeline_nonfinite_bridged_total", obs.L("mode", "streaming"))
)

// Track is a road-gradient estimation track: one EKF pass over a trace using
// one velocity source (§III-C3 — "different velocity values ... result in
// different road gradient estimation tracks").
type Track struct {
	Source sensors.VelocitySource
	// T is the sample time, S the map-matched arc position along the
	// road (shared across tracks), GradeRad the θ estimate and Var the
	// filter's θ variance (P_k of Eq. 6) at each sample.
	T        []float64
	S        []float64
	GradeRad []float64
	Var      []float64
	// NIS is the track's average normalized innovation squared. A
	// consistent filter has NIS ≈ 1; the pipeline inflates Var by
	// max(1, NIS) so the Eq. (6) fusion weights reflect realized (not just
	// modeled) track quality.
	NIS float64
	// Rejected counts measurements the innovation gate refused (outliers and
	// non-finite readings); Resets counts automatic filter re-initializations
	// after divergence. Both are zero on a healthy drive.
	Rejected int
	Resets   int
}

// Len returns the number of samples in the track.
func (t *Track) Len() int { return len(t.T) }

// Config tunes the estimation pipeline. The zero value uses paper-faithful
// defaults.
type Config struct {
	// Params are the vehicle constants of Eq. (3) (default DefaultParams).
	Params vehicle.Params
	// Thresholds for lane-change detection (default SimulatorThresholds;
	// calibrate with experiment.CalibrateFromStudy or lanechange.Calibrate
	// for other drivers).
	Thresholds lanechange.Thresholds
	// HeadingWindowM is the map-heading granularity for w_road (default
	// frame.DefaultHeadingWindowM).
	HeadingWindowM float64
	// DisableLaneChangeCorrection skips Eq. (2) (ablation / baseline mode).
	DisableLaneChangeCorrection bool
	// DisableTwoPass turns off the forward-backward smoothing pass and
	// keeps the causal forward EKF only (ablation). Tracks are formed
	// after the drive and fused offline (§III-C3), so the default runs the
	// EKF in both directions and combines the passes, which removes the
	// filter lag at grade transitions.
	DisableTwoPass bool
	// ProcessNoiseV / ProcessNoiseTheta are the EKF process noise standard
	// deviations per √s (defaults 0.05 m/s, 0.012 rad).
	ProcessNoiseV     float64
	ProcessNoiseTheta float64
	// InitialGradeVar is the prior variance on θ (default (2°)²).
	InitialGradeVar float64
	// NISGate is the innovation gate: a velocity measurement whose
	// normalized innovation squared ν²/S exceeds the gate is rejected
	// instead of folded in, so multipath spikes and stalled-sensor jumps
	// cannot yank the state. Default 25 (a 5σ gate — wide enough that a
	// healthy drive essentially never trips it); negative disables gating.
	NISGate float64
	// DivergenceGradeRad bounds the plausible |θ| estimate; beyond it (or on
	// a non-finite state/covariance) the filter is declared diverged and
	// reset to the last good speed with the initial covariance. Default
	// 0.6 rad (≈34°, steeper than any drivable road).
	DivergenceGradeRad float64
}

func (c Config) withDefaults() Config {
	if c.Params.MassKg == 0 {
		c.Params = vehicle.DefaultParams()
	}
	if c.Thresholds.DeltaRad <= 0 || c.Thresholds.TMinS <= 0 {
		c.Thresholds = lanechange.SimulatorThresholds
	}
	if c.HeadingWindowM <= 0 {
		c.HeadingWindowM = frame.DefaultHeadingWindowM
	}
	if c.ProcessNoiseV <= 0 {
		c.ProcessNoiseV = 0.05
	}
	if c.ProcessNoiseTheta <= 0 {
		c.ProcessNoiseTheta = 0.012
	}
	if c.InitialGradeVar <= 0 {
		d := 2 * math.Pi / 180
		c.InitialGradeVar = d * d
	}
	if c.NISGate == 0 {
		c.NISGate = 25
	}
	if c.DivergenceGradeRad <= 0 {
		c.DivergenceGradeRad = 0.6
	}
	return c
}

// sourceNoise returns the velocity measurement noise σ for a source.
func sourceNoise(src sensors.VelocitySource) float64 {
	switch src {
	case sensors.SourceGPS:
		return 0.25
	case sensors.SourceSpeedometer:
		return 0.25
	case sensors.SourceAccelerometer:
		return 0.6
	case sensors.SourceCANBus:
		return 0.08
	default:
		return 0.5
	}
}

// Pipeline is the end-to-end estimator of Figure 1: data adjustment (lane
// change detection + velocity correction) followed by EKF gradient
// estimation per velocity source.
type Pipeline struct {
	cfg Config
}

// NewPipeline returns a pipeline with the given config.
func NewPipeline(cfg Config) (*Pipeline, error) {
	cfg = cfg.withDefaults()
	if err := cfg.Params.Validate(); err != nil {
		return nil, fmt.Errorf("core: invalid vehicle params: %w", err)
	}
	return &Pipeline{cfg: cfg}, nil
}

// Adjusted holds the data-adjustment stage output shared by all tracks.
type Adjusted struct {
	// SteerRates is the w_steer profile (smoothed input is used only
	// inside detection; this is the raw derived profile).
	SteerRates []float64
	// Detections are the lane changes found by Algorithm 1.
	Detections []lanechange.Detection
	// S is the common localization: arc position along the road per tick,
	// from odometer integration corrected by map-matched GPS fixes. All
	// tracks share it so fusion aligns spatially.
	S []float64
}

// Adjust runs the data-adjustment stage: derive w_steer from the gyroscope
// and map geometry, then detect lane changes.
func (p *Pipeline) Adjust(trace *sensors.Trace, line *geo.Polyline) (*Adjusted, error) {
	sp := obs.DefaultTracer.Start("pipeline.adjust", "pipeline")
	defer sp.End()
	start := time.Now()
	if trace == nil || len(trace.Records) == 0 {
		return nil, errors.New("core: empty trace")
	}
	if line == nil {
		return nil, errors.New("core: nil road line")
	}
	est, err := frame.NewSteeringEstimator(line, p.cfg.HeadingWindowM)
	if err != nil {
		return nil, fmt.Errorf("core: steering estimator: %w", err)
	}
	gyro := make([]float64, len(trace.Records))
	speed := make([]float64, len(trace.Records))
	for i, r := range trace.Records {
		gyro[i] = r.GyroYaw
		speed[i] = r.Speedometer
	}
	// Gap bridging: NaN/Inf readings (a crashed sensor HAL) are replaced by
	// the last finite value so downstream detection and localization see a
	// continuous, finite signal.
	obsBatchBridged.Add(uint64(bridgeNonFinite(gyro) + bridgeNonFinite(speed)))
	steer, err := est.SteerRates(trace.DT, gyro, speed)
	if err != nil {
		return nil, fmt.Errorf("core: deriving steer rates: %w", err)
	}
	det := lanechange.NewDetector(lanechange.Config{Thresholds: p.cfg.Thresholds})
	detections, err := det.Detect(trace.DT, steer, speed)
	if err != nil {
		return nil, fmt.Errorf("core: lane change detection: %w", err)
	}
	spLoc := obs.DefaultTracer.Start("pipeline.localize", "pipeline")
	s := localize(trace, speed, line)
	spLoc.End()
	obsAdjustSeconds.Observe(time.Since(start).Seconds())
	return &Adjusted{
		SteerRates: steer,
		Detections: detections,
		S:          s,
	}, nil
}

// bridgeNonFinite replaces NaN/Inf entries with the nearest preceding finite
// value (or the first finite value for a non-finite prefix; zeros if the
// whole series is bad). It returns the number of entries bridged.
func bridgeNonFinite(xs []float64) int {
	first := math.NaN()
	for _, x := range xs {
		if isFinite(x) {
			first = x
			break
		}
	}
	if !isFinite(first) {
		for i := range xs {
			xs[i] = 0
		}
		return len(xs)
	}
	bridged := 0
	last := first
	for i, x := range xs {
		if isFinite(x) {
			last = x
		} else {
			xs[i] = last
			bridged++
		}
	}
	return bridged
}

func isFinite(x float64) bool { return !math.IsNaN(x) && !math.IsInf(x, 0) }

// localize dead-reckons arc position from the odometer and snaps toward
// map-matched GPS fixes — how a phone app tracks where it is on the road
// between (and through) GPS dropouts. speeds is the bridged (finite)
// speedometer series; the maxSnapM/maxOffRoad guards double as multipath
// rejection, so spiked fixes cannot teleport the localization.
func localize(trace *sensors.Trace, speeds []float64, line *geo.Polyline) []float64 {
	const (
		blendGain  = 0.3 // pull toward the GPS-matched position per fix
		maxSnapM   = 60  // ignore fixes matching implausibly far away
		maxOffRoad = 25  // ignore fixes far off the road geometry
	)
	idx := line.Index()
	out := make([]float64, len(trace.Records))
	var s float64
	for i, rec := range trace.Records {
		s += speeds[i] * trace.DT
		if rec.GPSValid && isFinite(rec.GPSE) && isFinite(rec.GPSN) {
			sGPS, dist := idx.ClosestS(geo.ENU{E: rec.GPSE, N: rec.GPSN})
			if dist < maxOffRoad && math.Abs(sGPS-s) < maxSnapM {
				s += blendGain * (sGPS - s)
			}
		}
		out[i] = s
	}
	return out
}

// EstimateTrack runs the EKF over one velocity source, applying the Eq. (2)
// correction inside detected lane changes (unless disabled).
func (p *Pipeline) EstimateTrack(trace *sensors.Trace, adj *Adjusted, src sensors.VelocitySource) (*Track, error) {
	sp := obs.DefaultTracer.Start("pipeline.estimate_track", "pipeline", obs.L("source", src.String()))
	defer sp.End()
	start := time.Now()
	if trace == nil || len(trace.Records) == 0 {
		return nil, errors.New("core: empty trace")
	}
	if adj == nil {
		return nil, errors.New("core: nil adjusted data (call Adjust first)")
	}
	vels, err := trace.Velocity(src)
	if err != nil {
		return nil, fmt.Errorf("core: velocity source: %w", err)
	}

	// Eq. (2): correct the measured velocities inside lane changes.
	raw := make([]float64, len(vels))
	for i, v := range vels {
		raw[i] = v.V
	}
	corrected := raw
	if !p.cfg.DisableLaneChangeCorrection && len(adj.Detections) > 0 {
		corrected, err = lanechange.CorrectVelocities(trace.DT, raw, adj.SteerRates, adj.Detections)
		if err != nil {
			return nil, fmt.Errorf("core: velocity correction: %w", err)
		}
	}

	// One filter serves both sweep directions: the backward pass flips the
	// model's Δt and resets the state and covariance.
	f := newGradeFilter(p.cfg, trace.DT, sourceNoise(src), firstValid(vels))
	fwd, err := p.runPass(trace, vels, corrected, false, &f)
	if err != nil {
		return nil, err
	}
	grade, vari := fwd.grade, fwd.vari
	rejected, resets := fwd.rejected, fwd.resets
	if !p.cfg.DisableTwoPass {
		f.model.DT = -trace.DT
		f.reset(lastValid(vels))
		bwd, err := p.runPass(trace, vels, corrected, true, &f)
		if err != nil {
			return nil, err
		}
		rejected += bwd.rejected
		resets += bwd.resets
		// Per-sample inverse-variance combination of the causal and
		// anti-causal passes (zero-phase smoothing).
		for i := range grade {
			wf := 1 / vari[i]
			wb := 1 / bwd.vari[i]
			grade[i] = (wf*grade[i] + wb*bwd.grade[i]) / (wf + wb)
			vari[i] = 1 / (wf + wb)
		}
	}

	n := len(trace.Records)
	track := &Track{
		Source:   src,
		T:        make([]float64, 0, n),
		S:        make([]float64, 0, n),
		GradeRad: grade,
		Var:      vari,
		NIS:      fwd.nis,
		Rejected: rejected,
		Resets:   resets,
	}
	for i, rec := range trace.Records {
		track.T = append(track.T, rec.T)
		track.S = append(track.S, adj.S[i])
	}
	// Innovation-consistency calibration: an inconsistent filter (NIS > 1)
	// understates its variance by about the same factor.
	if scale := math.Max(1, track.NIS); scale > 1 {
		for i := range track.Var {
			track.Var[i] *= scale
		}
	}
	obsBatchRejected.Add(uint64(rejected))
	obsBatchResets.Add(uint64(resets))
	obsTrackSeconds.Observe(time.Since(start).Seconds())
	return track, nil
}

// passResult is one directional EKF sweep over the trace.
type passResult struct {
	grade    []float64
	vari     []float64
	nis      float64
	rejected int
	resets   int
}

// runPass sweeps the EKF over the trace forward (reverse=false) or backward
// in time (reverse=true; the caller flips the model's Δt and resets the
// filter state between directions). The sweep is hardened against degraded
// input: non-finite accelerometer reads are bridged with the last finite
// value, measurements are innovation-gated, and a diverged filter (non-finite
// state or implausible grade) is re-initialized from the last good speed
// instead of poisoning the rest of the pass.
func (p *Pipeline) runPass(trace *sensors.Trace, vels []sensors.VelSample, corrected []float64, reverse bool, f *gradeFilter) (passResult, error) {
	n := len(trace.Records)
	res := passResult{grade: make([]float64, n), vari: make([]float64, n)}
	var nisSum float64
	var nisN int
	lastAccel := 0.0
	lastGoodV := f.x[0] // the caller's (finite) initial speed
	for step := 0; step < n; step++ {
		i := step
		if reverse {
			i = n - 1 - step
		}
		rec := trace.Records[i]
		if isFinite(rec.AccelLong) {
			lastAccel = rec.AccelLong
		}
		f.predict(lastAccel)
		if vels[i].Valid {
			priorVar := f.p[0]
			z := corrected[i]
			innov, accepted, err := f.update(z, p.cfg.NISGate)
			if err != nil {
				return passResult{}, fmt.Errorf("core: EKF update at t=%.2f: %w", rec.T, err)
			}
			if accepted {
				nisSum += innov * innov / (priorVar + f.r)
				nisN++
				lastGoodV = z
			} else {
				res.rejected++
			}
		}
		if f.resetIfDiverged(lastGoodV) {
			res.resets++
		}
		res.grade[i] = f.x[1]
		res.vari[i] = math.Max(1e-12, f.p[3])
	}
	if nisN > 0 {
		res.nis = nisSum / float64(nisN)
	}
	return res, nil
}

// EstimateAll produces the four velocity-source tracks of §III-C3 from one
// trace.
func (p *Pipeline) EstimateAll(trace *sensors.Trace, line *geo.Polyline) ([]*Track, error) {
	sp := obs.DefaultTracer.Start("pipeline.estimate_all", "pipeline")
	defer sp.End()
	adj, err := p.Adjust(trace, line)
	if err != nil {
		return nil, err
	}
	sources := sensors.AllSources()
	tracks := make([]*Track, 0, len(sources))
	for _, src := range sources {
		tr, err := p.EstimateTrack(trace, adj, src)
		if err != nil {
			return nil, fmt.Errorf("core: estimating %v track: %w", src, err)
		}
		tracks = append(tracks, tr)
	}
	return tracks, nil
}

func firstValid(vels []sensors.VelSample) float64 {
	for _, v := range vels {
		if v.Valid && isFinite(v.V) {
			return v.V
		}
	}
	return 0
}

func lastValid(vels []sensors.VelSample) float64 {
	for i := len(vels) - 1; i >= 0; i-- {
		if vels[i].Valid && isFinite(vels[i].V) {
			return vels[i].V
		}
	}
	return 0
}
