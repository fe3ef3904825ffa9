package core

import (
	"errors"
	"fmt"
	"math"

	"roadgrade/internal/frame"
	"roadgrade/internal/geo"
	"roadgrade/internal/sensors"
)

// Streaming is the online (causal) variant of the estimator: a phone app
// feeds sensor records as they arrive and reads back the current gradient
// estimate in real time. It runs a single forward EKF on one velocity source
// with the shared localization; the offline Pipeline (two-pass, all sources,
// fusion) remains the accurate post-drive path.
//
// Not safe for concurrent use.
type Streaming struct {
	cfg    Config
	source sensors.VelocitySource
	idx    *geo.IndexedPolyline
	steer  *frame.SteeringEstimator
	filter gradeFilter
	dt     float64

	started bool
	s       float64 // localized arc position

	// Graceful-degradation state: last finite readings for gap bridging,
	// plus counters a supervisor can watch.
	lastAccel  float64
	lastSpeedo float64
	rejected   int
	resets     int
}

// Estimate is the streaming output after one record.
type Estimate struct {
	T        float64
	S        float64
	SpeedMS  float64
	GradeRad float64
	// GradeVar is the filter's variance on the gradient state.
	GradeVar float64
	// SteerRate is the derived w_steer at this tick.
	SteerRate float64
}

// NewStreaming builds an online estimator over one velocity source. dt is
// the sensor tick interval.
func NewStreaming(cfg Config, line *geo.Polyline, src sensors.VelocitySource, dt float64) (*Streaming, error) {
	if line == nil {
		return nil, errors.New("core: nil road line")
	}
	if dt <= 0 {
		return nil, fmt.Errorf("core: invalid dt %v", dt)
	}
	cfg = cfg.withDefaults()
	if err := cfg.Params.Validate(); err != nil {
		return nil, fmt.Errorf("core: invalid vehicle params: %w", err)
	}
	est, err := frame.NewSteeringEstimator(line, cfg.HeadingWindowM)
	if err != nil {
		return nil, fmt.Errorf("core: steering estimator: %w", err)
	}
	return &Streaming{
		cfg:    cfg,
		source: src,
		idx:    line.Index(),
		steer:  est,
		filter: newGradeFilter(cfg, dt, sourceNoise(src), 0),
		dt:     dt,
	}, nil
}

// Push feeds one sensor record and returns the updated estimate. The first
// record initializes the filter from the measured speed. Degraded input fails
// soft: non-finite readings are bridged with the last finite value, outlier
// measurements are gated out, and a diverged filter resets itself.
func (st *Streaming) Push(rec sensors.Record) (Estimate, error) {
	v, valid, err := st.velocityOf(rec)
	if err != nil {
		return Estimate{}, err
	}
	if valid && !isFinite(v) {
		valid = false
	}
	if isFinite(rec.AccelLong) {
		st.lastAccel = rec.AccelLong
	} else {
		obsStreamBridged.Inc()
	}
	if isFinite(rec.Speedometer) {
		st.lastSpeedo = rec.Speedometer
	} else {
		obsStreamBridged.Inc()
	}
	if !st.started {
		v0 := v
		if !valid {
			v0 = st.lastSpeedo
		}
		st.filter.reset(v0)
		st.started = true
	}

	// Localize: odometer integration snapped to map-matched GPS fixes. The
	// distance guards double as multipath rejection.
	st.s += st.lastSpeedo * st.dt
	if rec.GPSValid && isFinite(rec.GPSE) && isFinite(rec.GPSN) {
		sGPS, dist := st.idx.ClosestS(geo.ENU{E: rec.GPSE, N: rec.GPSN})
		if dist < 25 && math.Abs(sGPS-st.s) < 60 {
			st.s += 0.3 * (sGPS - st.s)
		}
	}

	st.filter.predict(st.lastAccel)
	if valid {
		_, accepted, err := st.filter.update(v, st.cfg.NISGate)
		if err != nil {
			return Estimate{}, fmt.Errorf("core: streaming update at t=%.2f: %w", rec.T, err)
		}
		if !accepted {
			st.rejected++
			obsStreamRejected.Inc()
		}
	}
	// Divergence detection: a non-finite or implausible state re-initializes
	// the filter from the last finite speed instead of streaming garbage.
	v0 := st.lastSpeedo
	if valid {
		v0 = v
	}
	if st.filter.resetIfDiverged(v0) {
		st.resets++
		obsStreamResets.Inc()
	}
	steerGyro := rec.GyroYaw
	if !isFinite(steerGyro) {
		steerGyro = 0
	}
	return Estimate{
		T:         rec.T,
		S:         st.s,
		SpeedMS:   st.filter.x[0],
		GradeRad:  st.filter.x[1],
		GradeVar:  st.filter.p[3],
		SteerRate: steerGyro - st.steer.RoadRateAt(st.s, math.Max(st.lastSpeedo, 0.1)),
	}, nil
}

// velocityOf extracts the configured source's speed from one record. The
// accelerometer-derived source needs the whole trace and is not available in
// streaming mode.
func (st *Streaming) velocityOf(rec sensors.Record) (float64, bool, error) {
	switch st.source {
	case sensors.SourceGPS:
		return rec.GPSSpeed, rec.GPSValid, nil
	case sensors.SourceSpeedometer:
		return rec.Speedometer, true, nil
	case sensors.SourceCANBus:
		return rec.CANSpeed, true, nil
	case sensors.SourceAccelerometer:
		return 0, false, errors.New("core: accelerometer velocity is not available in streaming mode (dead reckoning needs the whole trace)")
	default:
		return 0, false, fmt.Errorf("core: unknown velocity source %d", int(st.source))
	}
}
