// Package faultinject corrupts sensor traces with the failure modes real
// phone deployments exhibit — IMU sample freezes and drops, stuck
// accelerometer axes, clock jitter and skew, speedometer/OBD stalls, GPS
// multipath spikes, ADC saturation, and NaN bursts from crashing sensor HALs.
//
// Injection is deterministic: the same (trace, plan, severity, seed) always
// produces the same corrupted trace, so robustness experiments are exactly
// reproducible. Faults compose through a Plan and scale through a severity
// knob in [0, 1] so sweeps can chart graceful degradation. The input trace is
// never modified; every application works on a fresh clone.
package faultinject

import (
	"math"
	"math/rand"

	"roadgrade/internal/sensors"
)

// Fault is one failure mode. Inject corrupts the trace in place; severity is
// clamped to [0, 1] by the Plan before the call (0 = no fault, 1 = worst
// modeled case). Implementations must draw all randomness from rng.
type Fault interface {
	Name() string
	Inject(tr *sensors.Trace, severity float64, rng *rand.Rand)
}

// Plan is a named, composable set of faults applied in order.
type Plan struct {
	Name   string
	Faults []Fault
}

// Apply clones the trace and injects every fault of the plan at the given
// severity. Each fault draws from its own seeded stream, so adding a fault to
// a plan does not perturb the randomness of the others.
func (p Plan) Apply(tr *sensors.Trace, severity float64, seed int64) *sensors.Trace {
	out := Clone(tr)
	sev := clamp01(severity)
	if sev == 0 {
		return out
	}
	for i, f := range p.Faults {
		rng := rand.New(rand.NewSource(seed + int64(i)*1_000_003))
		f.Inject(out, sev, rng)
	}
	return out
}

// Clone deep-copies the records of a trace. Truth is shared: it is read-only
// evaluation data and faults never touch it.
func Clone(tr *sensors.Trace) *sensors.Trace {
	out := &sensors.Trace{DT: tr.DT, Truth: tr.Truth}
	out.Records = make([]sensors.Record, len(tr.Records))
	copy(out.Records, tr.Records)
	return out
}

// DefaultPlans returns one single-fault plan per modeled failure mode, the
// sweep set RobustnessSweep charts.
func DefaultPlans() []Plan {
	return []Plan{
		{Name: "imu-freeze", Faults: []Fault{&IMUFreeze{}}},
		{Name: "imu-drop", Faults: []Fault{&IMUDrop{}}},
		{Name: "stuck-axis", Faults: []Fault{&StuckAxis{}}},
		{Name: "clock-jitter", Faults: []Fault{&ClockJitter{}}},
		{Name: "clock-skew", Faults: []Fault{&ClockSkew{}}},
		{Name: "speedo-stall", Faults: []Fault{&SpeedStall{}}},
		{Name: "obd-stall", Faults: []Fault{&SpeedStall{OBD: true}}},
		{Name: "gps-multipath", Faults: []Fault{&GPSMultipath{}}},
		{Name: "accel-saturation", Faults: []Fault{&Saturation{}}},
		{Name: "nan-burst", Faults: []Fault{&NaNBurst{}}},
	}
}

// episodes walks the trace ticks and yields [start, end) index ranges of
// failure episodes: per-tick onset hazard ratePerMin (scaled by severity),
// exponential episode duration meanDurS.
func episodes(tr *sensors.Trace, ratePerMin, meanDurS, severity float64, rng *rand.Rand, visit func(start, end int)) {
	n := len(tr.Records)
	hazard := severity * ratePerMin / 60 * tr.DT
	for i := 0; i < n; i++ {
		if rng.Float64() >= hazard {
			continue
		}
		dur := rng.ExpFloat64() * meanDurS
		end := i + int(dur/tr.DT)
		if end <= i {
			end = i + 1
		}
		if end > n {
			end = n
		}
		visit(i, end)
		i = end // episodes do not overlap
	}
}

// IMUFreeze models a HAL hiccup where the IMU keeps reporting the last sample:
// all IMU-class channels hold their onset value for the episode.
type IMUFreeze struct {
	// RatePerMin is the episode onset rate at severity 1 (default 4/min).
	RatePerMin float64
	// MeanDurS is the mean episode length (default 2 s).
	MeanDurS float64
}

// Name implements Fault.
func (f *IMUFreeze) Name() string { return "imu-freeze" }

// Inject implements Fault.
func (f *IMUFreeze) Inject(tr *sensors.Trace, sev float64, rng *rand.Rand) {
	rate, dur := defaultF(f.RatePerMin, 4), defaultF(f.MeanDurS, 2)
	episodes(tr, rate, dur, sev, rng, func(start, end int) {
		frozen := tr.Records[start]
		for i := start; i < end; i++ {
			r := &tr.Records[i]
			r.AccelLong, r.GyroYaw = frozen.AccelLong, frozen.GyroYaw
			r.RawAccelX, r.RawAccelY, r.RawAccelZ = frozen.RawAccelX, frozen.RawAccelY, frozen.RawAccelZ
			r.RawGyroX, r.RawGyroY, r.RawGyroZ = frozen.RawGyroX, frozen.RawGyroY, frozen.RawGyroZ
		}
	})
}

// IMUDrop models missing IMU samples surfaced as zeros (what an app reads
// when the sensor queue underruns).
type IMUDrop struct {
	RatePerMin float64 // default 4/min at severity 1
	MeanDurS   float64 // default 1.5 s
}

// Name implements Fault.
func (f *IMUDrop) Name() string { return "imu-drop" }

// Inject implements Fault.
func (f *IMUDrop) Inject(tr *sensors.Trace, sev float64, rng *rand.Rand) {
	rate, dur := defaultF(f.RatePerMin, 4), defaultF(f.MeanDurS, 1.5)
	episodes(tr, rate, dur, sev, rng, func(start, end int) {
		for i := start; i < end; i++ {
			r := &tr.Records[i]
			r.AccelLong, r.GyroYaw = 0, 0
			r.RawAccelX, r.RawAccelY, r.RawAccelZ = 0, 0, 0
			r.RawGyroX, r.RawGyroY, r.RawGyroZ = 0, 0, 0
		}
	})
}

// StuckAxis freezes the longitudinal accelerometer axis (the grade-bearing
// channel) at a constant reading from a random onset to the end of the trace.
// Severity sets the stuck fraction of the drive.
type StuckAxis struct{}

// Name implements Fault.
func (f *StuckAxis) Name() string { return "stuck-axis" }

// Inject implements Fault.
func (f *StuckAxis) Inject(tr *sensors.Trace, sev float64, rng *rand.Rand) {
	n := len(tr.Records)
	if n == 0 {
		return
	}
	// Stuck tail covers up to half the drive at severity 1.
	frac := 0.5 * sev * (0.5 + 0.5*rng.Float64())
	start := n - int(frac*float64(n))
	if start < 0 {
		start = 0
	}
	if start >= n {
		return
	}
	stuck := tr.Records[start].RawAccelY
	for i := start; i < n; i++ {
		tr.Records[i].RawAccelY = stuck
		tr.Records[i].AccelLong = stuck
	}
}

// ClockJitter perturbs per-sample timestamps (non-monotonic wobble), the
// classic smartphone sensor-event timestamp pathology.
type ClockJitter struct {
	// SigmaS is the jitter standard deviation at severity 1 (default 30 ms).
	SigmaS float64
}

// Name implements Fault.
func (f *ClockJitter) Name() string { return "clock-jitter" }

// Inject implements Fault.
func (f *ClockJitter) Inject(tr *sensors.Trace, sev float64, rng *rand.Rand) {
	sigma := defaultF(f.SigmaS, 0.03) * sev
	for i := range tr.Records {
		tr.Records[i].T += rng.NormFloat64() * sigma
	}
}

// ClockSkew stretches the timestamp base (a drifting phone clock): at
// severity 1 the clock runs 2% fast.
type ClockSkew struct {
	MaxPPM float64 // default 20000 ppm (2%)
}

// Name implements Fault.
func (f *ClockSkew) Name() string { return "clock-skew" }

// Inject implements Fault.
func (f *ClockSkew) Inject(tr *sensors.Trace, sev float64, rng *rand.Rand) {
	scale := 1 + defaultF(f.MaxPPM, 20000)*1e-6*sev
	for i := range tr.Records {
		tr.Records[i].T *= scale
	}
}

// SpeedStall holds a speed channel at its last value during episodes: the
// phone speedometer (OBD=false) or the CAN/OBD wheel speed and torque
// (OBD=true, a stalling dongle).
type SpeedStall struct {
	OBD        bool
	RatePerMin float64 // default 3/min at severity 1
	MeanDurS   float64 // default 4 s
}

// Name implements Fault.
func (f *SpeedStall) Name() string {
	if f.OBD {
		return "obd-stall"
	}
	return "speedo-stall"
}

// Inject implements Fault.
func (f *SpeedStall) Inject(tr *sensors.Trace, sev float64, rng *rand.Rand) {
	rate, dur := defaultF(f.RatePerMin, 3), defaultF(f.MeanDurS, 4)
	episodes(tr, rate, dur, sev, rng, func(start, end int) {
		held := tr.Records[start]
		for i := start; i < end; i++ {
			if f.OBD {
				tr.Records[i].CANSpeed = held.CANSpeed
				tr.Records[i].CANTorque = held.CANTorque
			} else {
				tr.Records[i].Speedometer = held.Speedometer
			}
		}
	})
}

// GPSMultipath spikes valid GPS fixes with large position/altitude offsets
// (urban-canyon reflections). Severity sets the per-fix spike probability.
type GPSMultipath struct {
	// SpikeProb is the per-fix spike probability at severity 1 (default 0.3).
	SpikeProb float64
	// OffsetM is the spike magnitude scale (default 80 m).
	OffsetM float64
}

// Name implements Fault.
func (f *GPSMultipath) Name() string { return "gps-multipath" }

// Inject implements Fault.
func (f *GPSMultipath) Inject(tr *sensors.Trace, sev float64, rng *rand.Rand) {
	prob := defaultF(f.SpikeProb, 0.3) * sev
	mag := defaultF(f.OffsetM, 80)
	for i := range tr.Records {
		r := &tr.Records[i]
		if !r.GPSValid || rng.Float64() >= prob {
			continue
		}
		ang := rng.Float64() * 2 * math.Pi
		d := mag * (0.5 + rng.ExpFloat64())
		r.GPSE += d * math.Cos(ang)
		r.GPSN += d * math.Sin(ang)
		r.GPSAlt += mag * rng.NormFloat64() * 0.5
		r.GPSSpeed = math.Max(0, r.GPSSpeed+rng.NormFloat64()*3)
	}
}

// Saturation clips the longitudinal accelerometer at a shrinking full-scale
// range (a mis-configured ADC range): ±10 m/s² at severity 0 down to
// ±0.8 m/s² at severity 1.
type Saturation struct{}

// Name implements Fault.
func (f *Saturation) Name() string { return "accel-saturation" }

// Inject implements Fault.
func (f *Saturation) Inject(tr *sensors.Trace, sev float64, rng *rand.Rand) {
	limit := 10 - 9.2*sev
	for i := range tr.Records {
		r := &tr.Records[i]
		r.AccelLong = clampF(r.AccelLong, -limit, limit)
		r.RawAccelY = clampF(r.RawAccelY, -limit, limit)
	}
}

// NaNBurst replaces sensor channels with NaN for short bursts — the raw form
// of a crashing sensor service — exercising every non-finite guard downstream.
type NaNBurst struct {
	RatePerMin float64 // default 3/min at severity 1
	MeanDurS   float64 // default 0.8 s
}

// Name implements Fault.
func (f *NaNBurst) Name() string { return "nan-burst" }

// Inject implements Fault.
func (f *NaNBurst) Inject(tr *sensors.Trace, sev float64, rng *rand.Rand) {
	rate, dur := defaultF(f.RatePerMin, 3), defaultF(f.MeanDurS, 0.8)
	nan := math.NaN()
	episodes(tr, rate, dur, sev, rng, func(start, end int) {
		for i := start; i < end; i++ {
			r := &tr.Records[i]
			r.AccelLong, r.GyroYaw = nan, nan
			r.RawAccelX, r.RawAccelY, r.RawAccelZ = nan, nan, nan
			r.RawGyroX, r.RawGyroY, r.RawGyroZ = nan, nan, nan
			r.Speedometer, r.CANSpeed, r.BaroAlt = nan, nan, nan
		}
	})
}

func defaultF(v, def float64) float64 {
	if v <= 0 {
		return def
	}
	return v
}

func clamp01(x float64) float64 { return clampF(x, 0, 1) }

func clampF(x, lo, hi float64) float64 {
	if x < lo {
		return lo
	}
	if x > hi {
		return hi
	}
	return x
}
