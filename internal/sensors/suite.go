package sensors

import (
	"errors"
	"fmt"
	"math"
	"math/rand"

	"roadgrade/internal/frame"
	"roadgrade/internal/vehicle"
)

// Record is one sensor sample tick. IMU-class fields update every tick; GPS
// fields are only meaningful when GPSValid is set (1 Hz, minus dropouts).
type Record struct {
	T float64 `json:"t"`
	// AccelLong is the longitudinal specific force in the aligned frame:
	// a + g·sinθ, plus noise and drift. The gravity component is what makes
	// grade observable from the velocity innovation (DESIGN.md
	// interpretation choice 1). When the phone is mounted askew
	// (Config.Mount), this holds the naive (unaligned) Y-axis reading
	// until AlignTrace rewrites it.
	AccelLong float64 `json:"accel_long"`
	// GyroYaw is the measured vehicle direction change rate ŵ_vehicle
	// (phone Z axis; see AccelLong about mounts).
	GyroYaw float64 `json:"gyro_yaw"`
	// Raw 3-axis IMU readings in the phone frame (X right, Y forward,
	// Z up when aligned).
	RawAccelX float64 `json:"raw_accel_x"`
	RawAccelY float64 `json:"raw_accel_y"`
	RawAccelZ float64 `json:"raw_accel_z"`
	RawGyroX  float64 `json:"raw_gyro_x"`
	RawGyroY  float64 `json:"raw_gyro_y"`
	RawGyroZ  float64 `json:"raw_gyro_z"`
	// Speedometer is the phone-derived speed (m/s).
	Speedometer float64 `json:"speedometer"`
	// CANSpeed is the CAN-bus wheel speed (m/s), quantized.
	CANSpeed float64 `json:"can_speed"`
	// CANTorque is the engine/driveline torque (N·m) read over OBD, the
	// quantity the paper's Eq. (3) consumes directly ([21]).
	CANTorque float64 `json:"can_torque"`
	// BaroAlt is the barometric altitude (m).
	BaroAlt float64 `json:"baro_alt"`
	// GPS fix.
	GPSValid bool    `json:"gps_valid"`
	GPSE     float64 `json:"gps_e"`
	GPSN     float64 `json:"gps_n"`
	GPSAlt   float64 `json:"gps_alt"`
	GPSSpeed float64 `json:"gps_speed"`
}

// Trace is a sampled sensor log aligned with the ground truth that produced
// it. Truth is retained for evaluation only; estimators must not read it.
type Trace struct {
	DT      float64
	Records []Record
	Truth   []vehicle.State
}

// Duration returns the trace length in seconds.
func (tr *Trace) Duration() float64 {
	if len(tr.Records) == 0 {
		return 0
	}
	return tr.Records[len(tr.Records)-1].T
}

// Config holds the sensor error budget. Defaults approximate a Samsung
// Galaxy S5-class phone plus an OBD-II CAN dongle.
type Config struct {
	// GPSPeriodS is the GPS fix interval (default 1 s, per §III-A).
	GPSPeriodS float64
	// Accelerometer noise (m/s²).
	Accel NoiseModel
	// Gyroscope noise (rad/s).
	Gyro NoiseModel
	// Barometer altitude noise (m). The paper calls phone barometers
	// "notoriously poor (several meters)".
	Baro NoiseModel
	// Speedometer noise (m/s).
	Speedo NoiseModel
	// CAN wheel-speed noise (m/s) and quantization step.
	CAN         NoiseModel
	CANQuantize float64
	// CANTorque is the OBD torque reading noise (N·m).
	CANTorque NoiseModel
	// GPS errors.
	GPSPosSigmaM    float64
	GPSAltSigmaM    float64
	GPSSpeedSigmaMS float64
	// GPSDropoutProb is the chance, per fix, of entering a dropout.
	GPSDropoutProb float64
	// GPSDropoutMeanS is the mean dropout duration (exponential).
	GPSDropoutMeanS float64
	// Mount is the phone's orientation in the vehicle (§III-A). The zero
	// value is a perfectly aligned phone; non-zero mounts corrupt the
	// naive AccelLong/GyroYaw channels until AlignTrace recovers the
	// orientation from the raw 3-axis data.
	Mount frame.Mount
}

// DefaultConfig returns the nominal smartphone error budget.
func DefaultConfig() Config {
	return Config{
		GPSPeriodS:      1.0,
		Accel:           NoiseModel{Sigma: 0.08, DriftRate: 0.001, InitialBiasSigma: 0.015},
		Gyro:            NoiseModel{Sigma: 0.006, DriftRate: 0.0004, InitialBiasSigma: 0.002},
		Baro:            NoiseModel{Sigma: 2.2, DriftRate: 0.12, InitialBiasSigma: 1.5},
		Speedo:          NoiseModel{Sigma: 0.25, DriftRate: 0.002, InitialBiasSigma: 0.05},
		CAN:             NoiseModel{Sigma: 0.06, DriftRate: 0, InitialBiasSigma: 0},
		CANQuantize:     0.1 / 3.6, // 0.1 km/h
		CANTorque:       NoiseModel{Sigma: 25, DriftRate: 0.5, InitialBiasSigma: 10},
		GPSPosSigmaM:    3.0,
		GPSAltSigmaM:    6.0,
		GPSSpeedSigmaMS: 0.2,
		GPSDropoutProb:  0.008,
		GPSDropoutMeanS: 18,
	}
}

// Validate reports configuration problems.
func (c Config) Validate() error {
	if c.GPSPeriodS <= 0 {
		return fmt.Errorf("sensors: GPS period %v must be positive", c.GPSPeriodS)
	}
	if c.GPSDropoutProb < 0 || c.GPSDropoutProb > 1 {
		return fmt.Errorf("sensors: dropout probability %v out of [0,1]", c.GPSDropoutProb)
	}
	return nil
}

// Sample runs the sensor suite over a simulated trip, producing one Record
// per simulation step.
func Sample(trip *vehicle.Trip, cfg Config, rng *rand.Rand) (*Trace, error) {
	if trip == nil || len(trip.States) == 0 {
		return nil, errors.New("sensors: empty trip")
	}
	if rng == nil {
		return nil, errors.New("sensors: rng is required")
	}
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	dt := trip.DT

	var accelAxes, gyroAxes [3]*noiseState
	for i := range accelAxes {
		accelAxes[i] = newNoiseState(cfg.Accel, rng)
		gyroAxes[i] = newNoiseState(cfg.Gyro, rng)
	}
	baro := newNoiseState(cfg.Baro, rng)
	speedo := newNoiseState(cfg.Speedo, rng)
	can := newNoiseState(cfg.CAN, rng)
	canTorque := newNoiseState(cfg.CANTorque, rng)

	trace := &Trace{DT: dt, Records: make([]Record, 0, len(trip.States)), Truth: trip.States}
	nextGPS := 0.0
	dropoutUntil := -1.0
	for _, st := range trip.States {
		// Vehicle-frame specific force (X right, Y forward, Z up):
		// lateral centripetal force, longitudinal kinematic + gravity
		// component, and the vertical gravity remainder.
		fVehicle := frame.Vec3{
			X: -st.Speed * st.YawRate,
			Y: st.Accel + vehicle.Gravity*math.Sin(st.Grade),
			Z: vehicle.Gravity * math.Cos(st.Grade),
		}
		wVehicle := frame.Vec3{Z: st.YawRate}
		fPhone := cfg.Mount.PhoneReading(fVehicle)
		wPhone := cfg.Mount.PhoneReading(wVehicle)
		rec := Record{
			T:           st.T,
			RawAccelX:   accelAxes[0].corrupt(fPhone.X, dt, rng),
			RawAccelY:   accelAxes[1].corrupt(fPhone.Y, dt, rng),
			RawAccelZ:   accelAxes[2].corrupt(fPhone.Z, dt, rng),
			RawGyroX:    gyroAxes[0].corrupt(wPhone.X, dt, rng),
			RawGyroY:    gyroAxes[1].corrupt(wPhone.Y, dt, rng),
			RawGyroZ:    gyroAxes[2].corrupt(wPhone.Z, dt, rng),
			Speedometer: speedo.corrupt(st.Speed, dt, rng),
			CANSpeed:    Quantize(can.corrupt(st.Speed, dt, rng), cfg.CANQuantize),
			CANTorque:   canTorque.corrupt(st.Torque, dt, rng),
			BaroAlt:     baro.corrupt(st.Alt, dt, rng),
		}
		// The naive aligned channels assume the phone sits straight; a
		// misaligned mount leaves them wrong until AlignTrace runs.
		rec.AccelLong = rec.RawAccelY
		rec.GyroYaw = rec.RawGyroZ
		if st.T+1e-9 >= nextGPS {
			nextGPS += cfg.GPSPeriodS
			inDropout := st.T < dropoutUntil
			if !inDropout && rng.Float64() < cfg.GPSDropoutProb {
				dropoutUntil = st.T + rng.ExpFloat64()*cfg.GPSDropoutMeanS
				inDropout = true
			}
			if !inDropout {
				rec.GPSValid = true
				rec.GPSE = st.Pos.E + rng.NormFloat64()*cfg.GPSPosSigmaM
				rec.GPSN = st.Pos.N + rng.NormFloat64()*cfg.GPSPosSigmaM
				rec.GPSAlt = st.Alt + rng.NormFloat64()*cfg.GPSAltSigmaM
				gpsSpeed := st.Speed + rng.NormFloat64()*cfg.GPSSpeedSigmaMS
				rec.GPSSpeed = math.Max(0, gpsSpeed)
			}
		}
		trace.Records = append(trace.Records, rec)
	}
	return trace, nil
}

// VelocitySource identifies one of the four speed measurements the paper
// fuses (§III-C3): GPS, phone speedometer, phone accelerometer-derived
// velocity, and CAN-bus wheel speed.
type VelocitySource int

// Velocity sources, matching the paper's enumeration.
const (
	SourceGPS VelocitySource = iota + 1
	SourceSpeedometer
	SourceAccelerometer
	SourceCANBus
)

// String names the source.
func (s VelocitySource) String() string {
	switch s {
	case SourceGPS:
		return "gps"
	case SourceSpeedometer:
		return "speedometer"
	case SourceAccelerometer:
		return "accelerometer"
	case SourceCANBus:
		return "can-bus"
	default:
		return fmt.Sprintf("VelocitySource(%d)", int(s))
	}
}

// AllSources lists the four velocity sources in paper order.
func AllSources() []VelocitySource {
	return []VelocitySource{SourceGPS, SourceSpeedometer, SourceAccelerometer, SourceCANBus}
}

// VelSample is one velocity measurement; Valid is false on ticks where the
// source has no reading (e.g. GPS between fixes or in a dropout).
type VelSample struct {
	T     float64
	V     float64
	Valid bool
}

// Velocity extracts the measurement series of one source from the trace.
//
// The accelerometer source dead-reckons speed by integrating the specific
// force with a barometer-based gravity compensation, re-anchoring to GPS
// fixes with a complementary filter — the standard phone practice, and a
// genuinely independent (drifting) source between fixes.
func (tr *Trace) Velocity(src VelocitySource) ([]VelSample, error) {
	switch src {
	case SourceGPS:
		out := make([]VelSample, len(tr.Records))
		for i, r := range tr.Records {
			out[i] = VelSample{T: r.T, V: r.GPSSpeed, Valid: r.GPSValid}
		}
		return out, nil
	case SourceSpeedometer:
		out := make([]VelSample, len(tr.Records))
		for i, r := range tr.Records {
			out[i] = VelSample{T: r.T, V: r.Speedometer, Valid: true}
		}
		return out, nil
	case SourceCANBus:
		out := make([]VelSample, len(tr.Records))
		for i, r := range tr.Records {
			out[i] = VelSample{T: r.T, V: r.CANSpeed, Valid: true}
		}
		return out, nil
	case SourceAccelerometer:
		return tr.accelVelocity(), nil
	default:
		return nil, fmt.Errorf("sensors: unknown velocity source %d", int(src))
	}
}

// accelVelocity dead-reckons velocity from the accelerometer.
func (tr *Trace) accelVelocity() []VelSample {
	out := make([]VelSample, len(tr.Records))
	if len(tr.Records) == 0 {
		return out
	}
	const (
		anchorGain = 0.6 // complementary-filter pull toward GPS fixes
		// gradeWinS is the barometer gravity-compensation window. It must
		// be long: with meters of barometer noise, a short window injects
		// huge sinθ̂ noise into the dead reckoning.
		gradeWinS = 8.0
	)
	dt := tr.DT
	win := int(gradeWinS / dt)
	if win < 1 {
		win = 1
	}
	// Initialize from the first record's speedometer (a phone app would
	// use any available speed hint at start).
	v := tr.Records[0].Speedometer
	if !finite(v) {
		v = 0
	}
	for i, r := range tr.Records {
		// Gravity compensation: vertical speed from barometer over the
		// window divided by travelled distance gives sinθ̂. Skipped when a
		// sensor fault leaves the window non-finite.
		var gravComp float64
		if i >= win && finite(r.BaroAlt) && finite(tr.Records[i-win].BaroAlt) && finite(r.Speedometer) {
			dz := r.BaroAlt - tr.Records[i-win].BaroAlt
			// Scale by the odometer distance, not the dead-reckoned
			// speed: dividing by the estimate itself creates a positive
			// feedback loop once the estimate drifts (e.g. in a GPS
			// dropout).
			ds := math.Max(1, r.Speedometer*gradeWinS)
			sinTheta := clampF(dz/ds, -0.25, 0.25)
			gravComp = vehicle.Gravity * sinTheta
		}
		// NaN-burst bridging: coast on the previous estimate through ticks
		// whose accelerometer reading is non-finite.
		if finite(r.AccelLong) {
			v += (r.AccelLong - gravComp) * dt
		}
		if r.GPSValid && finite(r.GPSSpeed) {
			v += anchorGain * (r.GPSSpeed - v)
		}
		if v < 0 {
			v = 0
		}
		if !finite(v) {
			// Should be unreachable given the guards above, but a stuck
			// dead-reckoner must never emit NaN: re-anchor to any finite
			// speed hint.
			switch {
			case finite(r.Speedometer):
				v = r.Speedometer
			case r.GPSValid && finite(r.GPSSpeed):
				v = r.GPSSpeed
			default:
				v = 0
			}
		}
		out[i] = VelSample{T: r.T, V: v, Valid: true}
	}
	return out
}

func finite(x float64) bool { return !math.IsNaN(x) && !math.IsInf(x, 0) }

func clampF(x, lo, hi float64) float64 {
	if x < lo {
		return lo
	}
	if x > hi {
		return hi
	}
	return x
}
