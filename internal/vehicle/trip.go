package vehicle

import (
	"errors"
	"fmt"
	"math"
	"math/rand"

	"roadgrade/internal/geo"
	"roadgrade/internal/road"
)

// State is the complete ground-truth vehicle state at one simulation step.
// Sensor models observe it; estimators never see it directly.
type State struct {
	T       float64 // time since trip start (s)
	S       float64 // arc length along the road (m)
	Pos     geo.ENU // planar position including lane offset
	Alt     float64 // true altitude (m)
	Speed   float64 // path speed, what wheel odometry measures (m/s)
	Accel   float64 // longitudinal acceleration along the path (m/s²)
	Heading float64 // vehicle heading, CCW from East (rad)
	YawRate float64 // dHeading/dt (rad/s)
	RoadDir float64 // road tangent heading at S (rad)
	// SteerAngle is the deviation between vehicle heading and road
	// direction (α in the paper), nonzero only during lane changes.
	SteerAngle float64
	// SteerRate is dSteerAngle/dt (w_steer in the paper).
	SteerRate float64
	Grade     float64 // true road gradient θ at S (rad)
	Torque    float64 // wheel drive torque (N·m), from inverse dynamics
	Lane      int     // current lane index, 0 = rightmost
	InChange  bool    // true while a lane change is in progress
}

// LaneChangeEvent records one completed lane-change maneuver.
type LaneChangeEvent struct {
	StartT float64
	EndT   float64
	StartS float64
	Dir    int // +1 left, -1 right
}

// Trip is a simulated drive: the road, the driver, the ground-truth state
// trace at the simulation rate, and the lane changes that occurred.
type Trip struct {
	Road    *road.Road
	Driver  DriverProfile
	DT      float64
	States  []State
	Changes []LaneChangeEvent
}

// Duration returns the trip length in seconds.
func (t *Trip) Duration() float64 {
	if len(t.States) == 0 {
		return 0
	}
	return t.States[len(t.States)-1].T
}

// TripConfig configures SimulateTrip.
type TripConfig struct {
	Road   *road.Road
	Driver DriverProfile
	// DT is the integration step (default 0.05 s).
	DT float64
	// Rng drives stochastic choices (lane changes, wobble phase). Required.
	Rng *rand.Rand
	// StartSpeedMS defaults to the driver target speed.
	StartSpeedMS float64
	// DisableLaneChanges freezes the vehicle in its lane regardless of the
	// driver's rate; used by experiments that isolate other effects.
	DisableLaneChanges bool
	// MaxDurationS aborts runaway simulations (default: generous bound from
	// road length and target speed).
	MaxDurationS float64
	// WarmupStopS holds the vehicle stationary at the road start for this
	// many seconds before launching. A warmup gives phone-mount alignment
	// (§III-A / [14]) the gravity-only and forward-acceleration windows it
	// needs.
	WarmupStopS float64
	// StopAtS lists arc positions (meters, ascending) where the driver
	// halts — junctions, traffic lights. Each stop lasts StopDurationS.
	StopAtS []float64
	// StopDurationS is the dwell time per stop (default 4 s).
	StopDurationS float64
}

func (c TripConfig) withDefaults() (TripConfig, error) {
	if c.Road == nil {
		return c, errors.New("vehicle: TripConfig.Road is required")
	}
	if c.Rng == nil {
		return c, errors.New("vehicle: TripConfig.Rng is required (pass a seeded rand.Rand)")
	}
	if err := c.Driver.Validate(); err != nil {
		return c, err
	}
	if c.DT <= 0 {
		c.DT = 0.05
	}
	if c.StartSpeedMS <= 0 {
		c.StartSpeedMS = c.Driver.TargetSpeedMS
	}
	if c.WarmupStopS > 0 {
		c.StartSpeedMS = -1 // sentinel: start parked (v = 0)
	}
	if c.WarmupStopS < 0 {
		return c, fmt.Errorf("vehicle: negative warmup %v", c.WarmupStopS)
	}
	if c.StopDurationS <= 0 {
		c.StopDurationS = 4
	}
	for i := 1; i < len(c.StopAtS); i++ {
		if c.StopAtS[i] <= c.StopAtS[i-1] {
			return c, fmt.Errorf("vehicle: StopAtS not ascending at %d", i)
		}
	}
	if c.MaxDurationS <= 0 {
		// 4x the nominal traversal time plus stop dwell, floor 10 minutes.
		nominal := c.Road.Length()/c.Driver.TargetSpeedMS +
			float64(len(c.StopAtS))*c.StopDurationS
		c.MaxDurationS = math.Max(600, 4*nominal)
	}
	return c, nil
}

// SimulateTrip integrates a drive along cfg.Road from start to end and
// returns the ground-truth trace.
func SimulateTrip(cfg TripConfig) (*Trip, error) {
	cfg, err := cfg.withDefaults()
	if err != nil {
		return nil, fmt.Errorf("vehicle: invalid trip config: %w", err)
	}
	params := DefaultParams()
	r := cfg.Road
	dt := cfg.DT
	rng := cfg.Rng

	wobblePhase := rng.Float64() * 2 * math.Pi
	steps := int(cfg.MaxDurationS/dt) + 1
	trip := &Trip{
		Road:   r,
		Driver: cfg.Driver,
		DT:     dt,
		States: make([]State, 0, int(r.Length()/cfg.Driver.TargetSpeedMS/dt)+64),
	}

	startV := cfg.StartSpeedMS
	if startV < 0 {
		startV = 0
	}
	nextStop := 0
	stopHoldUntil := -1.0
	var alphaJitter float64
	const jitterTau = 2.0 // OU time constant (s)
	var (
		t, s      float64
		v         = startV
		a         float64
		lane      int
		latOffset float64 // lateral offset from lane-0 center, left positive
		alpha     float64 // heading deviation from road direction
		inChange  bool
		plan      laneChangePlan
		planT     float64 // time since maneuver start
		curEvent  LaneChangeEvent
		prevHead  = r.DirectionAt(0)
		havePrev  bool
		jerkLimit = 1.5 // m/s³
	)

	for step := 0; step < steps && s < r.Length(); step++ {
		roadDir := r.DirectionAt(s)
		grade := r.GradeAt(s)

		// Driver longitudinal control: track a gently wobbling target.
		target := cfg.Driver.TargetSpeedMS
		if cfg.Driver.SpeedWobbleMS > 0 && cfg.Driver.SpeedWobblePeriodS > 0 {
			target += cfg.Driver.SpeedWobbleMS *
				math.Sin(2*math.Pi*t/cfg.Driver.SpeedWobblePeriodS+wobblePhase)
		}
		// During the warmup stop the vehicle is parked: no target, no
		// wobble.
		if t < cfg.WarmupStopS {
			target = 0
		}
		// Planned stops (junctions / traffic lights): brake when the stop
		// is within braking distance, dwell, then resume.
		stopping := false
		if nextStop < len(cfg.StopAtS) {
			stopS := cfg.StopAtS[nextStop]
			brakeDist := v*v/(2*cfg.Driver.MaxDecelMS2*0.7) + 5
			switch {
			case stopHoldUntil >= 0:
				target = 0
				stopping = true
				if t >= stopHoldUntil {
					stopHoldUntil = -1
					nextStop++
					stopping = false
				}
			case s >= stopS-brakeDist:
				target = 0
				stopping = true
				if v < 0.2 {
					stopHoldUntil = t + cfg.StopDurationS
				}
			}
		}
		aCmd := cfg.Driver.SpeedGain * (target - v)
		aCmd = clamp(aCmd, -cfg.Driver.MaxDecelMS2, cfg.Driver.MaxAccelMS2)
		a += clamp(aCmd-a, -jerkLimit*dt, jerkLimit*dt)

		// Lane-change state machine.
		steerRate := 0.0
		steering := inChange
		if inChange {
			steerRate = plan.steerRateAt(planT)
			planT += dt
			if planT >= plan.duration() {
				inChange = false
				lane += plan.dir
				alpha = 0 // heading restored by construction
				curEvent.EndT = t
				trip.Changes = append(trip.Changes, curEvent)
			}
		} else if !cfg.DisableLaneChanges {
			start := func(dir int, forced bool) {
				p := planLaneChange(cfg.Driver, math.Max(v, 3), dir)
				endS := s + v*p.duration()
				if endS >= r.Length() {
					return // road ends before the maneuver would
				}
				// Voluntary changes only happen where the lane count
				// persists through the maneuver; forced merges by
				// definition cross a lane-count boundary.
				if !forced && r.LanesAt(endS) != r.LanesAt(s) {
					return
				}
				plan, planT, inChange, steering = p, 0, true, true
				curEvent = LaneChangeEvent{StartT: t, StartS: s, Dir: dir}
				steerRate = plan.steerRateAt(0)
			}
			// Forced merge: the driver moves right ahead of a lane drop.
			lookahead := v*LaneChangeDuration(cfg.Driver, math.Max(v, 3)) + 30
			aheadS := math.Min(s+lookahead, r.Length()-1)
			if lane > 0 && lane >= r.LanesAt(aheadS) {
				start(-1, true)
			} else if cfg.Driver.LaneChangesPerKm > 0 {
				// Voluntary change: Poisson arrival in distance, gated on
				// lane availability.
				pStart := cfg.Driver.LaneChangesPerKm * v * dt / 1000
				if rng.Float64() < pStart {
					switch {
					case lane+1 < r.LanesAt(s):
						start(+1, false)
					case lane > 0:
						start(-1, false)
					}
				}
			}
		}

		// In-lane heading wander (OU process): present whenever moving.
		jitterRate := 0.0
		if cfg.Driver.SteerJitterRad > 0 && v > 1 {
			prevJitter := alphaJitter
			alphaJitter += (-alphaJitter/jitterTau)*dt +
				cfg.Driver.SteerJitterRad*math.Sqrt(2*dt/jitterTau)*rng.NormFloat64()
			jitterRate = (alphaJitter - prevJitter) / dt
		}

		// Integrate heading deviation and motion.
		alpha += steerRate * dt
		if !inChange {
			alpha = 0
		}
		vFloor := 0.5
		if t < cfg.WarmupStopS || stopping {
			vFloor = 0 // parked during warmup or halting at a planned stop
		}
		v = math.Max(vFloor, v+a*dt)
		// Brakes hold the car once nearly stationary at a planned stop;
		// the proportional controller alone would creep.
		if stopping && v < 0.3 {
			v = 0
			a = 0
		}
		totalAlpha := alpha + alphaJitter
		ds := v * math.Cos(totalAlpha) * dt
		s += ds
		latOffset += v * math.Sin(totalAlpha) * dt

		heading := geo.WrapAngle(roadDir + totalAlpha)
		yawRate := 0.0
		if havePrev {
			yawRate = geo.AngleDiff(prevHead, heading) / dt
		}
		prevHead, havePrev = heading, true

		// Planar position: lane center plus maneuver offset, measured along
		// the left normal of the road direction.
		center := r.PositionAt(s)
		offset := latOffset
		normal := roadDir + math.Pi/2
		pos := geo.ENU{
			E: center.E + offset*math.Cos(normal),
			N: center.N + offset*math.Sin(normal),
		}

		st := State{
			T:          t,
			S:          s,
			Pos:        pos,
			Alt:        r.AltitudeAt(s),
			Speed:      v,
			Accel:      a,
			Heading:    heading,
			YawRate:    yawRate,
			RoadDir:    roadDir,
			SteerAngle: alpha + alphaJitter,
			SteerRate:  steerRate + jitterRate,
			Grade:      grade,
			Torque:     params.DriveTorque(v, a, grade),
			Lane:       lane,
			InChange:   steering,
		}
		trip.States = append(trip.States, st)
		t += dt
	}
	if len(trip.States) == 0 {
		return nil, errors.New("vehicle: simulation produced no states")
	}
	if s < r.Length() {
		return nil, fmt.Errorf("vehicle: trip aborted at s=%.1f of %.1f m after %.1f s (MaxDurationS too small?)",
			s, r.Length(), t)
	}
	return trip, nil
}

// SimulateSingleLaneChange produces the clean steering-rate profile of one
// maneuver at the given speed — the workload behind the Table I calibration
// and the Figure 3/4 profiles. The returned times start 2 s before the
// maneuver and end 2 s after; truth carries the matching vehicle states.
func SimulateSingleLaneChange(d DriverProfile, speedMS float64, dir int, dt float64) ([]State, error) {
	if err := d.Validate(); err != nil {
		return nil, err
	}
	if speedMS <= 0 {
		return nil, fmt.Errorf("vehicle: speed %v must be positive", speedMS)
	}
	if dir != 1 && dir != -1 {
		return nil, fmt.Errorf("vehicle: lane change dir %d must be ±1", dir)
	}
	if dt <= 0 {
		dt = 0.05
	}
	plan := planLaneChange(d, speedMS, dir)
	lead := 2.0
	total := plan.duration() + 2*lead
	n := int(total/dt) + 1
	states := make([]State, 0, n)
	var alpha, lat float64
	var s float64
	for i := 0; i < n; i++ {
		t := float64(i) * dt
		w := plan.steerRateAt(t - lead)
		alpha += w * dt
		if t-lead >= plan.duration() {
			alpha = 0
		}
		s += speedMS * math.Cos(alpha) * dt
		lat += speedMS * math.Sin(alpha) * dt
		states = append(states, State{
			T:          t,
			S:          s,
			Pos:        geo.ENU{E: s, N: lat},
			Speed:      speedMS,
			Heading:    alpha,
			YawRate:    w,
			RoadDir:    0,
			SteerAngle: alpha,
			SteerRate:  w,
			Lane:       0,
			InChange:   t-lead >= 0 && t-lead < plan.duration(),
		})
	}
	return states, nil
}

// LaneChangeDuration returns the planned maneuver time for a driver at a
// speed, exposed for experiments sizing detection windows.
func LaneChangeDuration(d DriverProfile, speedMS float64) float64 {
	return planLaneChange(d, speedMS, 1).duration()
}

func clamp(x, lo, hi float64) float64 {
	if x < lo {
		return lo
	}
	if x > hi {
		return hi
	}
	return x
}
