package core_test

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"roadgrade/internal/core"
	"roadgrade/internal/faultinject"
	"roadgrade/internal/road"
	"roadgrade/internal/sensors"
	"roadgrade/internal/vehicle"
)

// TestGradeFilterMatchesReference sweeps the fixed-size grade filter and the
// generic kalman.Filter reference through every record of city drives, of
// each default fault plan and of a drive with finite accelerometer spikes
// that force divergence resets, for every velocity source in both sweep
// directions, exactly as Pipeline.runPass drives its filter. core.FilterPair
// compares the two bit for bit after every stage.
func TestGradeFilterMatchesReference(t *testing.T) {
	nw, err := road.GenerateNetwork(3, road.NetworkConfig{TargetStreetKM: 6})
	if err != nil {
		t.Fatal(err)
	}
	type drive struct {
		name  string
		trace *sensors.Trace
	}
	var drives []drive
	for i := 0; i < 8; i++ {
		e := nw.Edges[(i*13)%len(nw.Edges)]
		rng := rand.New(rand.NewSource(int64(100 + i)))
		trip, err := vehicle.SimulateTrip(vehicle.TripConfig{Road: e.Road, Driver: vehicle.DefaultDriver(float64(25+5*i) / 3.6), Rng: rng})
		if err != nil {
			t.Fatal(err)
		}
		tr, err := sensors.Sample(trip, sensors.DefaultConfig(), rng)
		if err != nil {
			t.Fatal(err)
		}
		drives = append(drives, drive{fmt.Sprintf("city drive %d (%s)", i, e.Road.ID()), tr})
	}
	for i, plan := range faultinject.DefaultPlans() {
		d := drives[i%len(drives)]
		drives = append(drives, drive{plan.Name + " on " + d.name, plan.Apply(d.trace, 1, int64(200+i))})
	}
	spiked := faultinject.Clone(drives[0].trace)
	for i := 1; i < 4; i++ {
		spiked.Records[i*len(spiked.Records)/4].AccelLong = 1e5 // m/s²: v passes 150 m/s in one step
	}
	drives = append(drives, drive{"accelerometer spikes on " + drives[0].name, spiked})

	var steps, rejected, resets int
	for _, d := range drives {
		for _, src := range sensors.AllSources() {
			vels, err := d.trace.Velocity(src)
			if err != nil {
				t.Fatal(err)
			}
			for _, backward := range []bool{false, true} {
				s, rej, res, err := sweepPair(d.trace, vels, src, backward)
				steps += s
				rejected += rej
				resets += res
				if err != nil {
					t.Fatalf("%s, %v source, backward %v: %v", d.name, src, backward, err)
				}
			}
		}
	}
	t.Logf("%d drives, %d steps, %d gate rejections, %d divergence resets", len(drives), steps, rejected, resets)
	if rejected == 0 || resets == 0 {
		t.Errorf("the sweeps saw %d gate rejections and %d divergence resets; both paths must be exercised", rejected, resets)
	}
}

// sweepPair runs one directional sweep through a core.FilterPair, bridging
// non-finite accelerometer reads and resetting to the last accepted speed as
// the pipeline does, and counts steps, gate rejections and resets.
func sweepPair(trace *sensors.Trace, vels []sensors.VelSample, src sensors.VelocitySource, backward bool) (steps, rejected, resets int, err error) {
	n := len(vels)
	order := func(step int) int {
		if backward {
			return n - 1 - step
		}
		return step
	}
	lastGood := 0.0 // the first (sweep order) valid finite speed
	for step := 0; step < n; step++ {
		if v := vels[order(step)]; v.Valid && !math.IsNaN(v.V) && !math.IsInf(v.V, 0) {
			lastGood = v.V
			break
		}
	}
	fp, err := core.NewFilterPair(src, trace.DT, lastGood, backward)
	if err != nil {
		return 0, 0, 0, err
	}
	accel := 0.0
	for step := 0; step < n; step++ {
		i := order(step)
		if a := trace.Records[i].AccelLong; !math.IsNaN(a) && !math.IsInf(a, 0) {
			accel = a
		}
		o, err := fp.Step(accel, vels[i].V, vels[i].Valid)
		if err == nil {
			err = o.Err
		}
		if err != nil {
			return step, rejected, resets, fmt.Errorf("step %d (record %d): %w", step, i, err)
		}
		switch {
		case o.Accepted:
			lastGood = vels[i].V
		case vels[i].Valid:
			rejected++
		}
		reset, err := fp.ResetIfDiverged(lastGood)
		if err != nil {
			return step, rejected, resets, fmt.Errorf("step %d (record %d): %w", step, i, err)
		}
		if reset {
			resets++
		}
	}
	return n, rejected, resets, nil
}
