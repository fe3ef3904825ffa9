// Command gradesim simulates a drive with the smartphone sensor suite, runs
// the road gradient estimation pipeline, and writes results.
//
// Usage:
//
//	gradesim -road red -speed 40 -out trace.csv -profile profile.csv
//	gradesim -road scurve -seed 9
//	gradesim -road straight -grade 3 -length 1500
//	gradesim -road journey                  # multi-street route across a city
//	gradesim -mount-yaw 20 -mount-pitch 8   # misaligned phone + auto-alignment
//
// The trace CSV is the raw sensor log (plug it back in with the trace
// package); the profile CSV is the fused gradient estimate vs the true and
// §III-D reference grades.
package main

import (
	"flag"
	"fmt"
	"math"
	"math/rand"
	"os"

	"roadgrade/internal/core"
	"roadgrade/internal/ecoroute"
	"roadgrade/internal/frame"
	"roadgrade/internal/fusion"
	"roadgrade/internal/groundtruth"
	"roadgrade/internal/road"
	"roadgrade/internal/sensors"
	"roadgrade/internal/trace"
	"roadgrade/internal/vehicle"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintf(os.Stderr, "gradesim: %v\n", err)
		os.Exit(1)
	}
}

func run() error {
	var (
		roadKind   = flag.String("road", "red", "route: red | scurve | straight | journey")
		gradeDeg   = flag.Float64("grade", 3, "grade for -road straight (degrees)")
		lengthM    = flag.Float64("length", 1500, "length for -road straight (meters)")
		speedKmh   = flag.Float64("speed", 40, "cruise speed (km/h)")
		seed       = flag.Int64("seed", 1, "random seed")
		traceOut   = flag.String("out", "", "write raw sensor trace CSV to this path")
		profOut    = flag.String("profile", "", "write fused profile CSV to this path")
		mountYaw   = flag.Float64("mount-yaw", 0, "phone mount yaw (degrees)")
		mountPitch = flag.Float64("mount-pitch", 0, "phone mount pitch (degrees)")
		mountRoll  = flag.Float64("mount-roll", 0, "phone mount roll (degrees)")
	)
	flag.Parse()

	r, err := buildRoad(*roadKind, *lengthM, *gradeDeg, *seed)
	if err != nil {
		return err
	}
	misaligned := *mountYaw != 0 || *mountPitch != 0 || *mountRoll != 0
	d := vehicle.DefaultDriver(*speedKmh / 3.6)
	d.LaneChangesPerKm = 2
	tripCfg := vehicle.TripConfig{
		Road: r, Driver: d, Rng: rand.New(rand.NewSource(*seed)),
	}
	if misaligned {
		// Alignment needs the trip-start stop-and-launch window.
		tripCfg.WarmupStopS = 5
	}
	trip, err := vehicle.SimulateTrip(tripCfg)
	if err != nil {
		return fmt.Errorf("simulating trip: %w", err)
	}
	scfg := sensors.DefaultConfig()
	scfg.Mount = frame.Mount{
		Yaw:   road.Deg(*mountYaw),
		Pitch: road.Deg(*mountPitch),
		Roll:  road.Deg(*mountRoll),
	}
	trc, err := sensors.Sample(trip, scfg, rand.New(rand.NewSource(*seed+1)))
	if err != nil {
		return fmt.Errorf("sampling sensors: %w", err)
	}
	if misaligned {
		res, err := sensors.AlignTrace(trc)
		if err != nil {
			return fmt.Errorf("aligning phone mount: %w", err)
		}
		fmt.Printf("phone mount recovered: yaw=%.1f pitch=%.1f roll=%.1f deg\n",
			res.Mount.Yaw*180/math.Pi, res.Mount.Pitch*180/math.Pi, res.Mount.Roll*180/math.Pi)
	}
	fmt.Printf("road %s: %.2f km, %d lane changes, %.0f s drive\n",
		r.ID(), r.Length()/1000, len(trip.Changes), trc.Duration())

	p, err := core.NewPipeline(core.Config{})
	if err != nil {
		return err
	}
	tracks, err := p.EstimateAll(trc, r.Line())
	if err != nil {
		return fmt.Errorf("estimating tracks: %w", err)
	}
	prof, err := fusion.FuseTracks(tracks, 5, r.Length())
	if err != nil {
		return fmt.Errorf("fusing tracks: %w", err)
	}
	ref, err := groundtruth.ReferenceFor(r, rand.New(rand.NewSource(*seed+2)))
	if err != nil {
		return fmt.Errorf("building reference: %w", err)
	}

	// Report accuracy.
	var sumErr float64
	var n int
	for i := range prof.S {
		if prof.S[i] < 100 || prof.S[i] > ref.Length() {
			continue
		}
		truth := ref.GradeAvgAt(prof.S[i], prof.SpacingM)
		sumErr += math.Abs(prof.GradeRad[i]-truth) * 180 / math.Pi
		n++
	}
	if n > 0 {
		fmt.Printf("mean |error| vs reference: %.3f deg over %d cells\n", sumErr/float64(n), n)
	}

	if *traceOut != "" {
		if err := writeFile(*traceOut, func(f *os.File) error { return trace.WriteCSV(f, trc) }); err != nil {
			return err
		}
		fmt.Printf("sensor trace written to %s\n", *traceOut)
	}
	if *profOut != "" {
		if err := writeFile(*profOut, func(f *os.File) error { return writeProfileCSV(f, prof, r, ref) }); err != nil {
			return err
		}
		fmt.Printf("fused profile written to %s\n", *profOut)
	}
	return nil
}

func buildRoad(kind string, lengthM, gradeDeg float64, seed int64) (*road.Road, error) {
	switch kind {
	case "red":
		return road.RedRoute()
	case "scurve":
		return road.SCurveRoad(0, 0)
	case "straight":
		return road.StraightRoad("straight", lengthM, road.Deg(gradeDeg), 2)
	case "journey":
		return buildJourney(seed)
	default:
		return nil, fmt.Errorf("unknown road kind %q (want red | scurve | straight | journey)", kind)
	}
}

// buildJourney routes corner to corner across a synthetic city by distance
// and concatenates the streets.
func buildJourney(seed int64) (*road.Road, error) {
	net, err := road.GenerateNetwork(seed+1826, road.NetworkConfig{TargetStreetKM: 25})
	if err != nil {
		return nil, err
	}
	eng, err := ecoroute.NewEngine(net, ecoroute.FlatSource{}, ecoroute.Config{})
	if err != nil {
		return nil, err
	}
	// Distance costs read no speed; any valid one will do.
	plan, err := eng.Route(ecoroute.Distance, 40, net.Nodes[0].ID, net.Nodes[len(net.Nodes)-1].ID)
	if err != nil {
		return nil, err
	}
	roads, err := eng.Roads(plan)
	if err != nil {
		return nil, err
	}
	return road.Concat("journey", roads)
}

func writeFile(path string, fn func(*os.File) error) error {
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("creating %s: %w", path, err)
	}
	if err := fn(f); err != nil {
		_ = f.Close()
		return fmt.Errorf("writing %s: %w", path, err)
	}
	if err := f.Close(); err != nil {
		return fmt.Errorf("closing %s: %w", path, err)
	}
	return nil
}

func writeProfileCSV(f *os.File, prof *fusion.Profile, r *road.Road, ref *groundtruth.Reference) error {
	if _, err := fmt.Fprintln(f, "s_m,grade_est_deg,grade_true_deg,grade_ref_deg,var"); err != nil {
		return err
	}
	for i := range prof.S {
		s := prof.S[i]
		_, err := fmt.Fprintf(f, "%.1f,%.5f,%.5f,%.5f,%.8f\n",
			s,
			prof.GradeRad[i]*180/math.Pi,
			r.GradeAt(s)*180/math.Pi,
			ref.GradeAvgAt(s, prof.SpacingM)*180/math.Pi,
			prof.Var[i])
		if err != nil {
			return err
		}
	}
	return nil
}
