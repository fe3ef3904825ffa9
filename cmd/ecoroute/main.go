// Command ecoroute plans fuel/emission-optimal routes over a generated road
// network using the ground-truth gradient map — the offline counterpart of
// the cloud service's GET /v1/route.
//
// Usage:
//
//	ecoroute [-seed 1827] [-km 164.8] [-speed 40] [-objective fuel] \
//	         [-from N -to M | -pairs K] [-format table|json]
//
// With -from/-to it answers one query under every objective (the comparison a
// driver would want before picking a route). With -pairs it samples K random
// origin/destination pairs and reports the panel means per planner, like the
// `gradebench -exp ecoroutes` table.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math/rand"
	"os"
	"strings"
	"text/tabwriter"

	"roadgrade/internal/ecoroute"
	"roadgrade/internal/emission"
	"roadgrade/internal/road"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, errorLine(err))
		os.Exit(1)
	}
}

// errorLine is what the command prints for err: the message behind one
// "ecoroute: " prefix, which the engine's own errors already carry.
func errorLine(err error) string {
	msg := err.Error()
	if strings.HasPrefix(msg, "ecoroute: ") {
		return msg
	}
	return "ecoroute: " + msg
}

// objectiveListText renders the valid -objective values, one per line, in
// the engine's canonical order.
func objectiveListText() string {
	names := make([]string, 0, len(ecoroute.Objectives()))
	for _, o := range ecoroute.Objectives() {
		names = append(names, o.String())
	}
	return strings.Join(names, "\n")
}

// unknownObjectiveError builds the error for an unrecognized -objective
// value: the message carries every valid objective, so the CLI exits
// non-zero with the full catalogue (mirrors gradebench's unknown -exp).
func unknownObjectiveError(name string) error {
	return fmt.Errorf("unknown objective %q; valid objectives:\n%s", name, objectiveListText())
}

func run() error {
	seed := flag.Int64("seed", 1827, "network generator seed (1827 = the Charlottesville-scale network)")
	km := flag.Float64("km", 164.8, "target street length of the generated network (km)")
	speed := flag.Float64("speed", 40, "cruise speed (km/h), snapped to the engine's buckets")
	objective := flag.String("objective", "fuel", "routing objective: distance | time | fuel | co2 | nox | co | hc | pm")
	from := flag.Int("from", -1, "origin node id (with -to: single-query mode)")
	to := flag.Int("to", -1, "destination node id")
	pairs := flag.Int("pairs", 0, "sample this many random O/D pairs and report planner means")
	format := flag.String("format", "table", "output format: table | json")
	flag.Parse()

	if *format != "table" && *format != "json" {
		return fmt.Errorf("unknown -format %q (want table | json)", *format)
	}
	obj, err := ecoroute.ParseObjective(*objective)
	if err != nil {
		return unknownObjectiveError(*objective)
	}
	net, err := road.GenerateNetwork(*seed, road.NetworkConfig{TargetStreetKM: *km})
	if err != nil {
		return err
	}
	eng, err := ecoroute.NewEngine(net, ecoroute.TruthSource{}, ecoroute.Config{})
	if err != nil {
		return err
	}

	switch {
	case *from >= 0 && *to >= 0:
		return singleQuery(os.Stdout, eng, *speed, *from, *to, *format)
	case *pairs > 0:
		return panelQuery(os.Stdout, eng, net, obj, *speed, *pairs, *seed, *format)
	default:
		return fmt.Errorf("need either -from and -to, or -pairs")
	}
}

// singleQuery answers one O/D query under every objective so the outputs can
// be compared side by side. Pollutant grams are filled for every plan (not
// just the pollutant objectives' own) so the table shows what a min-fuel
// route costs in NOx and vice versa.
func singleQuery(out io.Writer, eng *ecoroute.Engine, speed float64, from, to int, format string) error {
	plans := make([]ecoroute.Plan, 0, len(ecoroute.Objectives()))
	for _, obj := range ecoroute.Objectives() {
		p, err := eng.Route(obj, speed, from, to)
		if err != nil {
			return err
		}
		ev, err := eng.Evaluate(p)
		if err != nil {
			return err
		}
		p.EmisG = ev.EmisG
		plans = append(plans, p)
	}
	if format == "json" {
		return json.NewEncoder(out).Encode(plans)
	}
	w := tabwriter.NewWriter(out, 2, 4, 2, ' ', 0)
	fmt.Fprintln(w, "objective\troads\tlength (km)\ttime (s)\tfuel (gal)\tCO2 (kg)\tCO (g)\tNOx (g)\tHC (g)\tPM2.5 (g)")
	for _, p := range plans {
		fmt.Fprintf(w, "%s\t%d\t%.3f\t%.1f\t%.4f\t%.3f\t%.2f\t%.3f\t%.3f\t%.4f\n",
			p.Objective, len(p.RoadIDs), p.LengthM/1000, p.TimeS, p.FuelGal, p.CO2G/1000,
			p.EmisG[emission.CO], p.EmisG[emission.NOx], p.EmisG[emission.HC], p.EmisG[emission.PM25])
	}
	return w.Flush()
}

// panelRow is one planner's panel means in the -pairs report.
type panelRow struct {
	Objective   string  `json:"objective"`
	Pairs       int     `json:"pairs"`
	MeanLengthM float64 `json:"mean_length_m"`
	MeanTimeS   float64 `json:"mean_time_s"`
	MeanFuelGal float64 `json:"mean_fuel_gal"`
	MeanCO2G    float64 `json:"mean_co2_g"`
	MeanNOxG    float64 `json:"mean_nox_g"`
}

// panelQuery samples random connected O/D pairs and reports per-planner
// means; the requested objective is listed alongside the distance and time
// baselines.
func panelQuery(out io.Writer, eng *ecoroute.Engine, net *road.Network, obj ecoroute.Objective, speed float64, n int, seed int64, format string) error {
	objectives := []ecoroute.Objective{ecoroute.Distance, ecoroute.Time}
	if obj != ecoroute.Distance && obj != ecoroute.Time {
		objectives = append(objectives, obj)
	}
	rng := rand.New(rand.NewSource(seed + 97))
	type od struct{ from, to int }
	var sample []od
	for len(sample) < n {
		f := net.Nodes[rng.Intn(len(net.Nodes))].ID
		t := net.Nodes[rng.Intn(len(net.Nodes))].ID
		if f == t {
			continue
		}
		if _, err := eng.Route(ecoroute.Distance, speed, f, t); errors.Is(err, ecoroute.ErrNoPath) {
			continue // disconnected pair; redraw
		} else if err != nil {
			return err
		}
		sample = append(sample, od{f, t})
	}
	rows := make([]panelRow, 0, len(objectives))
	for _, o := range objectives {
		row := panelRow{Objective: o.String(), Pairs: len(sample)}
		for _, p := range sample {
			plan, err := eng.Route(o, speed, p.from, p.to)
			if err != nil {
				return err
			}
			row.MeanLengthM += plan.LengthM
			row.MeanTimeS += plan.TimeS
			row.MeanFuelGal += plan.FuelGal
			row.MeanCO2G += plan.CO2G
			ev, err := eng.Evaluate(plan)
			if err != nil {
				return err
			}
			row.MeanNOxG += ev.EmisG[emission.NOx]
		}
		k := float64(len(sample))
		row.MeanLengthM /= k
		row.MeanTimeS /= k
		row.MeanFuelGal /= k
		row.MeanCO2G /= k
		row.MeanNOxG /= k
		rows = append(rows, row)
	}
	if format == "json" {
		return json.NewEncoder(out).Encode(rows)
	}
	w := tabwriter.NewWriter(out, 2, 4, 2, ' ', 0)
	fmt.Fprintln(w, "planner\tpairs\tmean length (km)\tmean time (s)\tmean fuel (gal)\tmean CO2 (kg)\tmean NOx (g)")
	for _, r := range rows {
		fmt.Fprintf(w, "%s\t%d\t%.3f\t%.1f\t%.4f\t%.3f\t%.3f\n",
			r.Objective, r.Pairs, r.MeanLengthM/1000, r.MeanTimeS, r.MeanFuelGal, r.MeanCO2G/1000, r.MeanNOxG)
	}
	return w.Flush()
}
