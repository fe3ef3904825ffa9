package experiment

import (
	"fmt"
	"sort"

	"roadgrade/internal/obs"
)

// Runner is one experiment entry point.
type Runner func(Options) (Table, error)

// Registry maps experiment IDs to runners, covering every table and figure
// of the paper, the headline claims, and the extension studies (ablations,
// robustness, misalignment, multi-vehicle fusion, speed sweep); see
// DESIGN.md §3.
func Registry() map[string]Runner {
	return map[string]Runner{
		"table1":     TableI,
		"table2":     TableII,
		"table3":     TableIII,
		"fig3":       Figure3,
		"fig4":       Figure4,
		"fig5":       Figure5,
		"fig8a":      Figure8a,
		"fig8b":      Figure8b,
		"fig9a":      Figure9a,
		"fig9b":      Figure9b,
		"fig10a":     Figure10a,
		"fig10b":     Figure10b,
		"lanechange": LaneChangeAccuracy,
		"headline":   Headline,
		"uplift":     FuelUplift,
		// Extensions beyond the paper's figures.
		"misalignment": Misalignment,
		"multivehicle": MultiVehicle,
		"ablation":     Ablation,
		"robustness":   Robustness,
		"robustsweep":  RobustnessSweep,
		"poisonsweep":  PoisonSweep,
		"speedsweep":   SpeedSweep,
		"journey":      Journey,
		"routing":      Routing,
		"ecoroutes":    EcoRoutes,
		"emissionmaps": EmissionMaps,
	}
}

// Names returns the registered experiment IDs in stable order.
func Names() []string {
	reg := Registry()
	out := make([]string, 0, len(reg))
	for name := range reg {
		out = append(out, name)
	}
	sort.Strings(out)
	return out
}

// Run executes one experiment by ID. Each run is recorded as a span, so a
// `gradebench -tracefile` timeline shows per-experiment walls with the
// pipeline and fusion stages nested inside.
func Run(name string, opt Options) (Table, error) {
	r, ok := Registry()[name]
	if !ok {
		return Table{}, fmt.Errorf("experiment: unknown experiment %q (known: %v)", name, Names())
	}
	sp := obs.DefaultTracer.Start("experiment:"+name, "experiment")
	defer sp.End()
	return r(opt)
}

// All runs every registered experiment in stable order.
func All(opt Options) ([]Table, error) {
	var out []Table
	for _, name := range Names() {
		t, err := Run(name, opt)
		if err != nil {
			return nil, fmt.Errorf("experiment %s: %w", name, err)
		}
		out = append(out, t)
	}
	return out, nil
}
