package ecoroute

import (
	"fmt"

	"roadgrade/internal/emission"
	"roadgrade/internal/obs"
)

// This file wires the operating-mode pollutant model (internal/emission)
// into the cost-table machinery. Pollutant rows live inside the same
// immutable snapshots as the fuel rows but are built lazily — one
// integration pass per bucket fills all four species — and incrementally:
// a build shares the pages of the newest rows any snapshot built for the
// bucket and re-integrates only the edges whose stamp differs from theirs,
// found by diffing the two stamp rows page by page. An edge's values are a
// deterministic function of the grade data its stamp names, so the carried
// entries are bit-identical to re-integrating, however many snapshots ago
// the rows were built.

var (
	obsEmisBuilds = obs.Default.Counter("ecoroute_emission_row_builds_total")
	obsEmisReused = obs.Default.Counter("ecoroute_emission_edge_cache_hits_total")
	obsEmisRecomp = obs.Default.Counter("ecoroute_emission_edge_cache_misses_total")
)

// pollutantOf maps a pollutant objective to its emission species.
func pollutantOf(obj Objective) (emission.Pollutant, bool) {
	switch obj {
	case NOx:
		return emission.NOx, true
	case CO:
		return emission.CO, true
	case HC:
		return emission.HC, true
	case PM:
		return emission.PM25, true
	}
	return 0, false
}

// gradeDependent reports whether a search metric's costs change when road
// grades change — these metrics key their landmark tables and CCH weights
// to the snapshot's cost version so a re-fusion invalidates them.
func gradeDependent(metric Objective) bool {
	if metric == Fuel {
		return true
	}
	_, ok := pollutantOf(metric)
	return ok
}

// emisRows is one bucket's built pollutant rows (rows[sp][e], grams), the
// stamp row they were built against, and the generation of the snapshot
// that built them.
type emisRows struct {
	gen     uint64
	edgeGen pagedRow[uint64]
	rows    []pagedRow[float64]
}

// emissionRow returns the per-edge gram cost row of one pollutant at one
// bucket, materializing the bucket's four rows on first use.
func (e *Engine) emissionRow(sp emission.Pollutant, bucket int, tb *tables) pagedRow[float64] {
	tb.emisOnce[bucket].Do(func() {
		nEdges := len(e.edges)
		base := e.emisNewest[bucket].Load()
		rows := make([]pagedRow[float64], emission.NumPollutants)
		recomputed := 0
		recompute := func(i int32) {
			recomputed++
			v := e.cfg.SpeedsKmh[bucket] / 3.6 * e.cfg.classFactor(e.edges[i].Road.Class())
			g := edgeEmissionGrams(e.cfg.Emission, tb.gradeAt.at(i), e.lengthM.at(i), v, e.cfg.SampleStepM)
			for p := range rows {
				rows[p].set(i, g[p])
			}
		}
		if base != nil {
			for p := range rows {
				rows[p] = base.rows[p].clone()
			}
			diffRows(base.edgeGen, tb.edgeGen, recompute)
		} else {
			for p := range rows {
				rows[p] = newPagedRow[float64](nEdges)
			}
			for i := range nEdges {
				recompute(int32(i))
			}
		}
		obsEmisRecomp.Add(uint64(recomputed))
		obsEmisReused.Add(uint64(nEdges - recomputed))
		tb.emis[bucket] = rows
		obsEmisBuilds.Inc()
		// Publish unless a newer snapshot already has; a late build on an
		// old snapshot must not push the next build further back.
		built := &emisRows{gen: tb.gen, edgeGen: tb.edgeGen, rows: rows}
		for cur := base; cur == nil || cur.gen < tb.gen; cur = e.emisNewest[bucket].Load() {
			if e.emisNewest[bucket].CompareAndSwap(cur, built) {
				break
			}
		}
	})
	return tb.emis[bucket][sp]
}

// edgeEmissionGrams integrates the operating-mode rates along one edge at a
// constant cruise speed, mirroring edgeFuelGallons cell for cell: grade is
// sampled at each stepM cell's midpoint and per-cell grams accumulate as
// rate × dt / 3600 per species. params must already be defaulted (Config
// does this once).
func edgeEmissionGrams(params emission.Params, grade func(float64) float64, lengthM, speedMS, stepM float64) emission.Grams {
	var out emission.Grams
	if lengthM <= 0 || speedMS <= 0 || stepM <= 0 {
		return out
	}
	for s := 0.0; s < lengthM; s += stepM {
		ds := stepM
		if s+ds > lengthM {
			ds = lengthM - s
		}
		if ds <= 0 {
			break
		}
		dt := ds / speedMS
		row := params.RatesGPH(speedMS, 0, grade(s+ds/2))
		for p := range out {
			out[p] += row[p] * dt / 3600
		}
	}
	return out
}

// PlanEmissions evaluates the operating-mode pollutant grams of an already
// answered plan — e.g. what a min-fuel route costs in NOx. Pollutant-
// objective plans carry this in Plan.EmisG already; for other objectives
// this walks the plan's roads over the current snapshot's emission rows.
func (e *Engine) PlanEmissions(p Plan) (emission.Grams, error) {
	bucket, err := e.bucketFor(p.SpeedKmh)
	if err != nil {
		return emission.Grams{}, err
	}
	tb, err := e.fresh()
	if err != nil {
		return emission.Grams{}, err
	}
	var out emission.Grams
	for _, sp := range emission.Pollutants() {
		row := e.emissionRow(sp, bucket, tb)
		for _, id := range p.RoadIDs {
			edges, ok := e.roadEdges[id]
			if !ok {
				return emission.Grams{}, fmt.Errorf("ecoroute: plan road %q not in network", id)
			}
			out[sp] += row.at(edges[0])
		}
	}
	return out, nil
}
