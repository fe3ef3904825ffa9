package ecoroute

import (
	"roadgrade/internal/emission"
	"roadgrade/internal/obs"
)

// This file wires the operating-mode pollutant model (internal/emission)
// into the cost-table machinery. Pollutant rows live inside the same
// immutable snapshots as the fuel rows. The publisher builds a bucket's rows
// once a query has asked for them, one integration pass filling all four
// species, and incrementally: the next snapshot shares the pages of its
// predecessor's rows and re-integrates only the edges whose stamp differs,
// found by diffing the two stamp rows page by page. An edge's values are a
// deterministic function of the grade data its stamp names, so the carried
// entries are bit-identical to re-integrating.

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
// grades change: a publish that moves a stamp re-customizes their tables.
func gradeDependent(metric Objective) bool {
	if metric == Fuel {
		return true
	}
	_, ok := pollutantOf(metric)
	return ok
}

// buildRows fills bucket b's pollutant rows of next, the snapshot under
// construction: from prev's rows, re-integrating the edges whose stamp
// moved, or from scratch when prev has none. A build from scratch
// integrates page by page over GOMAXPROCS goroutines (byPage), also when it
// runs as one of a publish's parallel jobs.
func (e *Engine) buildRows(prev, next *tables, bucket int) {
	nEdges := len(e.edges)
	rows := make([]pagedRow[float64], emission.NumPollutants)
	recomputed := 0
	if prev != nil && prev.emis[bucket] != nil {
		for p := range rows {
			rows[p] = prev.emis[bucket][p].clone()
		}
		diffRows(prev.edgeGen, next.edgeGen, func(i int32) {
			e.integrateGrams(next, rows, bucket, i)
			recomputed++
		})
	} else {
		for p := range rows {
			rows[p] = newPagedRow[float64](nEdges)
		}
		all := make([]int32, nEdges)
		for i := range all {
			all[i] = int32(i)
		}
		byPage(all, func(run []int32) {
			for _, i := range run {
				e.integrateGrams(next, rows, bucket, i)
			}
		})
		recomputed = nEdges
	}
	obsEmisRecomp.Add(uint64(recomputed))
	obsEmisReused.Add(uint64(nEdges - recomputed))
	obsEmisBuilds.Inc()
	next.emis[bucket] = rows
}

// integrateGrams writes edge i's grams of every pollutant at bucket b into
// rows, integrated on the grade closure next recorded for it.
func (e *Engine) integrateGrams(next *tables, rows []pagedRow[float64], bucket int, i int32) {
	v := e.cfg.SpeedsKmh[bucket] / 3.6 * e.cfg.classFactor(e.edges[i].Road.Class())
	g, _ := emission.CellGrams(emissionModel, next.gradeAt.at(i), e.lengthM.at(i), v)
	for p := range rows {
		rows[p].set(i, g[p])
	}
}

// emissionRow returns the per-edge gram cost row of one pollutant at one
// bucket; the snapshot must hold the bucket's rows.
func (e *Engine) emissionRow(sp emission.Pollutant, bucket int, tb *tables) pagedRow[float64] {
	return tb.emis[bucket][sp]
}

// pathGrams sums each pollutant's grams along an edge path in travel order.
func (e *Engine) pathGrams(bucket int, tb *tables, path []int32) emission.Grams {
	var g emission.Grams
	for _, sp := range emission.Pollutants() {
		row := e.emissionRow(sp, bucket, tb)
		for _, ei := range path {
			g[sp] += row.at(ei)
		}
	}
	return g
}
