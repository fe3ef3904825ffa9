package ecoroute

import (
	"roadgrade/internal/emission"
	"roadgrade/internal/obs"
)

// This file wires the operating-mode pollutant model (internal/emission)
// into the cost-table machinery. Pollutant rows live inside the same
// immutable snapshots as the fuel rows. The publisher builds a bucket's rows
// once a query has asked for them, one integration pass per edge filling
// all four species at every asked bucket, and incrementally: the next
// snapshot shares the pages of its predecessor's rows and re-integrates
// only the edges whose stamp differs, found by diffing the two stamp rows
// page by page. An edge's values are a
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

// buildRows fills the pollutant rows of next, the snapshot under
// construction, at every listed bucket, in one integration pass per edge.
// A bucket prev holds rows for starts from them and re-integrates the edges
// whose stamp moved; the others are built from scratch, integrating page by
// page over GOMAXPROCS goroutines (byPage).
func (e *Engine) buildRows(prev, next *tables, buckets []int) {
	nEdges := len(e.edges)
	var carried, fresh []int
	for _, b := range buckets {
		rows := make([]pagedRow[float64], emission.NumPollutants)
		if prev != nil && prev.emis[b] != nil {
			for p := range rows {
				rows[p] = prev.emis[b][p].clone()
			}
			carried = append(carried, b)
		} else {
			for p := range rows {
				rows[p] = newPagedRow[float64](nEdges)
			}
			fresh = append(fresh, b)
		}
		next.emis[b] = rows
	}
	var moved []int32
	if len(carried) > 0 {
		diffRows(prev.edgeGen, next.edgeGen, func(i int32) { moved = append(moved, i) })
		byPage(moved, func(run []int32) { e.integrateGrams(next, carried, run) })
	}
	if len(fresh) > 0 {
		all := make([]int32, nEdges)
		for i := range all {
			all[i] = int32(i)
		}
		byPage(all, func(run []int32) { e.integrateGrams(next, fresh, run) })
	}
	recomputed := len(carried)*len(moved) + len(fresh)*nEdges
	obsEmisRecomp.Add(uint64(recomputed))
	obsEmisReused.Add(uint64(len(buckets)*nEdges - recomputed))
	obsEmisBuilds.Add(uint64(len(buckets)))
}

// integrateGrams writes the listed edges' grams of every pollutant at each
// of buckets into next's rows, integrated in one pass per edge on the grade
// closure next recorded for it.
func (e *Engine) integrateGrams(next *tables, buckets []int, edges []int32) {
	at := make([]gramsAt, len(buckets))
	for _, i := range edges {
		factor := e.cfg.classFactor(e.edges[i].Road.Class())
		for k, b := range buckets {
			v := e.cfg.SpeedsKmh[b] / 3.6 * factor
			at[k] = gramsAt{v: v, terms: emissionModel.AtSpeed(v, 0)}
		}
		integrate(next.gradeAt.at(i), e.lengthM.at(i), nil, at)
		for k, b := range buckets {
			rows := next.emis[b]
			for p := range rows {
				rows[p].set(i, at[k].grams[p])
			}
		}
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
