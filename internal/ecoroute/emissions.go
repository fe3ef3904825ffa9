package ecoroute

import (
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
// grades change — these metrics key their CCH weights to the snapshot's
// cost version so a re-fusion re-customizes them.
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
			g, _ := emission.CellGrams(emissionModel, tb.gradeAt.at(i), e.lengthM.at(i), v)
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
