package ecoroute

import (
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"roadgrade/internal/fuel"
	"roadgrade/internal/obs"
	"roadgrade/internal/road"
)

// Cost-table instrumentation. Reused counts edges whose generation stamp was
// unchanged on a refresh scan (cache hit — no re-integration); recomputed
// counts edges whose grades changed (cache miss). Warm queries that skip the
// scan entirely are the snapshot hits.
var (
	obsCostReused   = obs.Default.Counter("ecoroute_cost_cache_hits_total")
	obsCostRecomp   = obs.Default.Counter("ecoroute_cost_cache_misses_total")
	obsSnapshotHits = obs.Default.Counter("ecoroute_snapshot_hits_total")
	obsRefreshes    = obs.Default.Counter("ecoroute_refreshes_total")
	obsFullScans    = obs.Default.Counter("ecoroute_refresh_full_scans_total")
	obsRefreshSecs  = obs.Default.Histogram("ecoroute_refresh_seconds", obs.LatencyBuckets)
	obsLandmarkRuns = obs.Default.Counter("ecoroute_landmark_builds_total")

	obsRouteSecs = map[Objective]*obs.Histogram{
		Distance: obs.Default.Histogram("ecoroute_route_seconds", obs.LatencyBuckets, obs.L("objective", "distance")),
		Time:     obs.Default.Histogram("ecoroute_route_seconds", obs.LatencyBuckets, obs.L("objective", "time")),
		Fuel:     obs.Default.Histogram("ecoroute_route_seconds", obs.LatencyBuckets, obs.L("objective", "fuel")),
		CO2:      obs.Default.Histogram("ecoroute_route_seconds", obs.LatencyBuckets, obs.L("objective", "co2")),
		NOx:      obs.Default.Histogram("ecoroute_route_seconds", obs.LatencyBuckets, obs.L("objective", "nox")),
		CO:       obs.Default.Histogram("ecoroute_route_seconds", obs.LatencyBuckets, obs.L("objective", "co")),
		HC:       obs.Default.Histogram("ecoroute_route_seconds", obs.LatencyBuckets, obs.L("objective", "hc")),
		PM:       obs.Default.Histogram("ecoroute_route_seconds", obs.LatencyBuckets, obs.L("objective", "pm")),
	}
)

// observeRoute times one query into the per-objective latency histogram.
func observeRoute(obj Objective) func() {
	h, ok := obsRouteSecs[obj]
	if !ok {
		return func() {}
	}
	start := time.Now()
	return func() { h.Observe(time.Since(start).Seconds()) }
}

// tables is one immutable cost-table snapshot. Queries read it lock-free;
// refreshes derive the next snapshot from the previous one (sharing its row
// pages and copying only those that hold an edge the change feed re-stamps)
// and swap the pointer.
type tables struct {
	// gen is the source generation the snapshot reflects.
	gen uint64
	// version bumps whenever any edge cost actually changed; fuel-metric
	// landmark tables are keyed to it so an unchanged refresh invalidates
	// nothing.
	version uint64
	// edgeGen[e] is the grade-data stamp edge e's costs were built from.
	edgeGen pagedRow[uint64]
	// fuel[b][e] is edge e's gallons at bucket b's class-adjusted speed.
	fuel []pagedRow[float64]
	// gradeAt[e] is the grade closure edge e's costs were integrated on,
	// captured at rebuild time. Pollutant rows are built lazily AFTER the
	// snapshot is published; reading grades from the source then could see
	// newer data than edgeGen stamps — these closures pin the snapshot's
	// view (profile snapshots are immutable).
	gradeAt pagedRow[func(float64) float64]

	// Pollutant cost rows (emis[b][sp][e], grams) are built lazily per
	// bucket — one integration pass fills all four species — so fuel-only
	// users never pay for them (emissions.go).
	emisOnce []sync.Once
	emis     [][]pagedRow[float64]
}

// atomicTables is the published-snapshot slot.
type atomicTables struct{ p atomic.Pointer[tables] }

// fresh returns a snapshot that reflects the source's current generation,
// refreshing stale edges first if needed. The warm path is one atomic load
// plus one counter comparison.
func (e *Engine) fresh() (*tables, error) {
	gen := e.src.Generation()
	if tb := e.cur.p.Load(); tb != nil && tb.gen == gen {
		obsSnapshotHits.Inc()
		return tb, nil
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	// Re-check under the lock: another query may have refreshed already.
	// Re-read the generation so a submission that landed while we waited is
	// folded into this refresh rather than triggering another.
	gen = e.src.Generation()
	if tb := e.cur.p.Load(); tb != nil && tb.gen == gen {
		return tb, nil
	}
	start := time.Now()
	next := e.rebuild(e.cur.p.Load(), gen)
	e.cur.p.Store(next)
	obsRefreshes.Inc()
	obsRefreshSecs.Observe(time.Since(start).Seconds())
	return next, nil
}

// rebuild derives the next snapshot from prev. Rows, stamps and grade
// closures share prev's pages; only the edges the source's change feed
// names are re-read, and only those whose stamp moved are written, which
// copies the pages that hold them. The first build, a wrapped feed and a
// source without one fall back to re-reading every edge.
func (e *Engine) rebuild(prev *tables, gen uint64) *tables {
	nEdges := len(e.edges)
	nBuckets := len(e.cfg.SpeedsKmh)
	next := &tables{
		gen:      gen,
		fuel:     make([]pagedRow[float64], nBuckets),
		emisOnce: make([]sync.Once, nBuckets),
		emis:     make([][]pagedRow[float64], nBuckets),
	}
	var stale []int32
	full := true
	if prev != nil {
		for b := range next.fuel {
			next.fuel[b] = prev.fuel[b].clone()
		}
		next.edgeGen = prev.edgeGen.clone()
		next.gradeAt = prev.gradeAt.clone()
		next.version = prev.version
		stale, next.gen, full = e.changedEdges(prev.gen, gen)
	} else {
		for b := range next.fuel {
			next.fuel[b] = newPagedRow[float64](nEdges)
		}
		next.edgeGen = newPagedRow[uint64](nEdges)
		next.gradeAt = newPagedRow[func(float64) float64](nEdges)
	}
	if full {
		obsFullScans.Inc()
		stale = make([]int32, nEdges)
		for i := range stale {
			stale[i] = int32(i)
		}
	}
	changed := 0
	for _, i := range stale {
		ed := e.edges[i]
		eg := e.src.Edge(ed.Road, e.siblingRoad(int(i)))
		// A stamp names immutable grade data, so an unmoved stamp keeps the
		// closure and costs it already has.
		if prev != nil && eg.Gen == next.edgeGen.at(i) {
			continue
		}
		next.edgeGen.set(i, eg.Gen)
		next.gradeAt.set(i, eg.At)
		for b := range next.fuel {
			v := e.cfg.SpeedsKmh[b] / 3.6 * e.cfg.classFactor(ed.Road.Class())
			next.fuel[b].set(i, edgeFuelGallons(e.cfg.Params, eg.At, e.lengthM.at(i), v, e.cfg.SampleStepM))
		}
		changed++
	}
	obsCostRecomp.Add(uint64(changed))
	obsCostReused.Add(uint64(nEdges - changed))
	if changed > 0 {
		next.version++
	}
	return next
}

// changedEdges lists, in ascending order, the edges whose grades may have
// moved since the snapshot built at generation since, and the generation
// the list brings a snapshot to. full is true when the source cannot say —
// it has no change feed, or the feed wrapped — and every edge must be
// re-read at gen.
func (e *Engine) changedEdges(since, gen uint64) (edges []int32, now uint64, full bool) {
	feed, ok := e.src.(changeFeed)
	if !ok {
		return nil, gen, true
	}
	roads, now, ok := feed.ChangedSince(since)
	if !ok {
		return nil, gen, true
	}
	for _, id := range roads {
		edges = append(edges, e.roadEdges[id]...)
	}
	slices.Sort(edges)
	return slices.Compact(edges), now, false
}

// siblingRoad returns the opposite-direction road of edge i, or nil.
func (e *Engine) siblingRoad(i int) *road.Road {
	if s := e.sibling[i]; s >= 0 {
		return e.edges[s].Road
	}
	return nil
}

// edgeFuelGallons integrates the Eq. (7) rate along one edge at a constant
// cruise speed: grade is sampled at the midpoint of each stepM cell and the
// per-cell gallons accumulate exactly like fuel.TripFuel's per-sample terms
// (rate × dt / 3600), so a cost equals TripFuel over the same samples
// bit-for-bit.
func edgeFuelGallons(p fuel.VSPParams, grade func(float64) float64, lengthM, speedMS, stepM float64) float64 {
	if lengthM <= 0 || speedMS <= 0 || stepM <= 0 {
		return 0
	}
	var gallons float64
	for s := 0.0; s < lengthM; s += stepM {
		ds := stepM
		if s+ds > lengthM {
			ds = lengthM - s
		}
		if ds <= 0 {
			break
		}
		dt := ds / speedMS
		gallons += p.RateGPH(speedMS, 0, grade(s+ds/2)) * dt / 3600
	}
	return gallons
}
