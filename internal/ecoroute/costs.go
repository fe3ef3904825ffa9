package ecoroute

import (
	"math"
	"slices"
	"sync/atomic"
	"time"

	"roadgrade/internal/emission"
	"roadgrade/internal/fuel"
	"roadgrade/internal/obs"
	"roadgrade/internal/road"
)

// Cost-table instrumentation. Reused counts edges whose generation stamp was
// unchanged on a refresh scan (cache hit — no re-integration); recomputed
// counts edges whose grades changed (cache miss). A query served from a
// published snapshot it did not build is a snapshot hit. A publish that
// moves the generation is one refresh, timed from its start to its store.
var (
	obsCostReused   = obs.Default.Counter("ecoroute_cost_cache_hits_total")
	obsCostRecomp   = obs.Default.Counter("ecoroute_cost_cache_misses_total")
	obsSnapshotHits = obs.Default.Counter("ecoroute_snapshot_hits_total")
	obsRefreshes    = obs.Default.Counter("ecoroute_refreshes_total")
	obsFullScans    = obs.Default.Counter("ecoroute_refresh_full_scans_total")
	obsRefreshSecs  = obs.Default.Histogram("ecoroute_refresh_seconds", obs.LatencyBuckets)

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

// tables is one immutable snapshot: cost rows, pollutant rows and CCH
// weight tables at one source generation. Queries read it lock-free, pinned
// (publish.go); the publisher derives the next snapshot from it (sharing its
// row pages and copying only those that hold an edge the change feed
// re-stamps) and swaps the pointer.
type tables struct {
	// gen is the source generation the snapshot reflects.
	gen uint64
	// edgeGen[e] is the grade-data stamp edge e's costs were built from.
	edgeGen pagedRow[uint64]
	// fuel[b][e] is edge e's gallons at bucket b's class-adjusted speed.
	fuel []pagedRow[float64]
	// gradeAt[e] is the grade closure edge e's costs were integrated on,
	// captured at rebuild time, so a consumer of the snapshot (the
	// pollutant rows, the cloud's emission tables) reads the grades its
	// stamps name, not newer ones (profile snapshots are immutable).
	gradeAt pagedRow[func(float64) float64]

	// emis[b][sp][e] is edge e's grams of pollutant sp at bucket b (one
	// integration pass fills all four species), nil until a query asks for
	// the bucket, so fuel-only users never pay for them (emissions.go).
	emis [][]pagedRow[float64]
	// w[slot] is the CCH weight table of one (metric, bucket) customized on
	// this snapshot's costs (slotOf), nil until a query asks for it.
	w []*cchWeights

	// refs counts the readers holding the snapshot (pin). Once a replaced
	// snapshot's count drains, the publisher may recycle the arrays of the
	// tables only it held.
	refs atomic.Int32
}

// fresh returns a published snapshot that reflects at least the source
// generation read on arrival, waiting for a pending publish (snapshot). Its
// stamps, grades and rows are never recycled, so a caller that reads only
// them needs no pin, and the warm path takes none; its weight tables are
// only safe to read under a pin.
func (e *Engine) fresh() (*tables, error) {
	gen := e.src.Generation()
	if tb := e.cur.Load(); tb != nil && tb.gen >= gen {
		obsSnapshotHits.Inc()
		return tb, nil
	}
	tb := e.snapshot(needNothing)
	tb.release()
	return tb, nil
}

// GradeView is a read-only view of one published snapshot's grade data: per
// edge, in network edge order, the stamp and the grade closure the snapshot
// costs routes on. A consumer that prices roads with another model — the
// cloud's city emission tables — reads it instead of the source, and so
// sees exactly the map routes see. Keep a Stamps row, not the view: the
// view pins the whole snapshot.
type GradeView struct{ tb *tables }

// Grades returns a view of a published snapshot that reflects at least the
// source's generation on arrival, waiting for a pending publish as a route
// query does. Published snapshots only move forward, so a later call never
// returns an older snapshot.
func (e *Engine) Grades() (GradeView, error) {
	tb, err := e.fresh()
	return GradeView{tb}, err
}

// Generation returns the source generation the snapshot reflects.
func (v GradeView) Generation() uint64 { return v.tb.gen }

// Stamp returns edge i's grade-data stamp; Provenance decodes a
// CloudSource's.
func (v GradeView) Stamp(i int) uint64 { return v.tb.edgeGen.at(int32(i)) }

// GradeAt returns edge i's grade (radians) as a function of arc length from
// the edge's start.
func (v GradeView) GradeAt(i int) func(s float64) float64 { return v.tb.gradeAt.at(int32(i)) }

// Stamps returns the snapshot's stamp row.
func (v GradeView) Stamps() Stamps { return Stamps{pagedRow[uint64]{pages: v.tb.edgeGen.pages}} }

// Changed calls fn, in ascending order, with every edge whose stamp differs
// between since, a row taken from an earlier snapshot over the same network
// and source, and this snapshot. Pages the two rows share are skipped
// unread; the rest are compared entry by entry, so the row may come from
// another engine's snapshot.
func (v GradeView) Changed(since Stamps, fn func(i int)) {
	diffRows(since.row, v.tb.edgeGen, func(i int32) { fn(int(i)) })
}

// Stamps is one snapshot's per-edge stamp row. It shares the snapshot's
// pages, so holding it keeps those pages alive but not the snapshot's grade
// closures or cost rows.
type Stamps struct{ row pagedRow[uint64] }

// rebuild derives the next snapshot from prev, at generation gen or the
// newer one the change feed brings it to, and reports whether any stamp
// moved. Rows, stamps and grade closures share prev's pages; only the edges
// the source's change feed names are re-read, and only those whose stamp
// moved are written, which copies the pages that hold them. The first
// build, a wrapped feed and a source without one fall back to re-reading
// every edge. The pollutant rows and weight tables carry over from prev
// as they are; publish brings the asked ones up to the new costs.
func (e *Engine) rebuild(prev *tables, gen uint64) (*tables, bool) {
	nEdges := len(e.edges)
	nBuckets := len(e.cfg.SpeedsKmh)
	next := &tables{
		gen:  gen,
		fuel: make([]pagedRow[float64], nBuckets),
	}
	var stale []int32
	full := true
	if prev != nil {
		for b := range next.fuel {
			next.fuel[b] = prev.fuel[b].clone()
		}
		next.edgeGen = prev.edgeGen.clone()
		next.gradeAt = prev.gradeAt.clone()
		next.emis = slices.Clone(prev.emis)
		next.w = slices.Clone(prev.w)
		stale, next.gen, full = e.changedEdges(prev.gen, gen)
	} else {
		for b := range next.fuel {
			next.fuel[b] = newPagedRow[float64](nEdges)
		}
		next.edgeGen = newPagedRow[uint64](nEdges)
		next.gradeAt = newPagedRow[func(float64) float64](nEdges)
		next.emis = make([][]pagedRow[float64], nBuckets)
		next.w = make([]*cchWeights, int(PM+1)*nBuckets)
	}
	if full {
		obsFullScans.Inc()
		stale = make([]int32, nEdges)
		for i := range stale {
			stale[i] = int32(i)
		}
	}
	// The source is read here, on the publishing goroutine, in edge order:
	// a GradeSource need not be safe for concurrent Edge calls. The moved
	// edges overwrite stale in place, still ascending.
	moved := stale[:0]
	for _, i := range stale {
		eg := e.src.Edge(e.edges[i].Road, e.siblingRoad(int(i)))
		// A stamp names immutable grade data, so an unmoved stamp keeps the
		// closure and costs it already has.
		if prev != nil && eg.Gen == next.edgeGen.at(i) {
			continue
		}
		next.edgeGen.set(i, eg.Gen)
		next.gradeAt.set(i, eg.At)
		moved = append(moved, i)
	}
	// A first build or a full rescan integrates page by page over
	// GOMAXPROCS goroutines. A tick's few edges stay inline, checked here
	// so that its path creates no closure.
	if len(moved) < pageLen {
		e.recost(next, moved)
	} else {
		byPage(moved, func(run []int32) { e.recost(next, run) })
	}
	obsCostRecomp.Add(uint64(len(moved)))
	obsCostReused.Add(uint64(nEdges - len(moved)))
	return next, prev == nil || len(moved) > 0
}

// recost integrates the fuel rows of next, every bucket, at the listed
// edges from the grade closures rebuild recorded: one pass per edge.
func (e *Engine) recost(next *tables, edges []int32) {
	at := make([]fuelAt, len(next.fuel))
	for _, i := range edges {
		factor := e.cfg.classFactor(e.edges[i].Road.Class())
		for b := range at {
			v := e.cfg.SpeedsKmh[b] / 3.6 * factor
			at[b] = fuelAt{v: v, terms: fuelModel.AtSpeed(v, 0)}
		}
		integrate(next.gradeAt.at(i), e.lengthM.at(i), at, nil)
		for b := range at {
			next.fuel[b].set(i, at[b].gallons)
		}
	}
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
		edges = append(edges, e.edgesReading[id]...)
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

// The engine costs every edge with fixed models over the fused map's 5 m
// cells (emission.CellStepM): Table II's Eq. (7) coefficients for fuel, and
// the light-duty car for the pollutant objectives.
var (
	fuelModel     = fuel.TableII()
	emissionModel = emission.ForVehicle(emission.Car)
)

// fuelAt is one speed an integration pass prices an edge's fuel at: the
// speed (m/s), Eq. (7)'s grade-free terms there, and the running sum.
type fuelAt struct {
	v       float64
	terms   fuel.SpeedTerms
	gallons float64
}

// gramsAt is one speed an integration pass prices an edge's pollutants at.
type gramsAt struct {
	v     float64
	terms emission.SpeedTerms
	grams emission.Grams
}

// integrate walks one edge's 5 m cells (emission.CellStepM) once and adds
// each cell's share to every speed asked, fuel and pollutant alike. Each
// cell's grade is read once, at its midpoint, and its sine taken once; per
// speed, a cell adds rate × dt / 3600 with dt = ds / v, so every sum is, term
// for term and bit for bit, the one a walk at that speed alone forms:
// fuel.TripFuel's per-sample terms over the cells for fuel, and
// emission.CellGrams for pollutants.
func integrate(grade func(float64) float64, lengthM float64, fuels []fuelAt, grams []gramsAt) {
	for s := 0.0; s < lengthM; s += emission.CellStepM {
		ds := emission.CellStepM
		if s+ds > lengthM {
			ds = lengthM - s
		}
		sin := math.Sin(grade(s + ds/2))
		for k := range fuels {
			f := &fuels[k]
			dt := ds / f.v
			f.gallons += f.terms.RateGPH(sin) * dt / 3600
		}
		for k := range grams {
			g := &grams[k]
			row := g.terms.GramsPerHour(sin)
			dt := ds / g.v
			for sp := range g.grams {
				g.grams[sp] += row[sp] * dt / 3600
			}
		}
	}
}
