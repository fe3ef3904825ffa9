package ecoroute

import (
	"slices"
	"time"

	"roadgrade/internal/obs"
	"roadgrade/internal/par"
)

// This file is the snapshot publisher (DESIGN.md §9). Queries only load a
// published snapshot; one publisher per engine builds the next one after the
// source changes: the recost of the changed edges, the pollutant rows of
// every bucket a query has asked for, and an incremental re-customization of
// every weight table a query has asked for, spread over GOMAXPROCS
// goroutines. The snapshot, its rows and its tables then go out with one
// atomic store.
//
// A source that wakes the engine (the cloud store's fold) calls MarkPending
// before the new generation is visible and Wake after, so a query that reads
// the new generation finds the publish pending and waits for it. A query
// builds only where nothing will publish for it: the engine's first query, a
// table's or a bucket's first query, and every query on a source nobody
// wakes. That build runs the same publish on the query's goroutine.

// obsQueryBuilds counts the refreshes, customizations and pollutant row
// builds that ran on a query's goroutine.
var obsQueryBuilds = obs.Default.Counter("ecoroute_query_builds_total")

// need names what a query reads from a snapshot besides its stamps, grades
// and fuel rows: one bucket's pollutant rows and one weight table, each -1
// when the query reads none.
type need struct{ rows, w int }

// needNothing is the need of a query that reads only stamps, grades and
// fuel rows.
var needNothing = need{rows: -1, w: -1}

// needOf returns what a query of obj at bucket reads: a pollutant
// objective's rows and, when it searches the hierarchy, the weight table of
// its search metric.
func (e *Engine) needOf(obj Objective, bucket int, search bool) need {
	n := needNothing
	if _, ok := pollutantOf(obj); ok {
		n.rows = bucket
	}
	if search {
		n.w = e.slotOf(metricFor(obj), bucket)
	}
	return n
}

// slotOf returns the weight slot of a search metric at a bucket. Distance
// costs are bucket-independent, so its buckets share one table.
func (e *Engine) slotOf(metric Objective, bucket int) int {
	if metric == Distance {
		bucket = 0
	}
	return int(metric)*len(e.cfg.SpeedsKmh) + bucket
}

// slotKey returns the search metric and bucket of a weight slot.
func (e *Engine) slotKey(slot int) (Objective, int) {
	nb := len(e.cfg.SpeedsKmh)
	return Objective(slot / nb), slot % nb
}

// has reports whether the snapshot holds what n names.
func (tb *tables) has(n need) bool {
	return (n.rows < 0 || tb.emis[n.rows] != nil) && (n.w < 0 || tb.w[n.w] != nil)
}

// release ends one reader's hold on the snapshot.
func (tb *tables) release() { tb.refs.Add(-1) }

// pin returns the published snapshot with one reader reference held, or nil
// before the first publish. The reference is taken before the snapshot is
// checked to be still published, so once a replaced snapshot's count reads
// zero no reader will ever read it again.
func (e *Engine) pin() *tables {
	for {
		tb := e.cur.Load()
		if tb == nil {
			return nil
		}
		tb.refs.Add(1)
		if e.cur.Load() == tb {
			return tb
		}
		tb.release()
	}
}

// snapshot returns a published snapshot, pinned for the caller, that
// reflects at least the source generation read on arrival and holds what n
// names. The warm path is one generation read and a pin. A query behind the
// generation waits while a publish is running or a source change is marked
// pending; otherwise nothing will publish for it, and it publishes here.
func (e *Engine) snapshot(n need) *tables {
	gen := e.src.Generation()
	if tb := e.pin(); tb != nil {
		if tb.gen >= gen && tb.has(n) {
			obsSnapshotHits.Inc()
			return tb
		}
		tb.release()
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	for {
		if tb := e.pin(); tb != nil {
			if tb.gen >= gen && tb.has(n) {
				obsSnapshotHits.Inc()
				return tb
			}
			tb.release()
		}
		asked := e.ask(n)
		switch {
		case e.running:
			// The running publish may have read the asks before this one.
			if asked {
				e.dirty = true
			}
			e.cond.Wait()
		case e.pending > 0:
			// A source change is between MarkPending and Wake.
			e.cond.Wait()
		default:
			e.running, e.dirty = true, false
			e.publishOnce(true)
			if e.dirty {
				go e.run() // a Wake came during the build: hand the right over
			} else {
				e.running = false
			}
		}
	}
}

// ask adds what n names to what every publish builds, and reports whether
// it named anything new. A pollutant table asks for its bucket's rows too.
// The ask slices are replaced, never written, so a publish reads the ones
// it took under mu without holding it. Called with mu held.
func (e *Engine) ask(n need) bool {
	rows := n.rows
	if n.w >= 0 {
		if metric, b := e.slotKey(n.w); metric != Fuel && gradeDependent(metric) {
			rows = b
		}
	}
	asked := false
	if rows >= 0 && !e.askRows[rows] {
		e.askRows = slices.Clone(e.askRows)
		e.askRows[rows] = true
		asked = true
	}
	if n.w >= 0 && !e.askW[n.w] {
		e.askW = slices.Clone(e.askW)
		e.askW[n.w] = true
		asked = true
	}
	return asked
}

// MarkPending tells the engine that its source is about to make a new
// generation visible. Call it before the change is visible and Wake after:
// a query that reads the new generation in between waits for the publish
// instead of building.
func (e *Engine) MarkPending() {
	e.mu.Lock()
	e.pending++
	e.mu.Unlock()
}

// Wake ends a MarkPending once the new generation is visible and starts the
// publisher unless it is running or no query has built a snapshot yet. It
// never waits for the publish.
func (e *Engine) Wake() {
	e.mu.Lock()
	e.pending--
	e.dirty = true
	start := !e.running && e.cur.Load() != nil
	if start {
		e.running = true
	}
	e.cond.Broadcast()
	e.mu.Unlock()
	if start {
		go e.run()
	}
}

// run is the publisher goroutine: it publishes until no Wake came during
// the last publish, so changes that land during one are taken together by
// the next, and then exits.
func (e *Engine) run() {
	e.mu.Lock()
	defer e.mu.Unlock()
	for e.dirty {
		e.dirty = false
		e.publishOnce(false)
	}
	e.running = false
	e.cond.Broadcast()
}

// publishOnce runs one publish with the publish right held. mu is held on
// entry and on return, but not during the build.
func (e *Engine) publishOnce(onQuery bool) {
	askRows, askW := e.askRows, e.askW
	e.mu.Unlock()
	e.publish(askRows, askW, onQuery)
	e.mu.Lock()
	e.cond.Broadcast()
}

// publish derives the next snapshot from the published one: at the
// source's newest generation, with the pollutant rows of every asked bucket
// and the weight table of every asked slot. It stores it with one atomic
// store, unless nothing moved. Only the holder of the publish right calls
// it, without mu.
func (e *Engine) publish(askRows, askW []bool, onQuery bool) {
	start := time.Now()
	prev := e.cur.Load()
	gen := e.src.Generation()
	refreshed := prev == nil || gen > prev.gen
	next, moved := prev, false
	if refreshed {
		next, moved = e.rebuild(prev, gen)
	}
	var rowBuckets, wJobs []int
	for b, ok := range askRows {
		if ok && (moved || next.emis[b] == nil) {
			rowBuckets = append(rowBuckets, b)
		}
	}
	for s, ok := range askW {
		if metric, _ := e.slotKey(s); ok && (moved && gradeDependent(metric) || next.w[s] == nil) {
			wJobs = append(wJobs, s)
		}
	}
	if !refreshed {
		if len(rowBuckets)+len(wJobs) == 0 {
			return
		}
		// A published snapshot never changes: the asks go into a copy.
		next = &tables{gen: prev.gen, edgeGen: prev.edgeGen, fuel: prev.fuel, gradeAt: prev.gradeAt,
			emis: slices.Clone(prev.emis), w: slices.Clone(prev.w)}
	}

	// A replaced snapshot whose count has drained stays unread for good.
	e.retired = slices.DeleteFunc(e.retired, func(r *tables) bool { return r.refs.Load() == 0 })
	if len(rowBuckets) > 0 {
		e.buildRows(prev, next, rowBuckets)
	}
	stats := make([]cchCustStats, len(wJobs))
	e.parallel(len(wJobs), func(worker, j int) {
		stats[j] = e.customizeSlot(next, wJobs[j], &e.work[worker])
	})

	// Count before the store, so a reader of the new snapshot never sees
	// the counters or LastCustomization behind it.
	if len(stats) > 0 {
		e.mu.Lock()
		e.lastCust = stats[len(stats)-1]
		e.mu.Unlock()
	}
	if refreshed {
		obsRefreshes.Inc()
		obsRefreshSecs.Observe(time.Since(start).Seconds())
	}
	if onQuery {
		builds := len(rowBuckets) + len(wJobs)
		if refreshed {
			builds++
		}
		obsQueryBuilds.Add(uint64(builds))
	}
	e.cur.Store(next)
	if prev != nil {
		e.retired = append(e.retired, prev)
	}
}

// customizeSlot fills one weight slot of the snapshot under construction: a
// full customization on the slot's first ask, else an incremental one from
// the table next carries over from its predecessor. The table that one was
// derived from lends its arrays unless a pinned snapshot still holds it.
func (e *Engine) customizeSlot(next *tables, slot int, work *arcWorklist) cchCustStats {
	g := e.cchGraph()
	metric, bucket := e.slotKey(slot)
	cost := e.costRow(metric, bucket, next)
	st := cchCustStats{totalArcs: len(g.arcLo)}
	old := next.w[slot]
	var w *cchWeights
	if old == nil {
		w = newCCHWeights(len(g.arcLo))
		g.customize(w, cost)
		w.edgeGen = next.edgeGen
		st.full, st.recomputedArcs = true, st.totalArcs
		obsCCHCustFull.Inc()
	} else {
		spare := e.pred[slot]
		for _, r := range e.retired {
			if r.w[slot] == spare {
				spare = nil
				break
			}
		}
		w, st.recomputedArcs = g.recustomize(old, spare, cost, next.edgeGen, work)
		e.pred[slot] = old
		obsCCHCustIncr.Inc()
	}
	next.w[slot] = w
	obsCCHArcs.Add(uint64(st.recomputedArcs))
	return st
}

// parallel calls fn(worker, j) for every j in [0, n), spread over up to
// GOMAXPROCS goroutines, the caller's among them (par.Do). worker indexes
// the goroutine's worklist in e.work. Only the holder of the publish right
// calls it.
func (e *Engine) parallel(n int, fn func(worker, j int)) {
	for len(e.work) < par.Workers(n) {
		e.work = append(e.work, arcWorklist{})
	}
	par.Do(n, fn)
}
