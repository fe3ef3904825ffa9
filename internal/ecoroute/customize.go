package ecoroute

import (
	"math"
	"sync/atomic"

	"roadgrade/internal/obs"
)

// This file is phase 2 of the CCH (DESIGN.md §13): customization. It maps one
// per-edge cost row onto the contracted topology, producing the upward and
// downward weight of every arc by the basic customization — one ascending
// pass of lower-triangle relaxations. Because fusion ticks stamp exactly the
// edges whose grades changed (tables.edgeGen, the PR 5 invalidation signal),
// re-customization after a tick is incremental: only arcs carrying a stamped
// edge are re-derived in full, and weight changes propagate through the
// dependents index to just the triangles that can move an arc, which are all
// that arc then re-evaluates. Each table records the arcs it
// changed, so the next tick can bring the table before it up to date by
// replaying that delta instead of copying every arc.

var (
	obsCCHCustFull = obs.Default.Counter("ecoroute_cch_customizations_total", obs.L("kind", "full"))
	obsCCHCustIncr = obs.Default.Counter("ecoroute_cch_customizations_total", obs.L("kind", "incremental"))
	obsCCHArcs     = obs.Default.Counter("ecoroute_cch_arcs_recomputed_total")
)

// cchWeights is one immutable customized metric: per-arc upward (lo→hi) and
// downward (hi→lo) shortest-path weights plus the via encoding that unpacks
// them back into original edges. Queries read it lock-free; a re-fusion
// builds a successor (incrementally) and the cache swaps the pointer.
//
// via values: -1 = unreachable in that direction; v <= -2 = the original
// edge with index -2-v; v >= 0 = the flat triangle index whose two arcs the
// weight decomposes into.
type cchWeights struct {
	up, dn       []float64
	viaUp, viaDn []int32
	// edgeGen is the tables.edgeGen stamp row this metric was customized
	// against (shared with the immutable snapshot); diffing it against a new
	// snapshot's row yields exactly the dirty edges, reading only the pages
	// the two rows do not share.
	edgeGen pagedRow[uint64]
	version uint64
	// changed lists the arcs whose weights differ from the table this one
	// was derived from (empty after a full customization). Replaying them
	// into that table's arrays turns it into this one.
	changed []int32
	// refs counts in-flight readers. cchWeightsFor increments it under the
	// cache mutex before handing the table out; every reader releases when
	// its search ends. Once a table's successor has itself been superseded,
	// a count of zero lets the next re-customization write into its arrays.
	refs atomic.Int32
}

// release marks the end of one reader's use of the table.
func (w *cchWeights) release() { w.refs.Add(-1) }

// newCCHWeights allocates a weight table over nArcs arcs.
func newCCHWeights(nArcs int) *cchWeights {
	return &cchWeights{
		up: make([]float64, nArcs), dn: make([]float64, nArcs),
		viaUp: make([]int32, nArcs), viaDn: make([]int32, nArcs),
	}
}

// cchSlot is one (metric, bucket)'s customizations: the current table and
// pred, the table it was derived from. pred is out of reach of new readers,
// so once its count drains it is the next re-customization's spare.
type cchSlot struct {
	cur, pred *cchWeights
}

// cchCustStats records how the most recent customization ran, for tests and
// the routescale experiment.
type cchCustStats struct {
	full           bool
	recomputedArcs int
	totalArcs      int
}

// lastCustStats returns the stats of the engine's most recent customization.
func (e *Engine) lastCustStats() cchCustStats {
	e.cchWMu.Lock()
	defer e.cchWMu.Unlock()
	return e.lastCust
}

// CustStats reports how a CCH engine's most recent customization ran — the
// observable form of the generation-keyed invalidation claim: after a fusion
// tick, RecomputedArcs ≪ TotalArcs.
type CustStats struct {
	// Full is true for a from-scratch customization, false for an
	// incremental re-customization seeded by a superseded table.
	Full bool
	// RecomputedArcs counts arcs whose weights were re-derived;
	// TotalArcs is the hierarchy's arc count (shortcuts included).
	RecomputedArcs, TotalArcs int
}

// LastCustomization returns the most recent customization's stats. Zero
// value until a CCH query has run (or on an ALT engine).
func (e *Engine) LastCustomization() CustStats {
	s := e.lastCustStats()
	return CustStats{Full: s.full, RecomputedArcs: s.recomputedArcs, TotalArcs: s.totalArcs}
}

// computeArc derives arc a's weights from scratch: the cheapest original edge
// in each direction, then every lower triangle (both referenced arcs have
// smaller indices, so in an ascending pass their weights are final). Each
// direction keeps the first minimum of that scan — edges before triangles,
// triangles by ascending index, a later candidate winning only when strictly
// less — which is the choice updateArc reproduces. Reports whether anything
// changed versus what w currently holds.
func (g *cch) computeArc(w *cchWeights, cost pagedRow[float64], a int32) bool {
	up, dn := math.Inf(1), math.Inf(1)
	vUp, vDn := int32(-1), int32(-1)
	for k := g.upEdgeOff[a]; k < g.upEdgeOff[a+1]; k++ {
		ei := g.upEdge[k]
		if c := cost.at(ei); c < up {
			up, vUp = c, -2-ei
		}
	}
	for k := g.dnEdgeOff[a]; k < g.dnEdgeOff[a+1]; k++ {
		ei := g.dnEdge[k]
		if c := cost.at(ei); c < dn {
			dn, vDn = c, -2-ei
		}
	}
	for t := g.triOff[a]; t < g.triOff[a+1]; t++ {
		tr := &g.tri[t]
		// Arc {u,v} via x: u→x→v uses dn of {x,u} then up of {x,v};
		// v→x→u uses dn of {x,v} then up of {x,u}.
		if c := w.dn[tr.lo] + w.up[tr.hi]; c < up {
			up, vUp = c, t
		}
		if c := w.dn[tr.hi] + w.up[tr.lo]; c < dn {
			dn, vDn = c, t
		}
	}
	return w.set(a, up, dn, vUp, vDn)
}

// set stores arc a's weights and vias and reports whether any of them
// differ from what w held.
func (w *cchWeights) set(a int32, up, dn float64, vUp, vDn int32) bool {
	changed := math.Float64bits(up) != math.Float64bits(w.up[a]) ||
		math.Float64bits(dn) != math.Float64bits(w.dn[a]) ||
		vUp != w.viaUp[a] || vDn != w.viaDn[a]
	w.up[a], w.dn[a] = up, dn
	w.viaUp[a], w.viaDn[a] = vUp, vDn
	return changed
}

// customize runs the full basic customization into w: every arc, ascending.
func (g *cch) customize(w *cchWeights, cost pagedRow[float64]) {
	for a := int32(0); a < int32(len(g.arcLo)); a++ {
		g.computeArc(w, cost, a)
	}
	w.changed = w.changed[:0]
}

// recustomize derives a successor weight table from old after a generation
// tick: diff the stamp rows for dirty edges, re-derive their arcs in full,
// and fan weight changes out through the dependents index to just the
// triangles that can move an arc. Arc indices only grow along dependency
// edges, so popping the worklist in ascending order settles each arc once.
// old is never mutated — in-flight queries keep reading it.
//
// The fan-out is the CCH partial update. When arc c's weights change, a
// triangle t through c can alter its arc d's result only if t is d's via in
// a direction, or if t's value now beats d's weight there: strictly less,
// or equal with a lower index than d's via triangle (an original-edge via,
// or none, keeps a tie — edges precede triangles in computeArc's scan).
// Only then is t queued for d. Both of t's arcs precede d, so whichever of
// them changes last tests t on final weights. updateArc re-derives d from
// its queued triangles alone.
//
// spare, when non-nil, is the table old was derived from, with no readers
// left: replaying old.changed into its arrays makes them equal old's, and
// the successor is derived there. Without one the successor copies old's
// arrays into fresh ones. Returns the new table and the number of arcs
// re-derived.
func (g *cch) recustomize(old, spare *cchWeights, cost pagedRow[float64], edgeGen pagedRow[uint64], version uint64, work *arcWorklist) (*cchWeights, int) {
	w := spare
	if w != nil {
		for _, a := range old.changed {
			w.up[a], w.dn[a] = old.up[a], old.dn[a]
			w.viaUp[a], w.viaDn[a] = old.viaUp[a], old.viaDn[a]
		}
	} else {
		w = newCCHWeights(len(g.arcLo))
		copy(w.up, old.up)
		copy(w.dn, old.dn)
		copy(w.viaUp, old.viaUp)
		copy(w.viaDn, old.viaDn)
	}
	w.edgeGen, w.version = edgeGen, version
	diffRows(old.edgeGen, edgeGen, func(i int32) {
		if a := g.edgeArc[i]; a >= 0 {
			work.push(a, -1)
		}
	})
	changed := w.changed[:0]
	recomputed := 0
	for len(work.heap) > 0 {
		a, t := work.pop()
		recomputed++
		up, dn := w.up[a], w.dn[a]
		var ch bool
		if t < 0 { // a carries a dirty edge
			work.drop(a)
			ch = g.computeArc(w, cost, a)
		} else {
			ch = g.updateArc(w, cost, a, t, work)
		}
		if !ch {
			continue
		}
		changed = append(changed, a)
		if math.Float64bits(up) == math.Float64bits(w.up[a]) && math.Float64bits(dn) == math.Float64bits(w.dn[a]) {
			continue // only a via moved; no triangle value did
		}
		for k := g.depOff[a]; k < g.depOff[a+1]; k++ {
			if t := g.depTri[k]; g.mayMove(w, t) {
				work.push(g.tri[t].arc, t)
			}
		}
	}
	w.changed = changed
	return w, recomputed
}

// mayMove is the push-time test of the partial update: whether triangle t,
// on the current weights, can change its arc's result (see recustomize).
func (g *cch) mayMove(w *cchWeights, t int32) bool {
	tr := &g.tri[t]
	d := tr.arc
	if w.viaUp[d] == t || w.viaDn[d] == t {
		return true
	}
	up := w.dn[tr.lo] + w.up[tr.hi]
	dn := w.dn[tr.hi] + w.up[tr.lo]
	return up < w.up[d] || up == w.up[d] && t < w.viaUp[d] ||
		dn < w.dn[d] || dn == w.dn[d] && t < w.viaDn[d]
}

// updateArc re-derives arc a, which carries no dirty edge, from the
// triangles queued for it: t, just popped, and the rest of a's entries.
// Every element of computeArc's scan that nobody queued either kept its
// value or failed the push-time test on its final one, so it sits at or
// above a's old weight and ties only behind the old via. Unless a via's own
// value rose (or became NaN), the first minimum is therefore the old via on
// its new value or a queued triangle that beats it. After a rise the new
// weight may come from an element nobody queued, and the full computeArc
// runs instead.
func (g *cch) updateArc(w *cchWeights, cost pagedRow[float64], a, t int32, work *arcWorklist) bool {
	up, dn := w.up[a], w.dn[a]
	vUp, vDn := w.viaUp[a], w.viaDn[a]
	if vUp >= 0 {
		tr := &g.tri[vUp]
		up = w.dn[tr.lo] + w.up[tr.hi]
	}
	if vDn >= 0 {
		tr := &g.tri[vDn]
		dn = w.dn[tr.hi] + w.up[tr.lo]
	}
	if !(up <= w.up[a] && dn <= w.dn[a]) {
		work.drop(a)
		return g.computeArc(w, cost, a)
	}
	for {
		tr := &g.tri[t]
		if c := w.dn[tr.lo] + w.up[tr.hi]; c < up || c == up && t < vUp {
			up, vUp = c, t
		}
		if c := w.dn[tr.hi] + w.up[tr.lo]; c < dn || c == dn && t < vDn {
			dn, vDn = c, t
		}
		if work.next() != a {
			break
		}
		_, t = work.pop()
	}
	return w.set(a, up, dn, vUp, vDn)
}

// arcWorklist is the sparse worklist of re-customization: a binary min-heap
// of (arc, triangle) entries ordered by arc, then by triangle index, with an
// arc's full re-derivation (triangle -1) ahead of its triangles. An arc's
// entries pop together, so popping settles arcs in ascending order and the
// work a tick costs follows the triangles it moves, not the graph. The heap
// is empty between uses.
type arcWorklist struct {
	heap []uint64
}

// push queues triangle t for arc a, or a's full re-derivation when t is -1.
// A triangle both of whose arcs change is queued twice; evaluating it twice
// is harmless.
func (q *arcWorklist) push(a, t int32) {
	h := append(q.heap, uint64(a)<<32|uint64(t+1))
	for i := len(h) - 1; i > 0; {
		p := (i - 1) / 2
		if h[p] <= h[i] {
			break
		}
		h[p], h[i] = h[i], h[p]
		i = p
	}
	q.heap = h
}

// pop removes the smallest entry and returns its arc and triangle.
func (q *arcWorklist) pop() (a, t int32) {
	h := q.heap
	top := h[0]
	n := len(h) - 1
	h[0] = h[n]
	h = h[:n]
	for i := 0; ; {
		m := 2*i + 1
		if m >= n {
			break
		}
		if r := m + 1; r < n && h[r] < h[m] {
			m = r
		}
		if h[i] <= h[m] {
			break
		}
		h[i], h[m] = h[m], h[i]
		i = m
	}
	q.heap = h
	return int32(top >> 32), int32(uint32(top)) - 1
}

// next returns the arc of the smallest entry, or -1 when the heap is empty.
func (q *arcWorklist) next() int32 {
	if len(q.heap) == 0 {
		return -1
	}
	return int32(q.heap[0] >> 32)
}

// drop discards a's remaining entries.
func (q *arcWorklist) drop(a int32) {
	for q.next() == a {
		q.pop()
	}
}

// cchWeightsFor returns (customizing if needed) the weight table for a metric
// and bucket on the given snapshot, under the same cache key discipline as
// the ALT landmark tables: Distance ignores the bucket, Distance/Time never
// invalidate, grade-dependent metrics (Fuel and the pollutants) are tied to
// the snapshot's cost version. A superseded grade-dependent table is not
// discarded — it seeds the incremental re-customization and stays as the
// slot's predecessor, whose arrays the tick after next writes into once its
// readers have drained.
//
// The returned table has one reader reference held for the caller, who must
// release() it when the search is done.
func (e *Engine) cchWeightsFor(metric Objective, bucket int, tb *tables) *cchWeights {
	g := e.cchGraph()
	key := lmKey{metric: metric, bucket: bucket}
	var version uint64
	switch {
	case metric == Distance:
		key.bucket = 0 // distance costs are bucket-independent
	case gradeDependent(metric):
		version = tb.version
	}
	e.cchWMu.Lock()
	defer e.cchWMu.Unlock()
	sl := e.cchW[key]
	if sl != nil && sl.cur.version == version {
		sl.cur.refs.Add(1)
		return sl.cur
	}
	cost := e.costRow(metric, bucket, tb)
	stats := cchCustStats{totalArcs: len(g.arcLo)}
	var w *cchWeights
	if sl == nil {
		w = newCCHWeights(len(g.arcLo))
		g.customize(w, cost)
		w.edgeGen, w.version = tb.edgeGen, version
		sl = &cchSlot{}
		e.cchW[key] = sl
		stats.full = true
		stats.recomputedArcs = stats.totalArcs
		obsCCHCustFull.Inc()
	} else {
		// Readers acquire only the current table and only under cchWMu, so
		// a predecessor's zero count is final. A reader still holding it
		// forces a copy into fresh arrays instead.
		spare := sl.pred
		if spare != nil && spare.refs.Load() != 0 {
			spare = nil
		}
		w, stats.recomputedArcs = g.recustomize(sl.cur, spare, cost, tb.edgeGen, version, &e.cchWork)
		sl.pred = sl.cur
		obsCCHCustIncr.Inc()
	}
	sl.cur = w
	obsCCHArcs.Add(uint64(stats.recomputedArcs))
	e.lastCust = stats
	w.refs.Add(1)
	return w
}
