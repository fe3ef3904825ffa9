package ecoroute

import (
	"math"

	"roadgrade/internal/obs"
	"roadgrade/internal/par"
)

// This file is phase 2 of the CCH (DESIGN.md §13): customization. It maps one
// per-edge cost row onto the contracted topology, producing the upward and
// downward weight of every arc by the basic customization — lower-triangle
// relaxations in ascending order of the triangles' bottom node. Because
// fusion ticks stamp exactly the edges whose grades changed (tables.edgeGen,
// the invalidation signal), re-customization after a tick is incremental:
// only arcs carrying a stamped edge are re-derived in full, and weight
// changes propagate, through the triangles enumerated around each changed
// arc, to just the triangles that can move an arc, which are all that arc
// then re-evaluates. Each table records the arcs it changed, so the
// next tick can bring the table before it up to date by replaying that delta
// instead of copying every arc.

var (
	obsCCHCustFull = obs.Default.Counter("ecoroute_cch_customizations_total", obs.L("kind", "full"))
	obsCCHCustIncr = obs.Default.Counter("ecoroute_cch_customizations_total", obs.L("kind", "incremental"))
	obsCCHArcs     = obs.Default.Counter("ecoroute_cch_arcs_recomputed_total")
)

// cchWeights is one immutable customized metric: per-arc upward (lo→hi) and
// downward (hi→lo) shortest-path weights plus the via encoding that unpacks
// them back into original edges. It belongs to the snapshots that carry it
// (tables.w); queries read it under a pin, and a publish that moves a stamp
// derives a successor (incrementally) for the next snapshot.
//
// via values: -1 = unreachable in that direction; v <= -2 = the original
// edge with index -2-v; v >= 0 = the lower side of the triangle whose two
// arcs the weight decomposes into (the upper side is hiSide's).
type cchWeights struct {
	up, dn       []float64
	viaUp, viaDn []int32
	// edgeGen is the tables.edgeGen stamp row this metric was customized
	// against (shared with the immutable snapshot); diffing it against a new
	// snapshot's row yields exactly the dirty edges, reading only the pages
	// the two rows do not share.
	edgeGen pagedRow[uint64]
	// changed lists the arcs whose weights differ from the table this one
	// was derived from (empty after a full customization). Replaying them
	// into that table's arrays turns it into this one.
	changed []int32
}

// newCCHWeights allocates a weight table over nArcs arcs.
func newCCHWeights(nArcs int) *cchWeights {
	return &cchWeights{
		up: make([]float64, nArcs), dn: make([]float64, nArcs),
		viaUp: make([]int32, nArcs), viaDn: make([]int32, nArcs),
	}
}

// cchCustStats records how the most recent customization ran, for tests and
// LastCustomization.
type cchCustStats struct {
	full           bool
	recomputedArcs int
	totalArcs      int
}

// lastCustStats returns the stats of the engine's most recent customization:
// the last slot, in slot order, of the last publish that customized any.
func (e *Engine) lastCustStats() cchCustStats {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.lastCust
}

// CustStats reports how the engine's most recent customization ran — the
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
// value until the first query has run.
func (e *Engine) LastCustomization() CustStats {
	s := e.lastCustStats()
	return CustStats{Full: s.full, RecomputedArcs: s.recomputedArcs, TotalArcs: s.totalArcs}
}

// computeArc derives arc a's weights from scratch: the cheapest original edge
// in each direction, then every lower triangle (both sides have smaller
// indices, so in an ascending pass their weights are final), found by
// intersecting the downward lists of a's endpoints, each list seeking ahead
// to the other's entry. Each direction keeps the
// first minimum of that scan — edges before triangles, triangles by
// ascending lower side, a later candidate winning only when strictly less —
// which is the choice customize makes and updateArc reproduces. Reports
// whether anything changed versus what w currently holds.
func (g *cch) computeArc(w *cchWeights, cost pagedRow[float64], a int32) bool {
	up, vUp := cheapestEdge(cost, g.upEdge[g.upEdgeOff[a]:g.upEdgeOff[a+1]])
	dn, vDn := cheapestEdge(cost, g.dnEdge[g.dnEdgeOff[a]:g.dnEdgeOff[a+1]])
	u, v := g.arcLo[a], g.arcHi[a]
	i, iEnd := g.dnOff[u], g.dnOff[u+1]
	j, jEnd := g.dnOff[v], g.dnOff[v+1]
	for i < iEnd && j < jEnd {
		switch xi, xj := g.dnLo[i], g.dnLo[j]; {
		case xi < xj:
			i = seek(g.dnLo[:iEnd], i+1, xj)
		case xi > xj:
			j = seek(g.dnLo[:jEnd], j+1, xi)
		default:
			// Arc {u,v} via x: u→x→v uses dn of {x,u} then up of {x,v};
			// v→x→u uses dn of {x,v} then up of {x,u}.
			lo, hi := g.dnArc[i], g.dnArc[j]
			if c := w.dn[lo] + w.up[hi]; c < up {
				up, vUp = c, lo
			}
			if c := w.dn[hi] + w.up[lo]; c < dn {
				dn, vDn = c, lo
			}
			i++
			j++
		}
	}
	return w.set(a, up, dn, vUp, vDn)
}

// cheapestEdge returns the first minimum cost among edges and its via, or
// +Inf and -1 when there are none.
func cheapestEdge(cost pagedRow[float64], edges []int32) (float64, int32) {
	best, via := math.Inf(1), int32(-1)
	for _, ei := range edges {
		if c := cost.at(ei); c < best {
			best, via = c, -2-ei
		}
	}
	return best, via
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

// customize runs the full basic customization into w: the bins of the
// contraction's split (splitTree) in parallel, each on its own goroutine
// with its own node-to-arc scatter array, then the top. A node's pass
// (customizeNodes) reads only arcs of its own subtree and writes only its
// own upward arcs, so bins share nothing they write, and each arc meets its
// triangles in the order a serial pass over every node in ascending rank
// gives it: the same weights and vias.
func (g *cch) customize(w *cchWeights, cost pagedRow[float64]) {
	n, top := len(g.parent), len(g.splitOff)-2
	par.Do(top, func(_, k int) {
		g.customizeNodes(w, cost, g.splitNodes[g.splitOff[k]:g.splitOff[k+1]], make([]int32, n))
	})
	g.customizeNodes(w, cost, g.splitNodes[g.splitOff[top]:], make([]int32, n))
	w.changed = w.changed[:0]
}

// customizeNodes runs the basic customization at each listed node, in list
// order, which must put every node after its elimination-tree descendants.
// Node u's upward arcs start at their cheapest original edges; then each x
// of u's downward list, ascending, gives them the triangles whose lower
// side is its arc {x, u}: one of arc {u, v} for every v after u in x's
// upward set, all of which u's upward set holds (the clique property).
// Those sides belong to x, a descendant, so their weights are final, and
// each arc meets its triangles by ascending x with a strict comparison:
// computeArc's first minimum. arcTo is the scatter array, one entry per
// node.
func (g *cch) customizeNodes(w *cchWeights, cost pagedRow[float64], nodes, arcTo []int32) {
	for _, u := range nodes {
		for a := g.upOff[u]; a < g.upOff[u+1]; a++ {
			up, vUp := cheapestEdge(cost, g.upEdge[g.upEdgeOff[a]:g.upEdgeOff[a+1]])
			dn, vDn := cheapestEdge(cost, g.dnEdge[g.dnEdgeOff[a]:g.dnEdgeOff[a+1]])
			w.up[a], w.dn[a], w.viaUp[a], w.viaDn[a] = up, dn, vUp, vDn
			arcTo[g.arcHi[a]] = a
		}
		for k := g.dnOff[u]; k < g.dnOff[u+1]; k++ {
			lo, end := g.dnArc[k], g.upOff[g.dnLo[k]+1]
			dnLo, upLo := w.dn[lo], w.up[lo]
			// The upper sides lo+1..end-1, sliced to spare bounds checks.
			ups, dns := w.up[lo+1:end], w.dn[lo+1:end]
			for i, v := range g.arcHi[lo+1 : end] {
				d := arcTo[v]
				if c := dnLo + ups[i]; c < w.up[d] {
					w.up[d], w.viaUp[d] = c, lo
				}
				if c := dns[i] + upLo; c < w.dn[d] {
					w.dn[d], w.viaDn[d] = c, lo
				}
			}
		}
	}
}

// recustomize derives a successor weight table from old after a generation
// tick: diff the stamp rows for dirty edges, re-derive their arcs in full,
// and fan weight changes out, through the triangles each changed arc is a
// side of, to just the triangles that can move an arc. Arc indices only grow
// along dependency edges, so popping the worklist in ascending order settles
// each arc once. old is never mutated — in-flight queries keep reading it.
//
// The fan-out is the CCH partial update. When arc c's weights change, a
// triangle t through c can alter its arc d's result only if t is d's via in
// a direction, or if t's value now beats d's weight there: strictly less,
// or equal with a smaller lower side than d's via triangle (an original-edge
// via, or none, keeps a tie — edges precede triangles in computeArc's scan).
// Only then is t queued for d. Both of t's arcs precede d, so whichever of
// them changes last tests t on final weights. updateArc re-derives d from
// its queued triangles alone.
//
// spare, when non-nil, is the table old was derived from, held by no pinned
// snapshot: replaying old.changed into its arrays makes them equal old's,
// and the successor is derived there. Without one the successor copies
// old's arrays into fresh ones. Returns the new table and the number of
// arcs re-derived.
func (g *cch) recustomize(old, spare *cchWeights, cost pagedRow[float64], edgeGen pagedRow[uint64], work *arcWorklist) (*cchWeights, int) {
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
	w.edgeGen = edgeGen
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
		g.fanOut(w, a, work)
	}
	w.changed = changed
	return w, recomputed
}

// fanOut queues, for each triangle that changed arc c = {x, u} is a side of,
// its owner if the triangle may move it (mayMove). With c at position i of
// x's upward set U, every other member U[j] gives one triangle, whose other
// side is x's arc to U[j]: for j > i, c is the lower side of owner
// {u, U[j]}, found by a forward walk in u's upward range; for j < i, c is the
// upper side of owner {U[j], u}, found by seeking forward in u's downward
// list. Both ranges hold their U[j] in ascending order, among other nodes.
func (g *cch) fanOut(w *cchWeights, c int32, work *arcWorklist) {
	x, u := g.arcLo[c], g.arcHi[c]
	down, at := g.dnLo[:g.dnOff[u+1]], g.dnOff[u]
	for lo := g.upOff[x]; lo < c; lo++ {
		at = seek(down, at, g.arcHi[lo])
		if d := g.dnArc[at]; g.mayMove(w, d, lo, c) {
			work.push(d, lo)
		}
	}
	d := g.upOff[u]
	for hi := c + 1; hi < g.upOff[x+1]; hi++ {
		for g.arcHi[d] != g.arcHi[hi] {
			d++
		}
		if g.mayMove(w, d, c, hi) {
			work.push(d, c)
		}
	}
}

// seek returns the first position at or after from whose entry in the
// sorted s is at least x. It steps ahead by doubling strides, then bisects
// the last stride, so a short gap costs about what a linear walk does and a
// long one a logarithm.
func seek(s []int32, from, x int32) int32 {
	lo, hi, step := from, from, int32(1)
	for hi < int32(len(s)) && s[hi] < x {
		lo = hi + 1
		hi += step
		step *= 2
	}
	hi = min(hi, int32(len(s)))
	for lo < hi {
		if m := int32(uint32(lo+hi) >> 1); s[m] < x {
			lo = m + 1
		} else {
			hi = m
		}
	}
	return lo
}

// mayMove is the push-time test of the partial update: whether the triangle
// of arc d with sides lo and hi, on the current weights, can change d's
// result (see recustomize).
func (g *cch) mayMove(w *cchWeights, d, lo, hi int32) bool {
	if w.viaUp[d] == lo || w.viaDn[d] == lo {
		return true
	}
	up := w.dn[lo] + w.up[hi]
	dn := w.dn[hi] + w.up[lo]
	return up < w.up[d] || up == w.up[d] && lo < w.viaUp[d] ||
		dn < w.dn[d] || dn == w.dn[d] && lo < w.viaDn[d]
}

// updateArc re-derives arc a, which carries no dirty edge, from the
// triangles queued for it: lower side lo, just popped, and the rest of a's
// entries.
// Every element of computeArc's scan that nobody queued either kept its
// value or failed the push-time test on its final one, so it sits at or
// above a's old weight and ties only behind the old via. Unless a via's own
// value rose (or became NaN), the first minimum is therefore the old via on
// its new value or a queued triangle that beats it. After a rise the new
// weight may come from an element nobody queued, and the full computeArc
// runs instead.
func (g *cch) updateArc(w *cchWeights, cost pagedRow[float64], a, lo int32, work *arcWorklist) bool {
	up, dn := w.up[a], w.dn[a]
	vUp, vDn := w.viaUp[a], w.viaDn[a]
	v := g.arcHi[a]
	if vUp >= 0 {
		up = w.dn[vUp] + w.up[g.hiSide(vUp, v)]
	}
	if vDn >= 0 {
		dn = w.dn[g.hiSide(vDn, v)] + w.up[vDn]
	}
	if !(up <= w.up[a] && dn <= w.dn[a]) {
		work.drop(a)
		return g.computeArc(w, cost, a)
	}
	for {
		hi := g.hiSide(lo, v)
		if c := w.dn[lo] + w.up[hi]; c < up || c == up && lo < vUp {
			up, vUp = c, lo
		}
		if c := w.dn[hi] + w.up[lo]; c < dn || c == dn && lo < vDn {
			dn, vDn = c, lo
		}
		if work.next() != a {
			break
		}
		_, lo = work.pop()
	}
	return w.set(a, up, dn, vUp, vDn)
}

// arcWorklist is the sparse worklist of re-customization: a binary min-heap
// of (arc, triangle) entries ordered by arc, then by the triangle's lower
// side, with an arc's full re-derivation (triangle -1) ahead of its
// triangles. An arc's
// entries pop together, so popping settles arcs in ascending order and the
// work a tick costs follows the triangles it moves, not the graph. The heap
// is empty between uses.
type arcWorklist struct {
	heap []uint64
}

// push queues the triangle with lower side t for arc a, or a's full
// re-derivation when t is -1.
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
