package ecoroute

import "math"

// This file is phase 3 of the CCH (DESIGN.md §13): queries. Point queries
// need no priority queue at all — the upward search space from any node is a
// subset of its elimination-tree ancestor path, so both directions are plain
// ascending walks along two root paths, and label order is settled by
// construction (every arc into a path node comes from a lower path node).
// The point query prunes the walk above the paths' meeting point.

// cchScratch holds one query's labels, by rank, sized to the node count.
// Pooled scratches are all +Inf and -1: a sweep from u sets labels only on
// u's root path, so clearing the root paths a query walked resets it in
// O(path), not O(n).
type cchScratch struct {
	df, db []float64 // forward (s→v) / backward (v→t) tentative costs
	pf, pb []int32   // arc that settled v in each direction, -1 at the roots
}

func (e *Engine) cchScratchGet() *cchScratch {
	if s, ok := e.cchPool.Get().(*cchScratch); ok {
		return s
	}
	n := len(e.ids)
	s := &cchScratch{
		df: infSlice(n), db: infSlice(n),
		pf: make([]int32, n), pb: make([]int32, n),
	}
	for i := range s.pf {
		s.pf[i], s.pb[i] = -1, -1
	}
	return s
}

// clearPath resets both directions' labels on u's root path.
func (sc *cchScratch) clearPath(g *cch, u int32) {
	for ; u >= 0; u = g.parent[u] {
		sc.df[u], sc.db[u] = math.Inf(1), math.Inf(1)
		sc.pf[u], sc.pb[u] = -1, -1
	}
}

// relax offers d[u] + wt[a] to the upper end of each of u's upward arcs a,
// keeping a strictly lower cost and the arc that gave it in p. wt is w.up
// for the forward direction and w.dn for the backward one. The loop runs
// over sub-slices of u's arc range, which spares it their bounds checks.
func (g *cch) relax(wt, d []float64, p []int32, u int32) {
	du := d[u]
	if math.IsInf(du, 1) {
		return
	}
	lo, hi := g.upOff[u], g.upOff[u+1]
	heads, ws := g.arcHi[lo:hi], wt[lo:hi]
	for i, v := range heads {
		if nd := du + ws[i]; nd < d[v] {
			d[v] = nd
			p[v] = lo + int32(i)
		}
	}
}

// searchCCHWeights answers one point query over a customized table the
// caller holds (a pinned snapshot's) and unpacks the shortcut chain into
// original edge indices in travel order; the caller re-sums costs over those
// edges, so the result is bit-identical to the Dijkstra reference's for the
// same path.
func (e *Engine) searchCCHWeights(w *cchWeights, s, t int32) ([]int32, bool) {
	g := e.cchGraph()
	sc := e.cchScratchGet()
	su, tu := g.rank[s], g.rank[t]
	var path []int32
	meet := g.pointQuery(w, sc, su, tu)
	if meet >= 0 {
		path = g.unpackChains(w, sc, su, tu, meet)
	}
	sc.clearPath(g, su)
	sc.clearPath(g, tu)
	e.cchPool.Put(sc)
	return path, meet >= 0
}

// pointQuery is the pruned elimination-tree search (Buchhold, Sanders and
// Wagner, JEA 2019). It returns the meeting node of a shortest su→tu path,
// or -1 if there is none, and leaves the labels of both chains to it in sc.
//
// Below the lowest common ancestor of su and tu the two root paths are
// disjoint, so it walks them together in ascending rank and relaxes every
// reached node: forward arcs on su's path, backward arcs on tu's. From the
// ancestor to the root each node first bids df+db for the meeting point,
// then relaxes a direction only if its label is at most the best bid μ so
// far. A skipped relaxation could only offer costs above that μ, which is no
// lower than the final one, so with non-negative weights every label at or
// below the final μ keeps the value and arc of a full sweep: the meeting
// node, both chains and the unpacked path are exactly the unpruned query's.
func (g *cch) pointQuery(w *cchWeights, sc *cchScratch, su, tu int32) int32 {
	sc.df[su], sc.db[tu] = 0, 0
	u, v := su, tu
	for u != v {
		if u < 0 || v < 0 {
			return -1 // the paths end in different trees: no path
		}
		if u < v {
			g.relax(w.up, sc.df, sc.pf, u)
			u = g.parent[u]
		} else {
			g.relax(w.dn, sc.db, sc.pb, v)
			v = g.parent[v]
		}
	}
	mu, meet := math.Inf(1), int32(-1)
	for ; u >= 0; u = g.parent[u] {
		df, db := sc.df[u], sc.db[u]
		if c := df + db; c < mu {
			mu, meet = c, u
		}
		if df <= mu {
			g.relax(w.up, sc.df, sc.pf, u)
		}
		if db <= mu {
			g.relax(w.dn, sc.db, sc.pb, u)
		}
	}
	return meet
}

// unpackChains expands the shortest path through meet into original edges in
// travel order: the forward chain meet→su, collected hi-to-lo and unpacked in
// reverse, then the backward chain meet→tu.
func (g *cch) unpackChains(w *cchWeights, sc *cchScratch, su, tu, meet int32) []int32 {
	var revArcs []int32
	for m := meet; m != su; {
		a := sc.pf[m]
		revArcs = append(revArcs, a)
		m = g.arcLo[a]
	}
	var path []int32
	for i := len(revArcs) - 1; i >= 0; i-- {
		g.unpackUp(w, revArcs[i], &path)
	}
	for m := meet; m != tu; {
		a := sc.pb[m]
		g.unpackDown(w, a, &path)
		m = g.arcLo[a]
	}
	return path
}

// unpackUp expands arc a traveled lo→hi into original edges: either the one
// edge the weight came from, or the triangle legs lo→x (down the via, its
// lower side) then x→hi (up its upper side).
func (g *cch) unpackUp(w *cchWeights, a int32, out *[]int32) {
	via := w.viaUp[a]
	if via <= -2 {
		*out = append(*out, -2-via)
		return
	}
	g.unpackDown(w, via, out)
	g.unpackUp(w, g.hiSide(via, g.arcHi[a]), out)
}

// unpackDown expands arc a traveled hi→lo: hi→x (down the upper side) then
// x→lo (up the via, the lower side).
func (g *cch) unpackDown(w *cchWeights, a int32, out *[]int32) {
	via := w.viaDn[a]
	if via <= -2 {
		*out = append(*out, -2-via)
		return
	}
	g.unpackDown(w, g.hiSide(via, g.arcHi[a]), out)
	g.unpackUp(w, via, out)
}
