package ecoroute

import "math"

// This file is phase 3 of the CCH (DESIGN.md §13): queries. Point queries
// need no priority queue at all — the upward search space from any node is a
// subset of its elimination-tree ancestor path, so both directions are plain
// ascending sweeps along two root paths, and label order is settled by
// construction (every arc into a path node comes from a lower path node).
// The many-to-many matrix reuses the same sweeps with target buckets.

// cchScratch holds one query's labels, sized to the node count and reset via
// the touched list so a query costs O(search space), not O(n).
type cchScratch struct {
	df, db  []float64 // forward (s→v) / backward (v→t) tentative costs, by rank
	pf, pb  []int32   // arc that settled v in each direction, -1 at the roots
	touched []int32
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

func (e *Engine) cchScratchPut(s *cchScratch) {
	for _, v := range s.touched {
		s.df[v], s.db[v] = math.Inf(1), math.Inf(1)
		s.pf[v], s.pb[v] = -1, -1
	}
	s.touched = s.touched[:0]
	e.cchPool.Put(s)
}

// cchForward sweeps s's root path ascending, relaxing every upward arc. After
// it returns, df is final on the whole path (arcs into a path node all come
// from strictly lower path nodes, which were processed first).
func (g *cch) cchForward(w *cchWeights, sc *cchScratch, su int32) {
	sc.df[su] = 0
	sc.touched = append(sc.touched, su)
	for u := su; u >= 0; u = g.parent[u] {
		du := sc.df[u]
		if math.IsInf(du, 1) {
			continue
		}
		for a := g.upOff[u]; a < g.upOff[u+1]; a++ {
			if nd := du + w.up[a]; nd < sc.df[g.arcHi[a]] {
				v := g.arcHi[a]
				if math.IsInf(sc.df[v], 1) && math.IsInf(sc.db[v], 1) {
					sc.touched = append(sc.touched, v)
				}
				sc.df[v] = nd
				sc.pf[v] = a
			}
		}
	}
}

// cchBackward sweeps t's root path with downward weights, calling visit(u)
// once per path node after db[u] is final (ascending order, same argument as
// the forward sweep). visit sees every node where db is finite.
func (g *cch) cchBackward(w *cchWeights, sc *cchScratch, tu int32, visit func(u int32)) {
	sc.db[tu] = 0
	if math.IsInf(sc.df[tu], 1) {
		sc.touched = append(sc.touched, tu)
	}
	for u := tu; u >= 0; u = g.parent[u] {
		du := sc.db[u]
		if math.IsInf(du, 1) {
			continue
		}
		visit(u)
		for a := g.upOff[u]; a < g.upOff[u+1]; a++ {
			if nd := du + w.dn[a]; nd < sc.db[g.arcHi[a]] {
				v := g.arcHi[a]
				if math.IsInf(sc.df[v], 1) && math.IsInf(sc.db[v], 1) {
					sc.touched = append(sc.touched, v)
				}
				sc.db[v] = nd
				sc.pb[v] = a
			}
		}
	}
}

// searchCCH answers one point query over the customized hierarchy and
// unpacks the shortcut chain into original edge indices in travel order; the
// caller re-sums costs over those edges, so the result is bit-identical to
// the Dijkstra reference's for the same path.
func (e *Engine) searchCCH(metric Objective, bucket int, tb *tables, s, t int32) ([]int32, bool) {
	w := e.cchWeightsFor(metric, bucket, tb)
	defer w.release()
	return e.searchCCHWeights(w, s, t)
}

// searchCCHWeights is searchCCH over a weight table the caller holds.
func (e *Engine) searchCCHWeights(w *cchWeights, s, t int32) ([]int32, bool) {
	g := e.cchGraph()
	sc := e.cchScratchGet()
	defer e.cchScratchPut(sc)

	su, tu := g.rank[s], g.rank[t]
	g.cchForward(w, sc, su)
	mu := math.Inf(1)
	meet := int32(-1)
	g.cchBackward(w, sc, tu, func(u int32) {
		if c := sc.df[u] + sc.db[u]; c < mu {
			mu = c
			meet = u
		}
	})
	if meet < 0 {
		return nil, false
	}

	// Forward chain meet→su (collected hi-to-lo, unpacked in reverse), then
	// the backward chain meet→tu.
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
	return path, true
}

// unpackUp expands arc a traveled lo→hi into original edges: either the one
// edge the weight came from, or the triangle legs lo→x (down) then x→hi (up).
func (g *cch) unpackUp(w *cchWeights, a int32, out *[]int32) {
	via := w.viaUp[a]
	if via <= -2 {
		*out = append(*out, -2-via)
		return
	}
	tr := g.tri[via]
	g.unpackDown(w, tr.lo, out)
	g.unpackUp(w, tr.hi, out)
}

// unpackDown expands arc a traveled hi→lo: hi→x (down) then x→lo (up).
func (g *cch) unpackDown(w *cchWeights, a int32, out *[]int32) {
	via := w.viaDn[a]
	if via <= -2 {
		*out = append(*out, -2-via)
		return
	}
	tr := g.tri[via]
	g.unpackDown(w, tr.hi, out)
	g.unpackUp(w, tr.lo, out)
}

// cchBucketEntry is one target's backward label deposited at a search-space
// node: target column j can be reached from here for cost d.
type cchBucketEntry struct {
	j int32
	d float64
}

// cchMatrix answers the many-to-many grid with the bucket technique: one
// backward sweep per target deposits (column, cost) entries along its root
// path; one forward sweep per source then scans the buckets it meets. Total
// work is O((|S|+|T|)·path + matches) — each endpoint is swept exactly once,
// versus |S| full one-to-alls for the Dijkstra matrix.
func (e *Engine) cchMatrix(metric Objective, bucket int, tb *tables, denseS, denseT []int32, scale float64, cancelled func() error) ([][]float64, error) {
	g := e.cchGraph()
	w := e.cchWeightsFor(metric, bucket, tb)
	defer w.release()
	sc := e.cchScratchGet()
	defer e.cchScratchPut(sc)

	buckets := make([][]cchBucketEntry, len(e.ids))
	for j, t := range denseT {
		if err := cancelled(); err != nil {
			return nil, err
		}
		jj := int32(j)
		g.cchBackward(w, sc, g.rank[t], func(u int32) {
			buckets[u] = append(buckets[u], cchBucketEntry{j: jj, d: sc.db[u]})
		})
		// Reset only this target's backward labels; buckets keep the values.
		for _, v := range sc.touched {
			sc.db[v], sc.pb[v] = math.Inf(1), -1
		}
		sc.touched = sc.touched[:0]
	}

	out := make([][]float64, len(denseS))
	for i, s := range denseS {
		if err := cancelled(); err != nil {
			return nil, err
		}
		row := make([]float64, len(denseT))
		for j := range row {
			row[j] = math.Inf(1)
		}
		su := g.rank[s]
		g.cchForward(w, sc, su)
		for u := su; u >= 0; u = g.parent[u] {
			du := sc.df[u]
			if math.IsInf(du, 1) {
				continue
			}
			for _, ent := range buckets[u] {
				if c := du + ent.d; c < row[ent.j] {
					row[ent.j] = c
				}
			}
		}
		for _, v := range sc.touched {
			sc.df[v], sc.pf[v] = math.Inf(1), -1
		}
		sc.touched = sc.touched[:0]
		if scale != 1 {
			for j := range row {
				if !math.IsInf(row[j], 1) {
					row[j] *= scale
				}
			}
		}
		out[i] = row
	}
	return out, nil
}
