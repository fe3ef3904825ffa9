package ecoroute

import (
	"container/heap"
	"math"
)

// pqItem is a priority-queue entry: a node keyed by its (possibly
// potential-shifted) tentative distance. Stale entries are skipped on pop.
type pqItem struct {
	node int32
	key  float64
}

type pq []pqItem

func (q pq) Len() int                 { return len(q) }
func (q pq) Less(i, j int) bool       { return q[i].key < q[j].key }
func (q pq) Swap(i, j int)            { q[i], q[j] = q[j], q[i] }
func (q *pq) Push(x any)              { *q = append(*q, x.(pqItem)) }
func (q *pq) Pop() any                { old := *q; n := len(old); it := old[n-1]; *q = old[:n-1]; return it }
func (q *pq) push(n int32, k float64) { heap.Push(q, pqItem{node: n, key: k}) }

// infSlice returns a +Inf-filled float64 slice of length n.
func infSlice(n int) []float64 {
	out := make([]float64, n)
	for i := range out {
		out[i] = math.Inf(1)
	}
	return out
}

// searchDijkstra is plain one-directional Dijkstra from s, stopping once t
// is settled. Returns the edge-index path in travel order.
func (e *Engine) searchDijkstra(cost pagedRow[float64], s, t int32) ([]int32, bool) {
	n := len(e.ids)
	dist := infSlice(n)
	prev := make([]int32, n)
	done := make([]bool, n)
	for i := range prev {
		prev[i] = -1
	}
	dist[s] = 0
	q := &pq{{node: s, key: 0}}
	for q.Len() > 0 {
		cur := heap.Pop(q).(pqItem)
		u := cur.node
		if done[u] {
			continue
		}
		done[u] = true
		if u == t {
			break
		}
		du := dist[u]
		for k := e.outOff[u]; k < e.outOff[u+1]; k++ {
			ei := e.outArc[k]
			v := e.head[ei]
			if done[v] {
				continue
			}
			if nd := du + cost.at(ei); nd < dist[v] {
				dist[v] = nd
				prev[v] = ei
				q.push(v, nd)
			}
		}
	}
	if !done[t] {
		return nil, false
	}
	return unwindForward(e.tail, prev, s, t), true
}

// unwindForward walks prev edges from t back to s and reverses into travel
// order.
func unwindForward(tail []int32, prev []int32, s, t int32) []int32 {
	var path []int32
	for at := t; at != s; {
		ei := prev[at]
		if ei < 0 {
			return nil
		}
		path = append(path, ei)
		at = tail[ei]
	}
	for i, j := 0, len(path)-1; i < j; i, j = i+1, j-1 {
		path[i], path[j] = path[j], path[i]
	}
	return path
}

// oneToAll runs Dijkstra from src over the given CSR adjacency until the
// queue drains (or, when remain is non-nil, until every flagged target
// settles), writing distances into dist. (off, arcs)/endpoint select the
// direction: (outOff, outArc, head) searches forward from src, (inOff,
// inArc, tail) searches the reverse graph, i.e. distances TO src.
func oneToAll(off, arcs, endpoint []int32, cost pagedRow[float64], src int32, dist []float64, remain map[int32]bool) {
	for i := range dist {
		dist[i] = math.Inf(1)
	}
	done := make([]bool, len(dist))
	dist[src] = 0
	left := len(remain)
	q := &pq{{node: src, key: 0}}
	for q.Len() > 0 {
		cur := heap.Pop(q).(pqItem)
		u := cur.node
		if done[u] {
			continue
		}
		done[u] = true
		if remain != nil && remain[u] {
			if left--; left == 0 {
				return
			}
		}
		du := dist[u]
		for k := off[u]; k < off[u+1]; k++ {
			ei := arcs[k]
			v := endpoint[ei]
			if done[v] {
				continue
			}
			if nd := du + cost.at(ei); nd < dist[v] {
				dist[v] = nd
				q.push(v, nd)
			}
		}
	}
}

// lmKey identifies one landmark distance table: the search metric, the
// speed bucket, and (for grade-dependent metrics) the cost-table version the
// distances were computed on.
type lmKey struct {
	metric  Objective
	bucket  int
	version uint64
}

// landmarkTable holds, for each landmark L: from[L][v] = d(L → v) and
// to[L][v] = d(v → L). The triangle inequality turns them into admissible
// lower bounds for any pair.
type landmarkTable struct {
	from [][]float64
	to   [][]float64
}

// lbTo returns a lower bound on d(v, t): d(L,t) − d(L,v) ≤ d(v,t) and
// d(v,L) − d(t,L) ≤ d(v,t).
func (lt *landmarkTable) lbTo(v, t int32) float64 {
	best := 0.0
	for k := range lt.from {
		if b := lt.from[k][t] - lt.from[k][v]; b > best && !math.IsInf(lt.from[k][v], 1) {
			best = b
		}
		if b := lt.to[k][v] - lt.to[k][t]; b > best && !math.IsInf(lt.to[k][t], 1) {
			best = b
		}
	}
	return best
}

// lbFrom returns a lower bound on d(s, v), symmetrically.
func (lt *landmarkTable) lbFrom(s, v int32) float64 {
	best := 0.0
	for k := range lt.from {
		if b := lt.from[k][v] - lt.from[k][s]; b > best && !math.IsInf(lt.from[k][s], 1) {
			best = b
		}
		if b := lt.to[k][s] - lt.to[k][v]; b > best && !math.IsInf(lt.to[k][v], 1) {
			best = b
		}
	}
	return best
}

// pickLandmarks selects the landmark node set once, by farthest-point
// traversal on the distance metric: well-spread peripheral nodes give the
// tightest triangle bounds. Called with e.lmMu held.
func (e *Engine) pickLandmarks() []int32 {
	if e.lmNodes != nil {
		return e.lmNodes
	}
	k := e.cfg.Landmarks
	if k < 0 {
		e.lmNodes = []int32{}
		return e.lmNodes
	}
	if k > len(e.ids) {
		k = len(e.ids)
	}
	n := len(e.ids)
	minDist := infSlice(n)
	dist := make([]float64, n)
	picked := make([]int32, 0, k)
	cur := int32(0)
	for len(picked) < k {
		picked = append(picked, cur)
		oneToAll(e.outOff, e.outArc, e.head, e.lengthM, cur, dist, nil)
		next, nextD := int32(-1), -1.0
		for v := 0; v < n; v++ {
			if dist[v] < minDist[v] {
				minDist[v] = dist[v]
			}
			if !math.IsInf(minDist[v], 1) && minDist[v] > nextD {
				nextD = minDist[v]
				next = int32(v)
			}
		}
		if next < 0 || nextD <= 0 {
			break // graph exhausted (or a single component smaller than k)
		}
		cur = next
	}
	e.lmNodes = picked
	return picked
}

// landmarksFor returns (building if needed) the landmark distance table for
// a metric and bucket on the given snapshot. Distance and Time metrics never
// invalidate (grades don't affect them); grade-dependent metrics (Fuel and
// the pollutants) are keyed to the snapshot's cost version so only an
// actual cost change rebuilds them.
func (e *Engine) landmarksFor(metric Objective, bucket int, tb *tables) *landmarkTable {
	key := lmKey{metric: metric, bucket: bucket}
	switch {
	case metric == Distance:
		key.bucket = 0 // distance costs are bucket-independent
	case gradeDependent(metric):
		key.version = tb.version
	}
	e.lmMu.Lock()
	defer e.lmMu.Unlock()
	if lt, ok := e.lmCache[key]; ok {
		return lt
	}
	nodes := e.pickLandmarks()
	cost := e.costRow(metric, bucket, tb)
	lt := &landmarkTable{
		from: make([][]float64, len(nodes)),
		to:   make([][]float64, len(nodes)),
	}
	for i, L := range nodes {
		lt.from[i] = make([]float64, len(e.ids))
		lt.to[i] = make([]float64, len(e.ids))
		oneToAll(e.outOff, e.outArc, e.head, cost, L, lt.from[i], nil)
		oneToAll(e.inOff, e.inArc, e.tail, cost, L, lt.to[i], nil)
	}
	obsLandmarkRuns.Inc()
	// Drop superseded grade-dependent tables for this metric and bucket so
	// re-fusions don't accumulate dead versions.
	if gradeDependent(metric) {
		for old := range e.lmCache {
			if old.metric == metric && old.bucket == bucket && old.version != key.version {
				delete(e.lmCache, old)
			}
		}
	}
	e.lmCache[key] = lt
	return lt
}

// potentialScale shrinks ALT potentials by a relative margin so floating-
// point rounding in the landmark distance sums can never push a bound above
// the true distance (which would break optimality in the last ulp). The
// scaled potential stays feasible: reduced costs are a convex combination of
// the raw cost and the unscaled reduced cost, both non-negative.
const potentialScale = 1 - 1e-9

// searchBidirectional is bidirectional Dijkstra with consistent averaged ALT
// potentials pf(v) = ½(lb(v→t) − lb(s→v))·scale, pb = −pf. Forward keys are
// df(v)+pf(v), backward keys db(v)−pf(v); with pf+pb = 0 the searches meet
// with the classic stop rule topF + topB ≥ μ. The found path's cost is
// re-summed in travel order by the caller, so the result is bit-identical to
// plain Dijkstra's.
func (e *Engine) searchBidirectional(cost pagedRow[float64], lm *landmarkTable, s, t int32) ([]int32, bool) {
	n := len(e.ids)
	pf := func(v int32) float64 {
		if lm == nil || len(lm.from) == 0 {
			return 0
		}
		return 0.5 * potentialScale * (lm.lbTo(v, t) - lm.lbFrom(s, v))
	}

	df, db := infSlice(n), infSlice(n)
	prevF := make([]int32, n) // edge settling v in the forward search
	nextB := make([]int32, n) // edge leading from v toward t in the backward search
	for i := range prevF {
		prevF[i], nextB[i] = -1, -1
	}
	doneF := make([]bool, n)
	doneB := make([]bool, n)

	df[s], db[t] = 0, 0
	qf := &pq{{node: s, key: pf(s)}}
	qb := &pq{{node: t, key: -pf(t)}}

	mu := math.Inf(1)
	meetEdge := int32(-1) // edge (u,v) joining the two trees; -1 + meetNode covers the s==t-free meeting-at-node case
	meetNode := int32(-1)

	relaxF := func(u int32) {
		du := df[u]
		for k := e.outOff[u]; k < e.outOff[u+1]; k++ {
			ei := e.outArc[k]
			v := e.head[ei]
			nd := du + cost.at(ei)
			if nd < df[v] {
				df[v] = nd
				prevF[v] = ei
				qf.push(v, nd+pf(v))
			}
			if !math.IsInf(db[v], 1) {
				if total := du + cost.at(ei) + db[v]; total < mu {
					mu = total
					meetEdge = ei
					meetNode = -1
				}
			}
		}
	}
	relaxB := func(u int32) {
		du := db[u]
		for k := e.inOff[u]; k < e.inOff[u+1]; k++ {
			ei := e.inArc[k]
			v := e.tail[ei]
			nd := du + cost.at(ei)
			if nd < db[v] {
				db[v] = nd
				nextB[v] = ei
				qb.push(v, nd-pf(v))
			}
			if !math.IsInf(df[v], 1) {
				if total := df[v] + cost.at(ei) + du; total < mu {
					mu = total
					meetEdge = ei
					meetNode = -1
				}
			}
		}
	}

	for qf.Len() > 0 && qb.Len() > 0 {
		topF := (*qf)[0].key
		topB := (*qb)[0].key
		if topF+topB >= mu {
			break
		}
		if topF <= topB {
			cur := heap.Pop(qf).(pqItem)
			u := cur.node
			if doneF[u] {
				continue
			}
			doneF[u] = true
			if doneB[u] && df[u]+db[u] < mu {
				mu = df[u] + db[u]
				meetNode = u
				meetEdge = -1
			}
			relaxF(u)
		} else {
			cur := heap.Pop(qb).(pqItem)
			u := cur.node
			if doneB[u] {
				continue
			}
			doneB[u] = true
			if doneF[u] && df[u]+db[u] < mu {
				mu = df[u] + db[u]
				meetNode = u
				meetEdge = -1
			}
			relaxB(u)
		}
	}
	if math.IsInf(mu, 1) {
		return nil, false
	}

	// Stitch the forward chain, the meeting edge, and the backward chain.
	var joinU, joinV int32
	if meetEdge >= 0 {
		joinU, joinV = e.tail[meetEdge], e.head[meetEdge]
	} else {
		joinU, joinV = meetNode, meetNode
	}
	fwd := unwindForward(e.tail, prevF, s, joinU)
	if fwd == nil && joinU != s {
		return nil, false
	}
	path := fwd
	if meetEdge >= 0 {
		path = append(path, meetEdge)
	}
	for at := joinV; at != t; {
		ei := nextB[at]
		if ei < 0 {
			return nil, false
		}
		path = append(path, ei)
		at = e.head[ei]
	}
	return path, true
}
