package ecoroute

import (
	"container/heap"
	"math"
)

// pqItem is a priority-queue entry: a node keyed by its tentative
// distance. Stale entries are skipped on pop.
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
