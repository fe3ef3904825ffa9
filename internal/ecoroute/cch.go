package ecoroute

import "sort"

// This file is phase 1 of the customizable contraction hierarchy (DESIGN.md
// §13): the metric-independent contraction. It depends only on the network
// topology and node coordinates, never on costs, so it is built exactly once
// per engine and survives every fusion generation tick.
//
// Nodes are identified by RANK — their position in the nested-dissection
// elimination order — throughout; dense engine indices appear only at the
// order/rank translation boundary. An "arc" is an undirected edge {lo, hi}
// (lo < hi in rank) of the chordal supergraph produced by the elimination
// game: the original street graph plus every shortcut the contraction
// inserts. Each arc later carries one upward (lo→hi) and one downward
// (hi→lo) weight per customized metric.

// ndLeafSize is the cell size below which nested dissection stops splitting
// and just emits the nodes; small leaves are local grid patches whose
// elimination fill-in is negligible.
const ndLeafSize = 64

type cch struct {
	order  []int32 // rank → dense node index
	rank   []int32 // dense node index → rank
	parent []int32 // rank → elimination-tree parent rank, -1 at roots

	// Arcs sorted by (lo, hi); the arcs with lo == u occupy the contiguous
	// index range [upOff[u], upOff[u+1]), which doubles as u's upward
	// adjacency — the CCH invariant "upward neighbors of u are exactly u's
	// elimination-tree ancestors that u shares an arc with".
	upOff []int32
	arcLo []int32 // per arc: lower-rank endpoint
	arcHi []int32 // per arc: higher-rank endpoint

	// Original directed edges folded onto arcs: upEdge lists edges traveling
	// lo→hi, dnEdge lists hi→lo (CSR per arc). edgeArc maps each engine edge
	// to its arc (-1 for a same-rank self loop, which cannot occur for
	// distinct endpoints).
	upEdgeOff []int32
	upEdge    []int32
	dnEdgeOff []int32
	dnEdge    []int32
	edgeArc   []int32

	// Lower triangles per arc a = {u, v}, in tri[triOff[a]:triOff[a+1]]:
	// every x with rank(x) < rank(u) adjacent to both endpoints contributes
	// one. Both referenced arcs have lo == x < u = lo(a), so they sit at
	// strictly smaller arc indices — customization is one ascending pass and
	// incremental dirt only ever propagates upward.
	triOff []int32
	tri    []cchTri

	// Dependents: depTri lists, for each arc, the triangles (of
	// higher-indexed arcs) that reference it — the fan-out set incremental
	// re-customization walks when a weight actually changes.
	depOff []int32
	depTri []int32
}

// cchTri is one lower triangle {x, u, v} of arc = {u, v}: lo is arc {x, u}
// and hi is arc {x, v}. Its upward value is dn[lo] + up[hi] (u→x→v), its
// downward value dn[hi] + up[lo] (v→x→u). The owning arc rides along so the
// re-customization fan-out reaches a triangle's two arcs and its owner in
// one record.
type cchTri struct {
	lo, hi, arc int32
}

// buildCCH contracts the engine's graph: nested-dissection order, elimination
// game with clique fill-in, then the flat arc/triangle/dependent indices.
// Everything is deterministic — sorted neighbor lists, index-ordered loops.
func buildCCH(e *Engine) *cch {
	n := len(e.ids)
	g := &cch{}
	g.order = ndOrder(e)
	g.rank = make([]int32, n)
	for r, v := range g.order {
		g.rank[v] = int32(r)
	}

	// Elimination game in rank space. nbr[u] holds u's current higher
	// neighbors; contracting u (ascending) turns them into a clique.
	nbr := make([]map[int32]struct{}, n)
	add := func(lo, hi int32) {
		if nbr[lo] == nil {
			nbr[lo] = make(map[int32]struct{}, 8)
		}
		nbr[lo][hi] = struct{}{}
	}
	for i := range e.edges {
		u, v := g.rank[e.tail[i]], g.rank[e.head[i]]
		if u == v {
			continue
		}
		if u > v {
			u, v = v, u
		}
		add(u, v)
	}
	g.parent = make([]int32, n)
	upNbrs := make([][]int32, n)
	for u := 0; u < n; u++ {
		g.parent[u] = -1
		set := nbr[u]
		if len(set) == 0 {
			continue
		}
		list := make([]int32, 0, len(set))
		for v := range set {
			list = append(list, v)
		}
		sort.Slice(list, func(i, j int) bool { return list[i] < list[j] })
		upNbrs[u] = list
		g.parent[u] = list[0]
		for i := 0; i < len(list); i++ {
			for j := i + 1; j < len(list); j++ {
				add(list[i], list[j])
			}
		}
		nbr[u] = nil // the set is frozen into upNbrs; free the map
	}

	// Flatten the arcs, sorted by (lo, hi): ascending u with sorted upNbrs[u]
	// is already that order.
	g.upOff = make([]int32, n+1)
	for u := 0; u < n; u++ {
		g.upOff[u+1] = g.upOff[u] + int32(len(upNbrs[u]))
	}
	nArcs := int(g.upOff[n])
	g.arcLo = make([]int32, nArcs)
	g.arcHi = make([]int32, nArcs)
	for u := 0; u < n; u++ {
		at := g.upOff[u]
		for _, v := range upNbrs[u] {
			g.arcLo[at] = int32(u)
			g.arcHi[at] = v
			at++
		}
	}

	// Original edges → arcs.
	g.edgeArc = make([]int32, len(e.edges))
	upCnt := make([]int32, nArcs)
	dnCnt := make([]int32, nArcs)
	for i := range e.edges {
		u, v := g.rank[e.tail[i]], g.rank[e.head[i]]
		if u == v {
			g.edgeArc[i] = -1
			continue
		}
		if u < v {
			a := g.arcIndex(u, v)
			g.edgeArc[i] = a
			upCnt[a]++
		} else {
			a := g.arcIndex(v, u)
			g.edgeArc[i] = a
			dnCnt[a]++
		}
	}
	g.upEdgeOff = prefixSum(upCnt)
	g.dnEdgeOff = prefixSum(dnCnt)
	g.upEdge = make([]int32, g.upEdgeOff[nArcs])
	g.dnEdge = make([]int32, g.dnEdgeOff[nArcs])
	upCur := make([]int32, nArcs)
	dnCur := make([]int32, nArcs)
	for i := range e.edges {
		a := g.edgeArc[i]
		if a < 0 {
			continue
		}
		if g.rank[e.tail[i]] < g.rank[e.head[i]] {
			g.upEdge[g.upEdgeOff[a]+upCur[a]] = int32(i)
			upCur[a]++
		} else {
			g.dnEdge[g.dnEdgeOff[a]+dnCur[a]] = int32(i)
			dnCur[a]++
		}
	}

	// Lower triangles: for every node x and ordered pair (u, v) of its upward
	// neighbors, the clique fill guarantees arc {u, v} exists and gains the
	// triangle ({x,u}, {x,v}). Counted then filled, both in the same
	// deterministic enumeration order.
	triCnt := make([]int32, nArcs)
	for x := 0; x < n; x++ {
		list := upNbrs[x]
		for i := 0; i < len(list); i++ {
			for j := i + 1; j < len(list); j++ {
				triCnt[g.arcIndex(list[i], list[j])]++
			}
		}
	}
	g.triOff = prefixSum(triCnt)
	nTri := int(g.triOff[nArcs])
	g.tri = make([]cchTri, nTri)
	triCur := make([]int32, nArcs)
	for x := 0; x < n; x++ {
		list := upNbrs[x]
		for i := 0; i < len(list); i++ {
			aLo := g.arcIndex(int32(x), list[i])
			for j := i + 1; j < len(list); j++ {
				a := g.arcIndex(list[i], list[j])
				g.tri[g.triOff[a]+triCur[a]] = cchTri{lo: aLo, hi: g.arcIndex(int32(x), list[j]), arc: a}
				triCur[a]++
			}
		}
	}

	// Invert the triangle references into the dependents index.
	depCnt := make([]int32, nArcs)
	for _, tr := range g.tri {
		depCnt[tr.lo]++
		depCnt[tr.hi]++
	}
	g.depOff = prefixSum(depCnt)
	g.depTri = make([]int32, g.depOff[nArcs])
	depCur := make([]int32, nArcs)
	for t, tr := range g.tri {
		for _, b := range [2]int32{tr.lo, tr.hi} {
			g.depTri[g.depOff[b]+depCur[b]] = int32(t)
			depCur[b]++
		}
	}
	return g
}

// arcIndex locates arc {lo, hi} by binary search in lo's sorted upward
// range. Callers only ask for arcs the elimination game created.
func (g *cch) arcIndex(lo, hi int32) int32 {
	a, b := g.upOff[lo], g.upOff[lo+1]
	for a < b {
		if m := (a + b) / 2; g.arcHi[m] < hi {
			a = m + 1
		} else {
			b = m
		}
	}
	return a
}

// prefixSum turns per-item counts into CSR offsets (len(counts)+1 entries).
func prefixSum(counts []int32) []int32 {
	off := make([]int32, len(counts)+1)
	for i, c := range counts {
		off[i+1] = off[i] + c
	}
	return off
}

// ndOrder computes the geometric nested-dissection elimination order: split
// each cell at the coordinate median of its wider axis, take as separator the
// left-half nodes with a neighbor in the right half, order both remainders
// recursively and put the separator on top of the cell. Separators on a
// near-planar street graph are O(√cell), which keeps both the fill-in and
// the elimination-tree height low. Deterministic: every comparison breaks
// ties by dense node index.
func ndOrder(e *Engine) []int32 {
	n := len(e.ids)
	// Undirected neighbor CSR (out heads + in tails; duplicates are fine, the
	// separator test is a membership check).
	deg := make([]int32, n+1)
	for u := 0; u < n; u++ {
		deg[u+1] = deg[u] + (e.outOff[u+1] - e.outOff[u]) + (e.inOff[u+1] - e.inOff[u])
	}
	adj := make([]int32, deg[n])
	cur := make([]int32, n)
	for u := int32(0); u < int32(n); u++ {
		for k := e.outOff[u]; k < e.outOff[u+1]; k++ {
			adj[deg[u]+cur[u]] = e.head[e.outArc[k]]
			cur[u]++
		}
		for k := e.inOff[u]; k < e.inOff[u+1]; k++ {
			adj[deg[u]+cur[u]] = e.tail[e.inArc[k]]
			cur[u]++
		}
	}

	posE := make([]float64, n)
	posN := make([]float64, n)
	for i, nd := range e.net.Nodes {
		posE[i], posN[i] = nd.Pos.E, nd.Pos.N
	}

	order := make([]int32, 0, n)
	cell := make([]int32, n)
	for i := range cell {
		cell[i] = int32(i)
	}
	inRight := make([]int32, n) // generation-stamped right-half marker
	gen := int32(0)

	var dissect func(cell []int32)
	dissect = func(cell []int32) {
		if len(cell) <= ndLeafSize {
			sort.Slice(cell, func(i, j int) bool { return cell[i] < cell[j] })
			order = append(order, cell...)
			return
		}
		minE, maxE := posE[cell[0]], posE[cell[0]]
		minN, maxN := posN[cell[0]], posN[cell[0]]
		for _, v := range cell[1:] {
			if posE[v] < minE {
				minE = posE[v]
			}
			if posE[v] > maxE {
				maxE = posE[v]
			}
			if posN[v] < minN {
				minN = posN[v]
			}
			if posN[v] > maxN {
				maxN = posN[v]
			}
		}
		coord := posE
		if maxN-minN > maxE-minE {
			coord = posN
		}
		sort.Slice(cell, func(i, j int) bool {
			a, b := cell[i], cell[j]
			if coord[a] != coord[b] {
				return coord[a] < coord[b]
			}
			return a < b
		})
		mid := len(cell) / 2
		left, right := cell[:mid], cell[mid:]
		gen++
		markGen := gen
		for _, v := range right {
			inRight[v] = markGen
		}
		var sep, rest []int32
		for _, v := range left {
			onBoundary := false
			for k := deg[v]; k < deg[v+1]; k++ {
				if inRight[adj[k]] == markGen {
					onBoundary = true
					break
				}
			}
			if onBoundary {
				sep = append(sep, v)
			} else {
				rest = append(rest, v)
			}
		}
		dissect(rest)
		dissect(right)
		sort.Slice(sep, func(i, j int) bool { return sep[i] < sep[j] })
		order = append(order, sep...)
	}
	dissect(cell)
	return order
}

// cchGraph builds (once) and returns the engine's contraction.
func (e *Engine) cchGraph() *cch {
	e.cchOnce.Do(func() { e.cchG = buildCCH(e) })
	return e.cchG
}
