package ecoroute

import (
	"cmp"
	"slices"
	"sort"

	"roadgrade/internal/par"
)

// This file is phase 1 of the customizable contraction hierarchy (DESIGN.md
// §13): the metric-independent contraction. It depends only on the network
// topology and node coordinates, never on costs, so it is built exactly once
// per engine and survives every fusion generation tick.
//
// Nodes are identified by RANK — their position in the nested-dissection
// elimination order — throughout; dense engine indices appear only at the
// order/rank translation boundary. An "arc" is an undirected edge {lo, hi}
// (lo < hi in rank) of the chordal supergraph the elimination yields: the
// original street graph plus every shortcut the contraction inserts. Each arc later carries one upward (lo→hi) and one downward
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

	// Downward adjacency: the arcs {x, v} with x < v lie, for each node v,
	// in dnArc[dnOff[v]:dnOff[v+1]] by ascending x, and dnLo holds each
	// entry's x so that intersecting two lists reads the lists alone.
	dnOff []int32
	dnArc []int32
	dnLo  []int32

	// Original directed edges folded onto arcs: upEdge lists edges traveling
	// lo→hi, dnEdge lists hi→lo (CSR per arc). edgeArc maps each engine edge
	// to its arc (-1 for a same-rank self loop, which cannot occur for
	// distinct endpoints).
	upEdgeOff []int32
	upEdge    []int32
	dnEdgeOff []int32
	dnEdge    []int32
	edgeArc   []int32

	// The split of the elimination tree that full customization runs in
	// parallel (splitTree): splitNodes lists every node once, bin by bin,
	// then the top. Bin k, whole subtrees in ascending rank, is
	// splitNodes[splitOff[k]:splitOff[k+1]]; the last range is the top,
	// every node above the bins' subtrees, in ascending rank.
	splitOff   []int32
	splitNodes []int32
}

// Lower triangles are enumerated, not stored. Arc d = {u, v} has one for
// every x < u adjacent to both endpoints: its sides are the arcs {x, u}, the
// lower side, and {x, v}, the upper side, and it is named by its lower
// side's index. The upward value is dn[lower] + up[upper] (u→x→v), the
// downward value dn[upper] + up[lower] (v→x→u). Both sides have lo == x < u
// = lo(d), so they sit at strictly smaller arc indices, and for a fixed d a
// larger lower side means a larger x. The triangles of d are the x common to
// the downward lists of u and v; seen from x, every pair U[i] < U[j] of its
// upward set names one, of arc {U[i], U[j]}.

// hiSide returns the upper side of the triangle of an arc {u, v} whose lower
// side is arc lo = {x, u}: v follows u in x's sorted upward range.
func (g *cch) hiSide(lo, v int32) int32 {
	k, _ := slices.BinarySearch(g.arcHi[lo+1:g.upOff[g.arcLo[lo]+1]], v)
	return lo + 1 + int32(k)
}

// buildCCH contracts the engine's graph: nested-dissection order, the
// symbolic elimination over the elimination tree, then the flat arc and
// edge indices and the downward adjacency. Everything is deterministic —
// sorted upward sets, index-ordered loops.
func buildCCH(e *Engine) *cch {
	n := len(e.ids)
	g := &cch{}
	g.order = ndOrder(e)
	g.rank = make([]int32, n)
	for r, v := range g.order {
		g.rank[v] = int32(r)
	}

	// Original edges grouped by their lower-rank endpoint, in edge order.
	g.edgeArc = make([]int32, len(e.edges))
	lowOff := make([]int32, n+1)
	for i := range e.edges {
		if u, v := g.rank[e.tail[i]], g.rank[e.head[i]]; u != v {
			lowOff[min(u, v)+1]++
		} else {
			g.edgeArc[i] = -1
		}
	}
	for u := range n {
		lowOff[u+1] += lowOff[u]
	}
	lowEdge := make([]int32, lowOff[n])
	lowCur := slices.Clone(lowOff[:n])
	for i := range e.edges {
		if u, v := g.rank[e.tail[i]], g.rank[e.head[i]]; u != v {
			lo := min(u, v)
			lowEdge[lowCur[lo]] = int32(i)
			lowCur[lo]++
		}
	}
	other := func(i, u int32) int32 {
		if r := g.rank[e.tail[i]]; r != u {
			return r
		}
		return g.rank[e.head[i]]
	}

	// Symbolic elimination in rank space, the elimination game without its
	// fill-in: u's upward set is its original higher neighbours plus the
	// upward sets of its elimination-tree children, minus u, and its parent
	// is the set's smallest member. A child's set is final before u's,
	// since the child's rank is lower. The sets land in rank order, each
	// sorted, so arcHi grows already in (lo, hi) order, and an original
	// edge's arc is its upper endpoint's position in the set.
	g.parent = make([]int32, n)
	g.upOff = make([]int32, n+1)
	hi := make([]int32, 0, 4*n)
	firstChild := make([]int32, n) // elimination-tree children as linked lists
	nextChild := make([]int32, n)
	for u := range firstChild {
		firstChild[u] = -1
	}
	stamp := make([]int32, n) // u+1 once w has joined u's set
	pos := make([]int32, n)   // w's position in the set just sorted
	for u := int32(0); u < int32(n); u++ {
		start := int32(len(hi))
		mark := u + 1
		stamp[u] = mark // u is in every child's set, never in its own
		for k := lowOff[u]; k < lowOff[u+1]; k++ {
			if w := other(lowEdge[k], u); stamp[w] != mark {
				stamp[w] = mark
				hi = append(hi, w)
			}
		}
		for c := firstChild[u]; c >= 0; c = nextChild[c] {
			for _, w := range hi[g.upOff[c]:g.upOff[c+1]] {
				if stamp[w] != mark {
					stamp[w] = mark
					hi = append(hi, w)
				}
			}
		}
		set := hi[start:]
		slices.Sort(set)
		g.upOff[u+1] = int32(len(hi))
		g.parent[u] = -1
		if len(set) > 0 {
			p := set[0]
			g.parent[u] = p
			nextChild[u] = firstChild[p]
			firstChild[p] = u
		}
		for k, w := range set {
			pos[w] = int32(k)
		}
		for k := lowOff[u]; k < lowOff[u+1]; k++ {
			i := lowEdge[k]
			g.edgeArc[i] = start + pos[other(i, u)]
		}
	}
	nArcs := len(hi)
	g.arcHi = slices.Clone(hi) // exact size: hi grew by appends
	g.arcLo = make([]int32, nArcs)
	for u := range int32(n) {
		for a := g.upOff[u]; a < g.upOff[u+1]; a++ {
			g.arcLo[a] = u
		}
	}

	// Original edges → arcs, in edge order per arc and direction.
	upCnt := make([]int32, nArcs)
	dnCnt := make([]int32, nArcs)
	for i, a := range g.edgeArc {
		if a < 0 {
			continue
		}
		if g.rank[e.tail[i]] < g.rank[e.head[i]] {
			upCnt[a]++
		} else {
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

	// Downward lists: walking the arcs in (lo, hi) order lists each node's
	// lower neighbours by ascending x.
	cur := make([]int32, n)
	for _, v := range g.arcHi {
		cur[v]++
	}
	g.dnOff = prefixSum(cur)
	copy(cur, g.dnOff[:n])
	g.dnArc = make([]int32, nArcs)
	g.dnLo = make([]int32, nArcs)
	for a, v := range g.arcHi {
		k := cur[v]
		g.dnArc[k], g.dnLo[k] = int32(a), g.arcLo[a]
		cur[v]++
	}
	g.splitTree(par.Workers(n))
	return g
}

// splitTree splits the elimination tree into up to bins bins of whole
// subtrees plus a serial top, for customize. A node's work is what
// customize does there: one arc start per upward arc, and one relaxation
// for every arc after {x, u} in x's upward range, for each x of its
// downward list. Starting from the roots, it repeatedly moves the heaviest
// exposed subtree's root into the top, exposing its children, and keeps the
// step at which the top's work plus the largest bin of a
// longest-processing-time packing of the exposed subtrees is least. It
// stops once the top and an even share of the rest cannot beat that.
// Deterministic: ties go to the lower rank and the lower bin.
func (g *cch) splitTree(bins int) {
	n := int32(len(g.parent))
	work := make([]int64, n)
	sub := make([]int64, n) // subtree work
	childCnt := make([]int32, n)
	var total int64
	for u := range n {
		// u's relaxations as the lower end x of its upward arcs: arc {u, v}
		// at a is the lower side of one triangle per arc after it. Every
		// such x precedes v, so work[u] is complete here.
		end := g.upOff[u+1]
		work[u] += int64(end - g.upOff[u])
		for a := g.upOff[u]; a < end; a++ {
			work[g.arcHi[a]] += int64(end - a - 1)
		}
		total += work[u]
		sub[u] += work[u]
		if p := g.parent[u]; p >= 0 {
			sub[p] += sub[u]
			childCnt[p]++
		}
	}
	childOff := prefixSum(childCnt)
	children := make([]int32, n)
	for u := range n {
		if p := g.parent[u]; p >= 0 {
			children[childOff[p+1]-childCnt[p]] = u
			childCnt[p]--
		}
	}

	// Exposed subtrees are kept heaviest first; pack deals them out in that
	// order, each to the least loaded bin, records each one's bin in binOf
	// when given, and returns the largest load.
	heavier := func(a, b int32) int {
		if c := cmp.Compare(sub[b], sub[a]); c != 0 {
			return c
		}
		return cmp.Compare(a, b)
	}
	load := make([]int64, bins)
	pack := func(roots, binOf []int32) int64 {
		clear(load)
		var most int64
		for _, r := range roots {
			k := 0
			for j := range load {
				if load[j] < load[k] {
					k = j
				}
			}
			load[k] += sub[r]
			most = max(most, load[k])
			if binOf != nil {
				binOf[r] = int32(k)
			}
		}
		return most
	}
	var exposed, expanded []int32
	for u := range n {
		if g.parent[u] < 0 {
			exposed = append(exposed, u)
		}
	}
	slices.SortFunc(exposed, heavier)
	var top int64
	best, bestK := pack(exposed, nil), 0
	for len(exposed) > 0 && top+(total-top)/int64(bins) < best {
		r := exposed[0]
		exposed = slices.Delete(exposed, 0, 1)
		for _, c := range children[childOff[r]:childOff[r+1]] {
			at, _ := slices.BinarySearchFunc(exposed, c, heavier)
			exposed = slices.Insert(exposed, at, c)
		}
		expanded = append(expanded, r)
		top += work[r]
		if c := top + pack(exposed, nil); c < best {
			best, bestK = c, len(expanded)
		}
	}

	// Replay the best step: its expanded nodes form the top, and every
	// other node joins the bin of its nearest exposed ancestor.
	topBin := int32(bins)
	binOf := make([]int32, n)
	for u := range binOf {
		binOf[u] = -1
	}
	for _, r := range expanded[:bestK] {
		binOf[r] = topBin
	}
	exposed = exposed[:0]
	for u := range n {
		if p := g.parent[u]; binOf[u] < 0 && (p < 0 || binOf[p] == topBin) {
			exposed = append(exposed, u)
		}
	}
	slices.SortFunc(exposed, heavier)
	pack(exposed, binOf)
	cnt := make([]int32, bins+1)
	for u := n - 1; u >= 0; u-- {
		if binOf[u] < 0 {
			binOf[u] = binOf[g.parent[u]]
		}
		cnt[binOf[u]]++
	}
	g.splitOff = prefixSum(cnt)
	g.splitNodes = make([]int32, n)
	at := slices.Clone(g.splitOff[:bins+1])
	for u := range n {
		g.splitNodes[at[binOf[u]]] = u
		at[binOf[u]]++
	}
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
