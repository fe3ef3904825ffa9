package ecoroute

import (
	"errors"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"testing"
	"unsafe"

	"roadgrade/internal/geo"
	"roadgrade/internal/par"
	"roadgrade/internal/road"
)

// The contraction built from the elimination tree must equal, field by
// field, the one the elimination game builds, and customizing it, which
// enumerates the triangles, must equal the basic customization over a
// stored triangle list: the game and the list stay here as the reference,
// with a tier-1 test on fixed networks and a differential fuzz target on
// small networks built from bytes.

// refTri is one lower triangle {x, u, v} of an arc {u, v} as the engine
// once stored it: lo is arc {x, u} and hi is arc {x, v}.
type refTri struct{ lo, hi int32 }

// refTriangles lists the lower triangles of every arc a in
// tri[off[a]:off[a+1]], by ascending x; a triangle's flat index is its
// position in tri.
type refTriangles struct {
	off []int32
	tri []refTri
}

// buildCCHReference is the contraction as the engine first built it: the
// elimination game over one Go map per node, inserting each contracted
// node's clique fill-in, then arcs and triangles located by binary search
// (refArcIndex) in separate passes, and the downward lists sorted out of
// the arcs. buildCCH must return a contraction equal to it field by field
// (TestContractionMatchesReference, FuzzCCHContract).
func buildCCHReference(e *Engine) (*cch, *refTriangles) {
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
			a := refArcIndex(g, u, v)
			g.edgeArc[i] = a
			upCnt[a]++
		} else {
			a := refArcIndex(g, v, u)
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

	// Downward lists: every arc by (hi, lo), cut at each node.
	byHi := make([]int32, nArcs)
	for a := range byHi {
		byHi[a] = int32(a)
	}
	sort.Slice(byHi, func(i, j int) bool {
		a, b := byHi[i], byHi[j]
		if g.arcHi[a] != g.arcHi[b] {
			return g.arcHi[a] < g.arcHi[b]
		}
		return g.arcLo[a] < g.arcLo[b]
	})
	g.dnOff = make([]int32, n+1)
	g.dnArc = byHi
	g.dnLo = make([]int32, nArcs)
	for k, a := range byHi {
		g.dnOff[g.arcHi[a]+1]++
		g.dnLo[k] = g.arcLo[a]
	}
	for v := range n {
		g.dnOff[v+1] += g.dnOff[v]
	}

	// Lower triangles: for every node x and ordered pair (u, v) of its upward
	// neighbors, the clique fill guarantees arc {u, v} exists and gains the
	// triangle ({x,u}, {x,v}). Counted then filled, both in the same
	// deterministic enumeration order.
	rt := &refTriangles{}
	triCnt := make([]int32, nArcs)
	for x := 0; x < n; x++ {
		list := upNbrs[x]
		for i := 0; i < len(list); i++ {
			for j := i + 1; j < len(list); j++ {
				triCnt[refArcIndex(g, list[i], list[j])]++
			}
		}
	}
	rt.off = prefixSum(triCnt)
	rt.tri = make([]refTri, rt.off[nArcs])
	triCur := make([]int32, nArcs)
	for x := 0; x < n; x++ {
		list := upNbrs[x]
		for i := 0; i < len(list); i++ {
			aLo := refArcIndex(g, int32(x), list[i])
			for j := i + 1; j < len(list); j++ {
				a := refArcIndex(g, list[i], list[j])
				rt.tri[rt.off[a]+triCur[a]] = refTri{lo: aLo, hi: refArcIndex(g, int32(x), list[j])}
				triCur[a]++
			}
		}
	}
	// The split is a function of the tree and the arc ranges compared
	// above; TestCustomizeSplit checks it on its own terms.
	g.splitTree(par.Workers(n))
	return g, rt
}

// customize is the basic customization as the engine once ran it over
// stored triangles: every arc in ascending order takes its cheapest edge in
// each direction, then its triangles by ascending flat index, a later
// candidate winning only when strictly less. A triangle via is the flat
// index.
func (rt *refTriangles) customize(g *cch, cost pagedRow[float64]) *cchWeights {
	w := newCCHWeights(len(g.arcLo))
	for a := range int32(len(g.arcLo)) {
		up, dn := math.Inf(1), math.Inf(1)
		vUp, vDn := int32(-1), int32(-1)
		for _, ei := range g.upEdge[g.upEdgeOff[a]:g.upEdgeOff[a+1]] {
			if c := cost.at(ei); c < up {
				up, vUp = c, -2-ei
			}
		}
		for _, ei := range g.dnEdge[g.dnEdgeOff[a]:g.dnEdgeOff[a+1]] {
			if c := cost.at(ei); c < dn {
				dn, vDn = c, -2-ei
			}
		}
		for t := rt.off[a]; t < rt.off[a+1]; t++ {
			tr := rt.tri[t]
			if c := w.dn[tr.lo] + w.up[tr.hi]; c < up {
				up, vUp = c, t
			}
			if c := w.dn[tr.hi] + w.up[tr.lo]; c < dn {
				dn, vDn = c, t
			}
		}
		w.up[a], w.dn[a], w.viaUp[a], w.viaDn[a] = up, dn, vUp, vDn
	}
	return w
}

// sameCustomization requires g.customize to equal the stored-triangle
// customization on cost: weights by Float64bits and vias exactly once a
// triangle's flat index is mapped to its lower side.
func sameCustomization(t *testing.T, what string, g *cch, rt *refTriangles, cost pagedRow[float64]) {
	t.Helper()
	got := newCCHWeights(len(g.arcLo))
	g.customize(got, cost)
	want := rt.customize(g, cost)
	sameBits(t, what+" up", got.up, want.up)
	sameBits(t, what+" dn", got.dn, want.dn)
	lower := func(via int32) int32 {
		if via >= 0 {
			return rt.tri[via].lo
		}
		return via
	}
	for a := range got.viaUp {
		if wu, wd := lower(want.viaUp[a]), lower(want.viaDn[a]); got.viaUp[a] != wu || got.viaDn[a] != wd {
			t.Errorf("%s: arc %d via %d/%d, stored triangles %d/%d", what, a, got.viaUp[a], got.viaDn[a], wu, wd)
			return
		}
	}
}

// checkCustomizations compares the engine's customization with the
// stored-triangle one on the first fuel row and on a row of small integer
// costs, whose equal triangle sums exercise the tie-breaks.
func checkCustomizations(t *testing.T, what string, eng *Engine, g *cch, rt *refTriangles) {
	t.Helper()
	tb, err := eng.fresh()
	if err != nil {
		t.Fatalf("%s: tables: %v", what, err)
	}
	sameCustomization(t, what+" fuel", g, rt, eng.costRow(Fuel, 0, tb))
	levels := newPagedRow[float64](len(g.edgeArc))
	for i := range int32(len(g.edgeArc)) {
		levels.set(i, cchLevels[i%4])
	}
	sameCustomization(t, what+" levels", g, rt, levels)
}

// refArcIndex locates arc {lo, hi} by binary search in lo's sorted upward
// range. Callers only ask for arcs the elimination game created.
func refArcIndex(g *cch, lo, hi int32) int32 {
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

// sameContraction reports every field in which got differs from want.
func sameContraction(t *testing.T, what string, got, want *cch) {
	t.Helper()
	if reflect.DeepEqual(got, want) {
		return
	}
	// The fields are unexported, so reflect reads them through their
	// addresses.
	field := func(v reflect.Value, f int) any {
		fv := v.Field(f)
		return reflect.NewAt(fv.Type(), unsafe.Pointer(fv.UnsafeAddr())).Elem().Interface()
	}
	gv, wv := reflect.ValueOf(got).Elem(), reflect.ValueOf(want).Elem()
	for f := range gv.NumField() {
		if !reflect.DeepEqual(field(gv, f), field(wv, f)) {
			t.Errorf("%s: field %s differs from the reference", what, gv.Type().Field(f).Name)
		}
	}
}

// TestContractionMatchesReference pins buildCCH to the elimination game,
// and customize to the stored-triangle customization, on the paper's 1×
// network, the 800 km network at 300 m blocks (where nested dissection gives
// a branching elimination tree) and two islands.
func TestContractionMatchesReference(t *testing.T) {
	city, err := road.Charlottesville()
	if err != nil {
		t.Fatalf("network: %v", err)
	}
	wide, err := road.GenerateNetwork(99, road.NetworkConfig{TargetStreetKM: 800, BlockM: 300})
	if err != nil {
		t.Fatalf("network: %v", err)
	}
	for _, tc := range []struct {
		name string
		net  *road.Network
	}{{"charlottesville", city}, {"800km", wide}, {"disconnected", disconnectedNet(t)}} {
		eng, err := NewEngine(tc.net, TruthSource{}, Config{})
		if err != nil {
			t.Fatalf("%s: engine: %v", tc.name, err)
		}
		g := buildCCH(eng)
		ref, rt := buildCCHReference(eng)
		sameContraction(t, tc.name, g, ref)
		checkCustomizations(t, tc.name, eng, g, rt)
	}
}

// TestContractionFootprint bounds the contraction's memory per arc on the
// 1× and 25× country networks. It sums the bytes of every slice field by
// reflection, so that a new per-arc or per-triangle array counts without
// being named here. Per-arc and per-node arrays take 26–28 B per arc; one
// stored record per triangle would take several hundred at 25×, where an
// arc averages 23 triangles.
func TestContractionFootprint(t *testing.T) {
	for _, scale := range []float64{1, 25} {
		net, err := road.GenerateNetwork(1827, road.CountryConfig(scale))
		if err != nil {
			t.Fatalf("%g×: network: %v", scale, err)
		}
		eng, err := NewEngine(net, TruthSource{}, Config{})
		if err != nil {
			t.Fatalf("%g×: engine: %v", scale, err)
		}
		g := buildCCH(eng)
		v := reflect.ValueOf(g).Elem()
		bytes := 0
		for f := range v.NumField() {
			fv := v.Field(f)
			if fv.Kind() != reflect.Slice {
				t.Fatalf("field %s is a %s; count its bytes here", v.Type().Field(f).Name, fv.Kind())
			}
			bytes += fv.Len() * int(fv.Type().Elem().Size())
		}
		perArc := float64(bytes) / float64(len(g.arcLo))
		t.Logf("%g×: %d arcs, %.2f MB, %.1f B per arc", scale, len(g.arcLo), float64(bytes)/1e6, perArc)
		if perArc >= 32 {
			t.Errorf("%g×: the contraction takes %.1f B per arc, want under 32", scale, perArc)
		}
	}
}

// cchContractGrades are the constant grades a fuzzed road can get.
var cchContractGrades = [8]float64{0, 0.02, -0.02, 0.05, -0.05, 0.08, -0.08, 0.01}

// cchContractMaxRoads bounds a fuzz input's road count.
const cchContractMaxRoads = 128

// cchContractRoad is one road request of a FuzzCCHContract input: from and
// to are node bytes (taken modulo the node count), two adds the reverse
// direction, parallel a second, bowed road alongside, and grade indexes
// cchContractGrades.
type cchContractRoad struct {
	from, to      byte
	two, parallel bool
	grade         byte
}

// cchContractBytes encodes a network in FuzzCCHContract's input format:
// the node count less one (modulo 64), one jitter byte per node (high
// nibble east, low nibble north, 5 m steps around a 100 m grid), then three
// bytes per road: from, to, and flags (bit 0 two-way, bit 1 parallel, bits
// 2-4 the grade).
func cchContractBytes(nodes int, jitter []byte, roads ...cchContractRoad) []byte {
	out := []byte{byte(nodes - 1)}
	for k := range nodes {
		j := byte(0x88)
		if k < len(jitter) {
			j = jitter[k]
		}
		out = append(out, j)
	}
	for _, r := range roads {
		flags := r.grade << 2
		if r.two {
			flags |= 1
		}
		if r.parallel {
			flags |= 2
		}
		out = append(out, r.from, r.to, flags)
	}
	return out
}

// cchContractNet builds the network an input encodes, or nil when the
// input is too short to name its nodes' jitter. A road from a node to
// itself is dropped.
func cchContractNet(t *testing.T, input []byte) *road.Network {
	t.Helper()
	if len(input) == 0 {
		return nil
	}
	n := 1 + int(input[0])%64
	if len(input) < 1+n {
		return nil
	}
	side := int(math.Ceil(math.Sqrt(float64(n))))
	nodes := make([]road.Node, n)
	for k := range nodes {
		j := input[1+k]
		nodes[k] = road.Node{ID: k, Pos: geo.ENU{
			E: float64(100*(k%side) + 5*(int(j>>4)-8)),
			N: float64(100*(k/side) + 5*(int(j&15)-8)),
		}}
	}
	var edges []*road.Edge
	add := func(from, to int, bow float64, grade float64) {
		a, b := nodes[from].Pos, nodes[to].Pos
		mid := geo.ENU{E: (a.E+b.E)/2 - bow*(b.N-a.N)/100, N: (a.N+b.N)/2 + bow*(b.E-a.E)/100}
		line, err := geo.NewPolyline([]geo.ENU{a, mid, b})
		if err != nil {
			t.Fatalf("road %d→%d: %v", from, to, err)
		}
		cells := max(1, int(math.Round(line.Length()/5)))
		prof, err := road.NewProfileFromGrades(5, constGrades(cells, grade), 100)
		if err != nil {
			t.Fatalf("road %d→%d profile: %v", from, to, err)
		}
		r, err := road.NewRoad(fmt.Sprintf("r%d", len(edges)), line, prof, nil, road.ClassCollector)
		if err != nil {
			t.Fatalf("road %d→%d: %v", from, to, err)
		}
		edges = append(edges, &road.Edge{From: from, To: to, Road: r})
	}
	for rest := input[1+n:]; len(rest) >= 3; rest = rest[3:] {
		from, to, flags := int(rest[0])%n, int(rest[1])%n, rest[2]
		if from == to {
			continue
		}
		grade := cchContractGrades[(flags>>2)&7]
		add(from, to, 0, grade)
		if flags&1 != 0 {
			add(to, from, 0, -grade)
		}
		if flags&2 != 0 {
			add(from, to, 10, grade)
		}
	}
	net, err := road.NewNetwork(nodes, edges)
	if err != nil {
		t.Fatalf("network: %v", err)
	}
	return net
}

// checkContract builds the network an input encodes, requires its
// contraction and customizations to equal the reference's, and routes a few
// pairs through the hierarchy and through Dijkstra, whose costs must agree
// bit for bit.
func checkContract(t *testing.T, input []byte) {
	net := cchContractNet(t, input)
	if net == nil {
		return
	}
	eng, err := NewEngine(net, TruthSource{}, Config{SpeedsKmh: []float64{40}})
	if err != nil {
		t.Fatalf("engine: %v", err)
	}
	ref, rt := buildCCHReference(eng)
	sameContraction(t, "contraction", eng.cchGraph(), ref)
	checkCustomizations(t, "customization", eng, eng.cchGraph(), rt)
	if t.Failed() {
		return
	}
	n := len(net.Nodes)
	pairs := [][2]int{{0, n - 1}, {n - 1, 0}, {n / 2, n / 3}}
	if len(net.Edges) > 0 {
		ed := net.Edges[len(net.Edges)-1]
		pairs = append(pairs, [2]int{ed.From, ed.To}, [2]int{ed.To, net.Edges[0].From})
	}
	for _, p := range pairs {
		for _, obj := range []Objective{Fuel, Distance} {
			fast, errF := eng.Route(obj, 40, p[0], p[1])
			ref, errR := eng.RouteDijkstra(obj, 40, p[0], p[1])
			if (errF == nil) != (errR == nil) || errF != nil && !errors.Is(errF, ErrNoPath) {
				t.Fatalf("%s %v: cch err %v, Dijkstra err %v", obj, p, errF, errR)
			}
			if errF == nil && math.Float64bits(fast.Cost) != math.Float64bits(ref.Cost) {
				t.Errorf("%s %v: cch cost %.17g, Dijkstra %.17g", obj, p, fast.Cost, ref.Cost)
			}
		}
	}
}

// cchContractSeeds are FuzzCCHContract's seed corpus:
// testdata/fuzz/FuzzCCHContract holds one file per seed, named after it
// (TestCCHContractCorpus keeps the two in step).
var cchContractSeeds = []struct {
	name  string
	input []byte
}{
	{"one-node", cchContractBytes(1, nil)},
	{"no-roads", cchContractBytes(5, nil)},
	{"path", cchContractBytes(4, nil,
		cchContractRoad{from: 0, to: 1, two: true}, cchContractRoad{from: 1, to: 2, two: true, grade: 3},
		cchContractRoad{from: 2, to: 3, two: true, grade: 4})},
	{"one-way-star", cchContractBytes(9, []byte{0x00, 0xff, 0x3c, 0xc3, 0x88, 0x17, 0x71, 0xa5, 0x5a},
		cchContractRoad{from: 4, to: 0, grade: 1}, cchContractRoad{from: 1, to: 4, grade: 2},
		cchContractRoad{from: 4, to: 2, grade: 5}, cchContractRoad{from: 3, to: 4, grade: 6},
		cchContractRoad{from: 4, to: 5}, cchContractRoad{from: 6, to: 4}, cchContractRoad{from: 4, to: 7},
		cchContractRoad{from: 8, to: 4, grade: 7})},
	{"parallel-roads", cchContractBytes(6, nil,
		cchContractRoad{from: 0, to: 1, two: true, parallel: true, grade: 3},
		cchContractRoad{from: 1, to: 2, two: true}, cchContractRoad{from: 2, to: 0, parallel: true, grade: 4},
		cchContractRoad{from: 3, to: 4, two: true, grade: 1}, cchContractRoad{from: 1, to: 0, grade: 2})},
	{"isolated-nodes", cchContractBytes(12, nil,
		cchContractRoad{from: 2, to: 7, two: true}, cchContractRoad{from: 7, to: 9, two: true, grade: 5})},
	{"three-islands", cchContractBytes(16, nil,
		cchContractRoad{from: 0, to: 1, two: true}, cchContractRoad{from: 1, to: 4, two: true},
		cchContractRoad{from: 4, to: 0, two: true, grade: 3},
		cchContractRoad{from: 2, to: 3, two: true, grade: 1}, cchContractRoad{from: 3, to: 7},
		cchContractRoad{from: 7, to: 2, grade: 6},
		cchContractRoad{from: 12, to: 13, two: true}, cchContractRoad{from: 13, to: 14, two: true, parallel: true},
		cchContractRoad{from: 14, to: 15, two: true, grade: 4})},
	{"self-loop-dropped", cchContractBytes(3, nil,
		cchContractRoad{from: 1, to: 1, two: true}, cchContractRoad{from: 0, to: 2, two: true})},
	{"grid-64", cchContractGrid()},
}

// cchContractGrid is a 64-node 8×8 grid with two-way streets, a few
// one-way diagonals and one parallel road, the largest network the input
// format names: its elimination tree branches.
func cchContractGrid() []byte {
	var roads []cchContractRoad
	for k := range 64 {
		x, y := k%8, k/8
		if x+1 < 8 {
			roads = append(roads, cchContractRoad{from: byte(k), to: byte(k + 1), two: true, grade: byte(k % 8)})
		}
		if y+1 < 8 {
			roads = append(roads, cchContractRoad{from: byte(k), to: byte(k + 8), two: true, grade: byte((k + 3) % 8)})
		}
		if x+1 < 8 && y+1 < 8 && k%5 == 0 {
			roads = append(roads, cchContractRoad{from: byte(k + 9), to: byte(k), parallel: k == 20})
		}
	}
	jitter := make([]byte, 64)
	for k := range jitter {
		jitter[k] = byte(37 * k)
	}
	return cchContractBytes(64, jitter, roads...)
}

// TestCCHContractCorpus checks every seed has its corpus file, in the go
// test fuzz v1 encoding of its input.
func TestCCHContractCorpus(t *testing.T) {
	for _, tc := range cchContractSeeds {
		want := fmt.Sprintf("go test fuzz v1\n[]byte(%q)\n", tc.input)
		got, err := os.ReadFile(filepath.Join("testdata", "fuzz", "FuzzCCHContract", tc.name))
		if err != nil || string(got) != want {
			t.Errorf("seed %s: corpus file %q (%v), want %q", tc.name, got, err, want)
		}
	}
}

// FuzzCCHContract is the differential check of the contraction: a network
// of up to 64 nodes built from bytes (jittered positions, one-way and
// two-way roads, parallel roads between one node pair, isolated nodes,
// several components) must contract to exactly the elimination game's
// hierarchy, customize to exactly the stored-triangle weights and vias, and
// route a few pairs at Dijkstra's costs bit for bit. Up to
// 64 nodes is one nested-dissection leaf, so the elimination order is the
// node order and the bytes choose the graph it eliminates.
func FuzzCCHContract(f *testing.F) {
	f.Fuzz(func(t *testing.T, input []byte) {
		if len(input) > 1+64+3*cchContractMaxRoads {
			return
		}
		checkContract(t, input)
	})
}
