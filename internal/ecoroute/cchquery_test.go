package ecoroute

import (
	"math"
	"slices"
	"testing"

	"roadgrade/internal/road"
)

// searchCCHUnpruned is the point query before pruning, kept as the reference
// the pruned search must match path for path: a full forward sweep of s's
// root path, a full backward sweep of t's, and as meeting node the first
// strict minimum of df+db in ascending rank. It labels sc, a scratch of the
// caller's whose costs it resets in full first (an arc is read only where
// this query set a cost), so it neither reads nor dirties the engine's pool
// and does not lean on the path-walk reset.
func (e *Engine) searchCCHUnpruned(w *cchWeights, sc *cchScratch, s, t int32) ([]int32, bool) {
	g := e.cchGraph()
	for v := range sc.df {
		sc.df[v], sc.db[v] = math.Inf(1), math.Inf(1)
	}
	su, tu := g.rank[s], g.rank[t]
	sc.df[su] = 0
	for u := su; u >= 0; u = g.parent[u] {
		du := sc.df[u]
		if math.IsInf(du, 1) {
			continue
		}
		for a := g.upOff[u]; a < g.upOff[u+1]; a++ {
			if v, nd := g.arcHi[a], du+w.up[a]; nd < sc.df[v] {
				sc.df[v], sc.pf[v] = nd, a
			}
		}
	}
	mu, meet := math.Inf(1), int32(-1)
	sc.db[tu] = 0
	for u := tu; u >= 0; u = g.parent[u] {
		du := sc.db[u]
		if math.IsInf(du, 1) {
			continue
		}
		if c := sc.df[u] + du; c < mu {
			mu, meet = c, u
		}
		for a := g.upOff[u]; a < g.upOff[u+1]; a++ {
			if v, nd := g.arcHi[a], du+w.dn[a]; nd < sc.db[v] {
				sc.db[v], sc.pb[v] = nd, a
			}
		}
	}
	if meet < 0 {
		return nil, false
	}
	return g.unpackChains(w, sc, su, tu, meet), true
}

// checkScratchClean requires the engine's pooled query scratch to hold +Inf
// labels and -1 arcs everywhere, the state every query must leave it in.
func checkScratchClean(t *testing.T, what string, eng *Engine) {
	t.Helper()
	sc := eng.cchScratchGet()
	defer eng.cchPool.Put(sc)
	for v := range sc.df {
		if !math.IsInf(sc.df[v], 1) || !math.IsInf(sc.db[v], 1) || sc.pf[v] != -1 || sc.pb[v] != -1 {
			t.Errorf("%s: pooled scratch left set at rank %d: df %v, db %v, pf %d, pb %d",
				what, v, sc.df[v], sc.db[v], sc.pf[v], sc.pb[v])
			return
		}
	}
}

// checkQueriesAgree routes each of pairs (dense node indices) over w through
// the pruned query and the unpruned reference: both must find a path or
// neither, the paths must be equal edge for edge, and the pooled scratch
// must come back clean.
func checkQueriesAgree(t *testing.T, what string, eng *Engine, w *cchWeights, pairs [][2]int32) {
	t.Helper()
	n := len(eng.ids)
	ref := &cchScratch{df: make([]float64, n), db: make([]float64, n), pf: make([]int32, n), pb: make([]int32, n)}
	for _, p := range pairs {
		s, d := p[0], p[1]
		got, ok := eng.searchCCHWeights(w, s, d)
		want, wantOK := eng.searchCCHUnpruned(w, ref, s, d)
		if ok != wantOK || !slices.Equal(got, want) {
			t.Errorf("%s: %d→%d: pruned query %v %v, unpruned %v %v", what, s, d, ok, got, wantOK, want)
			return
		}
	}
	checkScratchClean(t, what, eng)
}

// allPairs lists every ordered pair of the engine's dense nodes.
func allPairs(eng *Engine) [][2]int32 {
	n := int32(len(eng.ids))
	pairs := make([][2]int32, 0, n*n)
	for s := range n {
		for d := range n {
			pairs = append(pairs, [2]int32{s, d})
		}
	}
	return pairs
}

// queryPanel is a fixed panel of dense node pairs: every edge's tail→head,
// the one-road route the route-country probe asks after an upload, whose
// answer the pruned query finds near the bottom of the tree, and each node
// to its mirror in dense order, which reaches across the network.
func queryPanel(eng *Engine) [][2]int32 {
	var pairs [][2]int32
	for i := range eng.edges {
		pairs = append(pairs, [2]int32{eng.tail[i], eng.head[i]})
	}
	n := int32(len(eng.ids))
	for s := range n {
		pairs = append(pairs, [2]int32{s, n - 1 - s})
	}
	return pairs
}

// TestCCHQueryMatchesUnpruned checks the pruned query against the unpruned
// reference over every ordered node pair of a 182-node network, under fuel
// and NOx at 40 km/h. Below 65 nodes nested dissection does not split and
// the elimination tree is a single path, so this network is the smallest
// kind on which the pruning above the meeting point is tested on a tree
// shaped like the country network's.
func TestCCHQueryMatchesUnpruned(t *testing.T) {
	net, err := road.GenerateNetwork(43, road.NetworkConfig{TargetStreetKM: 160})
	if err != nil {
		t.Fatalf("network: %v", err)
	}
	eng, err := NewEngine(net, TruthSource{}, Config{})
	if err != nil {
		t.Fatalf("engine: %v", err)
	}
	bucket, _ := eng.bucketFor(40)
	for _, obj := range []Objective{Fuel, NOx} {
		w := eng.pinWeights(obj, bucket)
		checkQueriesAgree(t, obj.String(), eng, w.cchWeights, allPairs(eng))
		w.release()
	}
}

// TestCostRowsNonNegative pins the precondition the pruned query's exactness
// rests on: at every speed bucket of the paper's 1× network, no objective's
// cost row has a negative or NaN entry, so no customized weight has either.
func TestCostRowsNonNegative(t *testing.T) {
	net, err := road.Charlottesville()
	if err != nil {
		t.Fatalf("network: %v", err)
	}
	eng, err := NewEngine(net, TruthSource{}, Config{})
	if err != nil {
		t.Fatalf("engine: %v", err)
	}
	for _, obj := range Objectives() {
		for b, kmh := range eng.cfg.SpeedsKmh {
			tb := eng.snapshot(eng.needOf(obj, b, false))
			tb.release()
			row := eng.costRow(metricFor(obj), b, tb)
			for i := range int32(len(eng.edges)) {
				if c := row.at(i); !(c >= 0) {
					t.Errorf("%s at %v km/h: edge %d costs %v", obj, kmh, i, c)
					break
				}
			}
		}
	}
}
