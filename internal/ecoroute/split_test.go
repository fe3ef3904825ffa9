package ecoroute

import (
	"fmt"
	"runtime"
	"slices"
	"testing"

	"roadgrade/internal/par"
	"roadgrade/internal/road"
)

// TestCustomizeSplit pins the split that full customization runs in
// parallel, on the 1× and 25× country networks and two islands: every node
// sits in exactly one range, bins and top each list their nodes in
// ascending rank, a bin holds whole subtrees (a node outside the top has
// its parent in its own bin or in the top, and the top is closed upward),
// and a full customization equals, weights by Float64bits and vias
// exactly, the serial pass over every node in ascending rank. Under -cpu
// 1,2,4 the split has one, two and four bins.
func TestCustomizeSplit(t *testing.T) {
	nets := []struct {
		name string
		net  *road.Network
	}{{"two-island", disconnectedNet(t)}}
	for _, scale := range []float64{1, 25} {
		net, err := road.GenerateNetwork(1827, road.CountryConfig(scale))
		if err != nil {
			t.Fatalf("%g×: network: %v", scale, err)
		}
		nets = append(nets, struct {
			name string
			net  *road.Network
		}{fmt.Sprintf("%g×", scale), net})
	}
	for _, tc := range nets {
		eng, err := NewEngine(tc.net, TruthSource{}, Config{})
		if err != nil {
			t.Fatalf("%s: engine: %v", tc.name, err)
		}
		g := eng.cchGraph()
		n := len(g.parent)
		bins := len(g.splitOff) - 2
		if want := par.Workers(n); bins != want {
			t.Errorf("%s: %d bins at GOMAXPROCS %d, want %d", tc.name, bins, runtime.GOMAXPROCS(0), want)
		}
		if len(g.splitNodes) != n || g.splitOff[0] != 0 || g.splitOff[bins+1] != int32(n) {
			t.Fatalf("%s: split lists %d nodes in [%d, %d), want %d", tc.name, len(g.splitNodes), g.splitOff[0], g.splitOff[bins+1], n)
		}
		rangeOf := make([]int, n)
		for u := range rangeOf {
			rangeOf[u] = -1
		}
		for k := range bins + 1 {
			nodes := g.splitNodes[g.splitOff[k]:g.splitOff[k+1]]
			if !slices.IsSorted(nodes) {
				t.Errorf("%s: range %d is not in ascending rank", tc.name, k)
			}
			for _, u := range nodes {
				if rangeOf[u] >= 0 {
					t.Fatalf("%s: node %d in ranges %d and %d", tc.name, u, rangeOf[u], k)
				}
				rangeOf[u] = k
			}
		}
		for u, k := range rangeOf {
			if k < 0 {
				t.Fatalf("%s: node %d in no range", tc.name, u)
			}
			p := g.parent[u]
			switch {
			case k == bins && p >= 0 && rangeOf[p] != bins:
				t.Errorf("%s: top node %d has its parent %d in bin %d", tc.name, u, p, rangeOf[p])
			case k < bins && p >= 0 && rangeOf[p] != k && rangeOf[p] != bins:
				t.Errorf("%s: node %d of bin %d has its parent %d in bin %d", tc.name, u, k, p, rangeOf[p])
			}
		}

		tb, err := eng.fresh()
		if err != nil {
			t.Fatalf("%s: tables: %v", tc.name, err)
		}
		levels := newPagedRow[float64](len(g.edgeArc))
		for i := range int32(len(g.edgeArc)) {
			levels.set(i, cchLevels[i%8])
		}
		all := make([]int32, n)
		for u := range all {
			all[u] = int32(u)
		}
		for _, cost := range []struct {
			name string
			row  pagedRow[float64]
		}{{"fuel", eng.costRow(Fuel, 0, tb)}, {"levels", levels}} {
			got, want := newCCHWeights(len(g.arcLo)), newCCHWeights(len(g.arcLo))
			g.customize(got, cost.row)
			g.customizeNodes(want, cost.row, all, make([]int32, n))
			what := fmt.Sprintf("%s %s", tc.name, cost.name)
			sameBits(t, what+" up", got.up, want.up)
			sameBits(t, what+" dn", got.dn, want.dn)
			if !slices.Equal(got.viaUp, want.viaUp) || !slices.Equal(got.viaDn, want.viaDn) {
				t.Errorf("%s: vias differ from the serial pass", what)
			}
		}
	}
}
