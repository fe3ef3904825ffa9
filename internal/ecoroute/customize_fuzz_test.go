package ecoroute

import (
	"fmt"
	"math"
	"os"
	"path/filepath"
	"slices"
	"testing"

	"roadgrade/internal/road"
)

// cchLevels are the costs a fuzzed edit can give an edge. Small integers
// make equal edge costs and equal triangle sums common, tenths add sums
// that round (0.1+0.2 is not 0.3), and +Inf cuts a direction off. The
// network's base row uses the first four.
var cchLevels = [8]float64{1, 2, 3, 4, 0.1, 0.2, 0.3, math.Inf(1)}

// cchEdit sets one edge's cost to one of cchLevels.
type cchEdit struct{ edge, level int }

// cchMaxEdits bounds a fuzz input: the fuzzer skips longer ones, so that
// running one input, and minimizing one, stays cheap.
const cchMaxEdits = 64

// cchTickBytes encodes ticks of edits in FuzzCCHRecustomize's input format:
// three bytes per edit, the edge index big-endian in the first two (taken
// modulo the edge count) and the level in the low three bits of the third,
// whose high bit ends the tick.
func cchTickBytes(ticks ...[]cchEdit) []byte {
	var out []byte
	for _, tick := range ticks {
		for i, ed := range tick {
			b := byte(ed.level)
			if i == len(tick)-1 {
				b |= 0x80
			}
			out = append(out, byte(ed.edge>>8), byte(ed.edge), b)
		}
	}
	return out
}

// cchRecustomizeSeeds are FuzzCCHRecustomize's seed corpus:
// testdata/fuzz/FuzzCCHRecustomize holds one file per seed, named after it
// (TestCCHRecustomizeCorpus keeps the two in step). Edge i starts at cost
// cchLevels[i%4].
var cchRecustomizeSeeds = []struct {
	name  string
	input []byte
}{
	{"one-edge-rise", cchTickBytes([]cchEdit{{0, 3}})},
	{"one-edge-fall", cchTickBytes([]cchEdit{{3, 0}})},
	{"restamp-same-cost", cchTickBytes([]cchEdit{{2, 2}})},
	{"rise-then-fall", cchTickBytes([]cchEdit{{40, 3}}, []cchEdit{{40, 0}}, []cchEdit{{40, 4}})},
	{"cut-and-restore", cchTickBytes([]cchEdit{{17, 7}, {18, 7}}, []cchEdit{{17, 1}, {18, 1}})},
	{"eight-roads", cchTickBytes([]cchEdit{{5, 0}, {31, 3}, {64, 1}, {90, 2}, {128, 0}, {160, 3}, {200, 1}, {250, 0}})},
	{"rise-and-fall-in-one-tick", cchTickBytes([]cchEdit{{9, 3}, {10, 0}, {11, 3}, {12, 0}})},
	{"tenths", cchTickBytes([]cchEdit{{1, 4}, {2, 5}, {3, 6}}, []cchEdit{{4, 6}, {5, 5}, {6, 4}}, []cchEdit{{1, 0}, {6, 1}})},
	{"flatten-to-ties", cchTickBytes(
		[]cchEdit{{20, 0}, {21, 0}, {22, 0}, {23, 0}, {24, 0}, {25, 0}, {26, 0}, {27, 0}},
		[]cchEdit{{60, 0}, {61, 0}, {62, 0}, {63, 0}, {100, 0}, {101, 0}, {102, 0}, {103, 0}},
		[]cchEdit{{22, 1}, {61, 1}, {101, 3}},
	)},
}

// checkRecustomize replays input's ticks through recustomize twice per tick
// — copying the current table into fresh arrays, and replaying its delta
// into its predecessor's, as a publish does once no pinned snapshot holds
// the predecessor — and requires each result to equal a full customization of
// the tick's cost row: weights by Float64bits, vias exactly, and a changed
// list naming exactly the arcs that differ from the current table, in
// ascending order. Each tick derives its cost and stamp rows copy-on-write
// from the previous tick's, as a snapshot rebuild does, so the dirty-edge
// scan meets shared and copied pages alike. On each tick's table, the
// pruned point query must then match the unpruned reference on a fixed
// panel of node pairs (queryPanel, checkQueriesAgree); the levels make
// equal-cost paths common. Every ordered pair would make a pass over the
// seeds about seven times slower than the panel does.
func checkRecustomize(t *testing.T, eng *Engine, input []byte) {
	g := eng.cchGraph()
	panel := queryPanel(eng)
	nEdges := len(g.edgeArc)
	cost := newPagedRow[float64](nEdges)
	for i := range int32(nEdges) {
		cost.set(i, cchLevels[i%4])
	}
	gen := newPagedRow[uint64](nEdges)
	cur := newCCHWeights(len(g.arcLo))
	g.customize(cur, cost)
	cur.edgeGen = gen
	var pred *cchWeights
	var work arcWorklist
	ref := newCCHWeights(len(g.arcLo))
	for tick := 1; len(input) >= 3; tick++ {
		cost, gen = cost.clone(), gen.clone()
		for len(input) >= 3 {
			e := int32((int(input[0])<<8 | int(input[1])) % nEdges)
			cost.set(e, cchLevels[input[2]&7])
			gen.set(e, uint64(tick))
			last := input[2]&0x80 != 0
			input = input[3:]
			if last {
				break
			}
		}
		g.customize(ref, cost)
		var wantChanged []int32
		for a := range ref.up {
			if math.Float64bits(ref.up[a]) != math.Float64bits(cur.up[a]) ||
				math.Float64bits(ref.dn[a]) != math.Float64bits(cur.dn[a]) ||
				ref.viaUp[a] != cur.viaUp[a] || ref.viaDn[a] != cur.viaDn[a] {
				wantChanged = append(wantChanged, int32(a))
			}
		}
		fresh, _ := g.recustomize(cur, nil, cost, gen, &work)
		sameTable(t, fmt.Sprintf("tick %d, fresh copy", tick), fresh, ref, wantChanged)
		next, _ := g.recustomize(cur, pred, cost, gen, &work)
		sameTable(t, fmt.Sprintf("tick %d, predecessor replay", tick), next, ref, wantChanged)
		if t.Failed() {
			return
		}
		pred, cur = cur, next
		checkQueriesAgree(t, fmt.Sprintf("tick %d", tick), eng, cur, panel)
		if t.Failed() {
			return
		}
	}
}

// sameTable compares an incrementally derived table with a full
// customization and the changed list it must carry.
func sameTable(t *testing.T, what string, got, want *cchWeights, wantChanged []int32) {
	t.Helper()
	sameBits(t, what+" up", got.up, want.up)
	sameBits(t, what+" dn", got.dn, want.dn)
	for a := range got.viaUp {
		if got.viaUp[a] != want.viaUp[a] || got.viaDn[a] != want.viaDn[a] {
			t.Errorf("%s: arc %d via %d/%d, full customization %d/%d", what, a, got.viaUp[a], got.viaDn[a], want.viaUp[a], want.viaDn[a])
			break
		}
	}
	if !slices.Equal(got.changed, wantChanged) {
		t.Errorf("%s: changed %v, want %v", what, got.changed, wantChanged)
	}
}

// TestCCHRecustomizeCorpus checks every seed has its corpus file, in the go
// test fuzz v1 encoding of its input.
func TestCCHRecustomizeCorpus(t *testing.T) {
	for _, tc := range cchRecustomizeSeeds {
		want := fmt.Sprintf("go test fuzz v1\n[]byte(%q)\n", tc.input)
		got, err := os.ReadFile(filepath.Join("testdata", "fuzz", "FuzzCCHRecustomize", tc.name))
		if err != nil || string(got) != want {
			t.Errorf("seed %s: corpus file %q (%v), want %q", tc.name, got, err, want)
		}
	}
}

// FuzzCCHRecustomize is the differential check of incremental
// re-customization and of the pruned point query: arbitrary ticks of cost
// edits on a fixed network, each re-customized from the table before it and
// compared with the full customization, the reference, then queried for a
// fixed panel of node pairs and compared with the unpruned query. The
// network has 49 nodes, 170 edges, 301 arcs and 854 triangles; its rows are
// one page, which the page type's own tests go beyond, and its elimination
// tree is a single path, which TestCCHQueryMatchesUnpruned goes beyond.
func FuzzCCHRecustomize(f *testing.F) {
	net, err := road.GenerateNetwork(7, road.NetworkConfig{TargetStreetKM: 40})
	if err != nil {
		f.Fatalf("network: %v", err)
	}
	eng, err := NewEngine(net, TruthSource{}, Config{})
	if err != nil {
		f.Fatalf("engine: %v", err)
	}
	f.Fuzz(func(t *testing.T, input []byte) {
		if len(input) > 3*cchMaxEdits {
			return
		}
		checkRecustomize(t, eng, input)
	})
}
