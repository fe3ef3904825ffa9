package ecoroute

import (
	"errors"
	"fmt"
	"hash/fnv"
	"math"
	"math/rand"
	"testing"

	"roadgrade/internal/emission"
	"roadgrade/internal/fusion"
	"roadgrade/internal/road"
)

// sameBits reports the first index where two rows differ in their bits.
func sameBits(t *testing.T, what string, got, want []float64) {
	t.Helper()
	if len(got) != len(want) {
		t.Errorf("%s: %d entries, fresh build has %d", what, len(got), len(want))
		return
	}
	for i := range got {
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
			t.Errorf("%s[%d]: incremental %.17g, fresh build %.17g", what, i, got[i], want[i])
			return
		}
	}
}

// checkAgainstFresh compares the engine's current snapshot with a freshly
// built engine over the same store, bit for bit: stamps, fuel rows, every
// pollutant row the snapshot built and every CCH table customized for it.
func checkAgainstFresh(t *testing.T, inc *Engine, tb *tables, store *fakeStore, step string) {
	t.Helper()
	ref, err := NewEngine(inc.net, CloudSource{Store: store}, inc.cfg)
	if err != nil {
		t.Fatalf("%s: fresh engine: %v", step, err)
	}
	rtb, err := ref.fresh()
	if err != nil {
		t.Fatalf("%s: fresh build: %v", step, err)
	}
	if tb.gen != rtb.gen {
		t.Fatalf("%s: incremental snapshot at generation %d, store at %d", step, tb.gen, rtb.gen)
	}
	stamps, refStamps := rowValues(tb.edgeGen), rowValues(rtb.edgeGen)
	for i := range stamps {
		if stamps[i] != refStamps[i] {
			t.Fatalf("%s: edge %d stamp %d, fresh build %d", step, i, stamps[i], refStamps[i])
		}
	}
	for b := range tb.fuel {
		sameBits(t, fmt.Sprintf("%s: fuel[%d]", step, b), rowValues(tb.fuel[b]), rowValues(rtb.fuel[b]))
	}
	for b, rows := range tb.emis {
		if rows == nil {
			continue
		}
		rtb := ref.snapshot(need{rows: b, w: -1})
		for _, sp := range emission.Pollutants() {
			sameBits(t, fmt.Sprintf("%s: %s[%d]", step, sp, b), rowValues(rows[sp]), rowValues(ref.emissionRow(sp, b, rtb)))
		}
		rtb.release()
	}
	for slot, w := range tb.w {
		if w == nil {
			continue
		}
		metric, bucket := inc.slotKey(slot)
		fw := ref.pinWeights(metric, bucket)
		what := fmt.Sprintf("%s: cch %s[%d]", step, metric, bucket)
		sameBits(t, what+" up", w.up, fw.up)
		sameBits(t, what+" dn", w.dn, fw.dn)
		for a := range w.viaUp {
			if w.viaUp[a] != fw.viaUp[a] || w.viaDn[a] != fw.viaDn[a] {
				t.Errorf("%s: arc %d via %d/%d, fresh build %d/%d", what, a, w.viaUp[a], w.viaDn[a], fw.viaUp[a], fw.viaDn[a])
				break
			}
		}
		fw.release()
	}
}

// routeKind is one objective at one cruise speed.
type routeKind struct {
	obj Objective
	kmh float64
}

// TestIncrementalMatchesFreshBuild is the equivalence property of the
// change-feed refresh, the carried pollutant rows and the delta-replayed CCH
// tables: after every step of a seeded random submission sequence, the
// long-lived engine's snapshot must equal what a freshly built engine
// computes over the same store, bit for bit. The sequence covers a road's
// first submission (its edge leaves the reverse fallback; a sibling without
// data starts using it), multi-road batches folded shard by shard with reads
// landing between the folds, a pollutant bucket no query asks for during two
// ticks, and a change feed that wrapped. The last seed draws every grade
// from three values, so equal edge costs and tied triangles are common and
// one batch raises some costs while it lowers others. The 400 km seed runs
// a shorter sequence on rows of four pages, where a tick shares most pages
// with its predecessor and copies a few.
func TestIncrementalMatchesFreshBuild(t *testing.T) {
	for _, seed := range []int64{3, 17, 29, 41} {
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) { checkIncremental(t, seed, nil, 10, 24) })
	}
	t.Run("seed53-tied", func(t *testing.T) { checkIncremental(t, 53, []float64{-0.04, 0, 0.04}, 10, 24) })
	t.Run("seed67-400km", func(t *testing.T) { checkIncremental(t, 67, nil, 400, 12) })
}

// checkIncremental runs the sequence of steps from seed on a network of
// about km street kilometres; grades come from levels when it is non-nil,
// else uniformly from ±0.08 rad.
func checkIncremental(t *testing.T, seed int64, levels []float64, km float64, steps int) {
	net, err := road.GenerateNetwork(seed, road.NetworkConfig{TargetStreetKM: km})
	if err != nil {
		t.Fatalf("network: %v", err)
	}
	rng := rand.New(rand.NewSource(seed))
	grade := func() float64 {
		if levels != nil {
			return levels[rng.Intn(len(levels))]
		}
		return (2*rng.Float64() - 1) * 0.08
	}
	store := newFakeStore()
	store.keep = 6
	// Prefill one direction of every third street: the sequence then meets
	// own profiles, reverse fallbacks and flat roads.
	for i, ed := range net.Edges {
		if i%3 == 0 {
			store.submit(t, ed.Road, grade())
		}
	}
	cfg := Config{SpeedsKmh: []float64{30, 50}}
	inc, err := NewEngine(net, CloudSource{Store: store}, cfg)
	if err != nil {
		t.Fatalf("engine: %v", err)
	}
	var pairs [][2]int
	for len(pairs) < 3 {
		from, to := net.Nodes[rng.Intn(len(net.Nodes))].ID, net.Nodes[rng.Intn(len(net.Nodes))].ID
		if from != to {
			pairs = append(pairs, [2]int{from, to})
		}
	}
	allKinds := []routeKind{{Fuel, 30}, {Fuel, 50}, {NOx, 30}, {NOx, 50}}
	skipped := routeKind{NOx, 50}

	var prevStamps []uint64
	var ownFromReverse, reverseFromFlat bool
	// read refreshes the engine through routes of the given kinds, checks
	// each against Dijkstra, then checks the snapshot against a fresh build.
	// wantFull is whether the refresh may rescan every edge.
	read := func(step string, kinds []routeKind, wantFull bool) {
		t.Helper()
		full0 := obsFullScans.Value()
		for _, k := range kinds {
			for _, p := range pairs {
				fast, errF := inc.Route(k.obj, k.kmh, p[0], p[1])
				ref, errR := inc.RouteDijkstra(k.obj, k.kmh, p[0], p[1])
				if (errF == nil) != (errR == nil) {
					t.Fatalf("%s: %s@%v %v: cch err %v, Dijkstra err %v", step, k.obj, k.kmh, p, errF, errR)
				}
				if errF == nil && math.Float64bits(fast.Cost) != math.Float64bits(ref.Cost) {
					t.Errorf("%s: %s@%v %v: cch %.17g, Dijkstra %.17g", step, k.obj, k.kmh, p, fast.Cost, ref.Cost)
				}
			}
		}
		tb, err := inc.fresh()
		if err != nil {
			t.Fatalf("%s: fresh: %v", step, err)
		}
		if got := obsFullScans.Value() - full0; (got == 1) != wantFull || got > 1 {
			t.Fatalf("%s: %d full scans, want full=%v", step, got, wantFull)
		}
		checkAgainstFresh(t, inc, tb, store, step)
		stamps := rowValues(tb.edgeGen)
		for i, s := range stamps {
			if prevStamps != nil {
				ownFromReverse = ownFromReverse || (prevStamps[i]%3 == 2 && s%3 == 1)
				reverseFromFlat = reverseFromFlat || (prevStamps[i] == 0 && s%3 == 2)
			}
		}
		prevStamps = stamps
	}
	hasData := func(r *road.Road) bool {
		_, _, err := store.FusedGeneration(r.ID())
		return err == nil
	}
	read("first build", allKinds, true)

	// A first submission on a street driven only the other way, and one on
	// a street nobody has driven.
	for _, wantSibData := range []bool{true, false} {
		for i, ed := range net.Edges {
			if s := inc.sibling[i]; s >= 0 && !hasData(ed.Road) && hasData(net.Edges[s].Road) == wantSibData {
				store.submit(t, ed.Road, grade())
				break
			}
		}
		read(fmt.Sprintf("first submission (sibling has data: %v)", wantSibData), allKinds, false)
	}

	multiShard := false
	for step := 0; step < steps; step++ {
		name := fmt.Sprintf("step %d", step)
		kinds := allKinds
		if step == 4 || step == 5 {
			kinds = allKinds[:3] // nobody asks for NOx at 50 km/h for two ticks
		}
		switch {
		case step == 6:
			// Every refresh since the skip kept the skipped bucket's rows
			// current: the next one re-integrates only the stamped edges,
			// in each asked bucket, and its NOx query builds nothing.
			base, err := inc.fresh()
			if err != nil {
				t.Fatalf("%s: fresh: %v", name, err)
			}
			if base.emis[1] == nil {
				t.Fatalf("%s: the skipped bucket's rows were dropped", name)
			}
			store.submit(t, net.Edges[rng.Intn(len(net.Edges))].Road, grade())
			miss0 := obsEmisRecomp.Value() // ecoroute_emission_edge_cache_misses_total
			tb, err := inc.fresh()
			if err != nil {
				t.Fatalf("%s: fresh: %v", name, err)
			}
			stamped := 0
			diffRows(base.edgeGen, tb.edgeGen, func(int32) { stamped++ })
			if stamped == 0 || stamped >= len(net.Edges)/2 {
				t.Fatalf("%s: %d of %d edges stamped since the skipped bucket's rows", name, stamped, len(net.Edges))
			}
			if _, err := inc.Route(skipped.obj, skipped.kmh, pairs[0][0], pairs[0][1]); err != nil && !errors.Is(err, ErrNoPath) {
				t.Fatalf("%s: %v", name, err)
			}
			if got := obsEmisRecomp.Value() - miss0; got != uint64(stamped*len(tb.emis)) {
				t.Errorf("%s: the refresh and the skipped bucket's NOx query re-integrated %d edges, want the %d stamped in each of %d buckets", name, got, stamped, len(tb.emis))
			}
			read(name, append(kinds, skipped), false)
		case step%7 == 3:
			// More folds than the feed keeps: the next refresh rescans.
			for k := 0; k <= store.keep; k++ {
				store.submit(t, net.Edges[rng.Intn(len(net.Edges))].Road, grade())
			}
			read(name+" (wrapped feed)", kinds, true)
		case rng.Intn(2) == 0:
			store.submit(t, net.Edges[rng.Intn(len(net.Edges))].Road, grade())
			read(name, kinds, false)
		default:
			// A batch folded one shard at a time, sometimes read between
			// two folds.
			shards := make(map[uint32][]*road.Road)
			var order []uint32
			for _, i := range rng.Perm(len(net.Edges))[:6] {
				r := net.Edges[i].Road
				h := fnv.New32a()
				h.Write([]byte(r.ID()))
				sh := h.Sum32() % 4
				if _, ok := shards[sh]; !ok {
					order = append(order, sh)
				}
				shards[sh] = append(shards[sh], r)
			}
			multiShard = multiShard || len(order) > 1
			for n, sh := range order {
				roads := shards[sh]
				profiles := make([]*fusion.Profile, len(roads))
				for j, r := range roads {
					profiles[j] = constProfile(r, grade())
				}
				store.fold(roads, profiles)
				if n == 0 && len(order) > 1 && rng.Intn(2) == 0 {
					read(name+" (between shard folds)", kinds[:1+rng.Intn(len(kinds))], false)
				}
			}
			read(name, kinds, false)
		}
	}
	if !ownFromReverse || !reverseFromFlat {
		t.Errorf("sequence missed a provenance change: reverse→own %v, flat→reverse %v", ownFromReverse, reverseFromFlat)
	}
	if !multiShard {
		t.Error("sequence folded no batch across several shards")
	}
}
