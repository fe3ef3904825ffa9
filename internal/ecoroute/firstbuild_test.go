package ecoroute

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"slices"
	"testing"

	"roadgrade/internal/emission"
	"roadgrade/internal/fusion"
	"roadgrade/internal/obs"
	"roadgrade/internal/road"
)

// TestFirstBuildParallelMatchesSerial pins the page split of the
// from-scratch row builds: the first snapshot's stamps and fuel rows, every
// bucket's first pollutant rows, and the snapshot a full rescan builds
// after the change feed wrapped must be the same bit for bit, with the same
// cost-cache, full-scan and row-build counts, at one P, where every loop
// runs inline, and at four; and every row must equal its edge-by-edge
// integration. The network's rows span four pages, and the
// rescan re-stamps more than a page of edges, so both builds split.
func TestFirstBuildParallelMatchesSerial(t *testing.T) {
	net, err := road.GenerateNetwork(67, road.NetworkConfig{TargetStreetKM: 400})
	if err != nil {
		t.Fatalf("network: %v", err)
	}
	counters := []*obs.Counter{obsCostRecomp, obsCostReused, obsFullScans, obsEmisBuilds, obsEmisRecomp, obsEmisReused}
	type build struct {
		rows   map[string][]uint64
		counts []uint64
		moved  uint64 // edges the rescan re-stamped
	}
	run := func(procs int) build {
		defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
		rng := rand.New(rand.NewSource(67))
		store := newFakeStore()
		store.keep = 2
		for i, ed := range net.Edges {
			if i%3 == 0 {
				store.submit(t, ed.Road, 0.08*(2*rng.Float64()-1))
			}
		}
		eng, err := NewEngine(net, CloudSource{Store: store}, Config{})
		if err != nil {
			t.Fatalf("engine: %v", err)
		}
		base := make([]uint64, len(counters))
		for k, c := range counters {
			base[k] = c.Value()
		}
		out := build{rows: map[string][]uint64{}}
		record := func(stage string, tb *tables) {
			checkRowsDirect(t, fmt.Sprintf("%s at %d P", stage, procs), eng, tb)
			out.rows[stage+" stamps"] = rowValues(tb.edgeGen)
			for b, row := range tb.fuel {
				out.rows[fmt.Sprintf("%s fuel[%d]", stage, b)] = floatBits(rowValues(row))
			}
			for b, rows := range tb.emis {
				for sp, row := range rows {
					out.rows[fmt.Sprintf("%s emis[%d][%d]", stage, b, sp)] = floatBits(rowValues(row))
				}
			}
		}
		eng.snapshot(needNothing).release()
		var tb *tables
		for b := range eng.cfg.SpeedsKmh {
			tb = eng.snapshot(need{rows: b, w: -1})
			tb.release()
		}
		record("first", tb)

		// One fold re-grades every second road, and more folds than the
		// feed keeps follow it: the next publish rescans every edge.
		var roads []*road.Road
		var profiles []*fusion.Profile
		for i, ed := range net.Edges {
			if i%2 == 0 {
				roads = append(roads, ed.Road)
				profiles = append(profiles, constProfile(ed.Road, 0.08*(2*rng.Float64()-1)))
			}
		}
		store.fold(roads, profiles)
		for k := range store.keep {
			store.submit(t, net.Edges[k].Road, 0.01)
		}
		recomp := obsCostRecomp.Value()
		if tb, err = eng.fresh(); err != nil {
			t.Fatalf("fresh: %v", err)
		}
		out.moved = obsCostRecomp.Value() - recomp
		record("wrapped", tb)
		for k, c := range counters {
			out.counts = append(out.counts, c.Value()-base[k])
		}
		return out
	}
	serial, split := run(1), run(4)
	if serial.moved < pageLen {
		t.Fatalf("the rescan re-stamped %d edges, fewer than a page (%d): nothing split", serial.moved, pageLen)
	}
	if len(serial.rows) != len(split.rows) {
		t.Fatalf("%d rows at one P, %d at four", len(serial.rows), len(split.rows))
	}
	for name, want := range serial.rows {
		if got := split.rows[name]; !slices.Equal(got, want) {
			t.Errorf("%s differs between one P and four", name)
		}
	}
	if !slices.Equal(serial.counts, split.counts) {
		t.Errorf("counter deltas %v at one P, %v at four (cost misses, hits, full scans, row builds, edge misses, hits)", serial.counts, split.counts)
	}
	// Each of the four buckets builds its rows once from scratch and once
	// more from the rescan's stamps.
	n := uint64(len(net.Edges))
	if c := serial.counts; c[0] != n+serial.moved || c[2] != 2 || c[3] != 8 || c[4] != 4*(n+serial.moved) {
		t.Errorf("counter deltas %v: want %d+%d cost misses, 2 full scans, 8 row builds and 4×(%d+%d) edge misses",
			c, n, serial.moved, n, serial.moved)
	}
}

// TestFirstBuildCostBits pins the first build's one integration pass per
// edge: on the 1× and 25× country networks, over TruthSource and over a
// CloudSource whose store holds a noisy profile for six roads in seven
// (the rest read their sibling's reversed profile or flat), every fuel row,
// all four buckets, and every bucket's pollutant rows must equal the
// integration at that bucket's speed alone by Float64bits. Two profiles
// carry a NaN and an infinite cell, which price as 0 gallons and idle.
func TestFirstBuildCostBits(t *testing.T) {
	for _, scale := range []float64{1, 25} {
		net, err := road.GenerateNetwork(1827, road.CountryConfig(scale))
		if err != nil {
			t.Fatalf("%g×: network: %v", scale, err)
		}
		rng := rand.New(rand.NewSource(1827))
		store := newFakeStore()
		var roads []*road.Road
		var profiles []*fusion.Profile
		for i, ed := range net.Edges {
			if i%7 == 0 {
				continue
			}
			p := noisyProfile(ed.Road, 0.003, rng)
			switch len(roads) {
			case 1:
				p.GradeRad[len(p.GradeRad)/2] = math.NaN()
			case 2:
				p.GradeRad[1] = math.Inf(1)
			}
			roads = append(roads, ed.Road)
			profiles = append(profiles, p)
		}
		store.fold(roads, profiles)
		for _, src := range []struct {
			name string
			src  GradeSource
		}{{"truth", TruthSource{}}, {"cloud", CloudSource{Store: store}}} {
			eng, err := NewEngine(net, src.src, Config{})
			if err != nil {
				t.Fatalf("%g× %s: engine: %v", scale, src.name, err)
			}
			var tb *tables
			for b := range eng.cfg.SpeedsKmh {
				tb = eng.snapshot(need{rows: b, w: -1})
				tb.release()
			}
			for b := range eng.cfg.SpeedsKmh {
				if tb.emis[b] == nil {
					t.Fatalf("%g× %s: bucket %d has no pollutant rows", scale, src.name, b)
				}
			}
			checkRowsDirect(t, fmt.Sprintf("%g× %s", scale, src.name), eng, tb)
		}
	}
}

// noisyProfile is a fused profile of r's own grade at 5 m cells plus
// Gaussian noise of sigma radians.
func noisyProfile(r *road.Road, sigma float64, rng *rand.Rand) *fusion.Profile {
	n := int(r.Length()/5) + 1
	p := &fusion.Profile{SpacingM: 5, S: make([]float64, n), GradeRad: make([]float64, n), Var: make([]float64, n)}
	for i := range p.S {
		p.S[i] = 5 * float64(i)
		p.GradeRad[i] = r.GradeAt(math.Min(p.S[i], r.Length())) + sigma*rng.NormFloat64()
		p.Var[i] = sigma * sigma
	}
	return p
}

// checkRowsDirect compares every fuel and pollutant row of tb with the
// edge-by-edge integration on the snapshot's own grade closures, by
// Float64bits.
func checkRowsDirect(t *testing.T, what string, eng *Engine, tb *tables) {
	t.Helper()
	for i, ed := range eng.edges {
		at, length := tb.gradeAt.at(int32(i)), eng.lengthM.at(int32(i))
		for b, kmh := range eng.cfg.SpeedsKmh {
			v := kmh / 3.6 * eng.cfg.classFactor(ed.Road.Class())
			if got, want := tb.fuel[b].at(int32(i)), edgeFuelGallons(at, length, v); math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("%s: fuel[%d][%d] = %v, integrated %v", what, b, i, got, want)
			}
			if tb.emis[b] == nil {
				continue
			}
			g, _ := emission.CellGrams(emissionModel, at, length, v)
			for sp, row := range tb.emis[b] {
				if got := row.at(int32(i)); math.Float64bits(got) != math.Float64bits(g[sp]) {
					t.Fatalf("%s: emis[%d][%d][%d] = %v, integrated %v", what, b, sp, i, got, g[sp])
				}
			}
		}
	}
}

// floatBits returns the bit patterns of a row of float64s.
func floatBits(row []float64) []uint64 {
	out := make([]uint64, len(row))
	for i, v := range row {
		out[i] = math.Float64bits(v)
	}
	return out
}

// edgeFuelGallons is the oracle of the fuel rows: the Eq. (7) rate
// integrated along one edge at one cruise speed, grade sampled at the
// midpoint of each 5 m cell and the per-cell gallons accumulated exactly
// like fuel.TripFuel's per-sample terms (rate × dt / 3600). The engine
// walks an edge once for all its buckets (integrate); each bucket's sum must
// equal this walk at its speed bit for bit.
func edgeFuelGallons(grade func(float64) float64, lengthM, speedMS float64) float64 {
	var gallons float64
	for s := 0.0; s < lengthM; s += emission.CellStepM {
		ds := emission.CellStepM
		if s+ds > lengthM {
			ds = lengthM - s
		}
		dt := ds / speedMS
		gallons += fuelModel.RateGPH(speedMS, 0, grade(s+ds/2)) * dt / 3600
	}
	return gallons
}
