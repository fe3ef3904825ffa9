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
