package ecoroute

import (
	"errors"
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"roadgrade/internal/emission"
	"roadgrade/internal/road"
)

// rowValues returns a row's entries as one flat slice.
func rowValues[T any](r pagedRow[T]) []T {
	var out []T
	for _, pg := range r.pages {
		out = append(out, pg...)
	}
	return out
}

// sharedPages reports, page by page, whether two rows hold the same page.
func sharedPages[T any](a, b pagedRow[T]) []bool {
	out := make([]bool, len(a.pages))
	for p := range a.pages {
		out[p] = &a.pages[p][0] == &b.pages[p][0]
	}
	return out
}

// TestPagedRowMatchesFlat is the table test of the page type against a
// flat reference: rounds of random copy-on-write writes, each round cloned
// from the last as a tick clones its predecessor's rows, over rows of four
// pages and more whose last page is partial, exactly full or the only one.
// Writes land on at least four pages, and some rewrite an entry with the
// value it already holds, so a page can be copied without a difference.
// After each round every earlier row still reads as it did, the new row
// reads as its flat twin, a page is copied exactly when a write reached it,
// and the diff names exactly the indices whose entries differ.
func TestPagedRowMatchesFlat(t *testing.T) {
	for _, n := range []int{4*pageLen + 37, 5 * pageLen, 3*pageLen + 1, pageLen - 3} {
		t.Run(fmt.Sprint(n), func(t *testing.T) { checkPagedRow(t, n) })
	}
}

func checkPagedRow(t *testing.T, n int) {
	rng := rand.New(rand.NewSource(int64(n)))
	nPages := (n + pageMask) / pageLen
	row := newPagedRow[uint64](n)
	if len(row.pages) != nPages {
		t.Fatalf("%d pages for %d entries, want %d", len(row.pages), n, nPages)
	}
	if last := len(row.pages[nPages-1]); last != n-(nPages-1)*pageLen {
		t.Fatalf("last page holds %d entries, want %d", last, n-(nPages-1)*pageLen)
	}
	flat := make([]uint64, n)
	for i := range flat {
		flat[i] = uint64(rng.Intn(4))
		row.set(int32(i), flat[i])
	}
	rows, flats := []pagedRow[uint64]{row}, [][]uint64{flat}
	for round := 0; round < 12; round++ {
		prev, prevFlat := rows[len(rows)-1], flats[len(flats)-1]
		next := prev.clone()
		nextFlat := slices.Clone(prevFlat)
		written := make([]bool, nPages)
		// One write on each of up to four pages, then a random batch; some
		// writes put back the value the entry holds.
		for k := 0; k < 4+rng.Intn(24); k++ {
			i := rng.Intn(n)
			if k < 4 && k < nPages {
				i = min(k*pageLen+rng.Intn(pageLen), n-1)
			}
			v := uint64(rng.Intn(4))
			if rng.Intn(3) == 0 {
				v = nextFlat[i]
			}
			next.set(int32(i), v)
			nextFlat[i] = v
			written[i/pageLen] = true
		}
		if round%3 == 0 && nPages > 1 {
			// A page copied only to put its own values back.
			p := nPages - 1
			for i := p * pageLen; i < n; i += 7 {
				next.set(int32(i), nextFlat[i])
			}
			written[p] = true
		}
		rows, flats = append(rows, next), append(flats, nextFlat)

		for r := range rows {
			if got := rowValues(rows[r]); !slices.Equal(got, flats[r]) {
				t.Fatalf("round %d: row %d no longer reads as its flat twin", round, r)
			}
		}
		for k := range flats[len(flats)-1] {
			if next.at(int32(k)) != nextFlat[k] {
				t.Fatalf("round %d: at(%d) = %d, want %d", round, k, next.at(int32(k)), nextFlat[k])
			}
		}
		for p, shared := range sharedPages(prev, next) {
			if shared == written[p] {
				t.Fatalf("round %d: page %d shared %v, written %v", round, p, shared, written[p])
			}
		}
		var want, got []int32
		for i := range prevFlat {
			if prevFlat[i] != nextFlat[i] {
				want = append(want, int32(i))
			}
		}
		diffRows(prev, next, func(i int32) { got = append(got, i) })
		if !slices.Equal(got, want) {
			t.Fatalf("round %d: diff %v, want %v", round, got, want)
		}
	}
}

// TestOneRoadTickSharesPages runs a one-road tick on a 400 km network,
// whose rows span four pages: every row of the new snapshot shares every
// page with its predecessor except the pages holding an edge whose stamp
// moved, and those pages hold the road's edges. Stamps, closures, fuel rows
// and the pollutant rows built on both sides are checked, and the
// predecessor's rows read exactly as they did before the tick.
func TestOneRoadTickSharesPages(t *testing.T) {
	net, err := road.GenerateNetwork(71, road.NetworkConfig{TargetStreetKM: 400})
	if err != nil {
		t.Fatalf("network: %v", err)
	}
	store := newFakeStore()
	for i, ed := range net.Edges {
		if i%2 == 0 {
			store.submit(t, ed.Road, 0.01*float64(i%7-3))
		}
	}
	eng, err := NewEngine(net, CloudSource{Store: store}, Config{SpeedsKmh: []float64{30, 50}})
	if err != nil {
		t.Fatalf("engine: %v", err)
	}
	if nPages := len(eng.lengthM.pages); nPages < 4 {
		t.Fatalf("%d edges fill %d pages, want at least 4", len(net.Edges), nPages)
	}
	route := func() {
		t.Helper()
		for _, obj := range []Objective{Fuel, NOx} {
			for _, kmh := range []float64{30, 50} {
				if _, err := eng.Route(obj, kmh, net.Edges[0].From, net.Edges[len(net.Edges)-1].To); err != nil && !errors.Is(err, ErrNoPath) {
					t.Fatalf("%s at %v km/h: %v", obj, kmh, err)
				}
			}
		}
	}
	route()
	prev := eng.cur.Load()
	type snap struct {
		stamps []uint64
		rows   [][]float64
	}
	read := func(tb *tables) snap {
		s := snap{stamps: rowValues(tb.edgeGen)}
		for b := range tb.fuel {
			s.rows = append(s.rows, rowValues(tb.fuel[b]))
			for _, r := range tb.emis[b] {
				s.rows = append(s.rows, rowValues(r))
			}
		}
		return s
	}
	before := read(prev)

	// The middle page's last edge, so the tick stays off page 0.
	target := eng.edges[2*pageLen-1].Road
	store.submit(t, target, 0.05)
	route()
	next := eng.cur.Load()
	if next == prev {
		t.Fatal("tick did not produce a new snapshot")
	}
	roadPages := map[int32]bool{}
	for _, i := range eng.edgesReading[target.ID()] {
		roadPages[i>>pageShift] = true
	}
	moved := map[int32]bool{}
	diffRows(prev.edgeGen, next.edgeGen, func(i int32) { moved[i>>pageShift] = true })
	if len(moved) == 0 {
		t.Fatal("the tick moved no stamp")
	}
	for p := range moved {
		if !roadPages[p] {
			t.Fatalf("a stamp moved on page %d, which holds none of road %s's edges", p, target.ID())
		}
	}
	check := func(what string, shared []bool) {
		t.Helper()
		for p, s := range shared {
			if s == moved[int32(p)] {
				t.Errorf("%s: page %d shared %v, a stamp on it moved %v", what, p, s, moved[int32(p)])
			}
		}
	}
	check("stamps", sharedPages(prev.edgeGen, next.edgeGen))
	check("grade closures", sharedPages(prev.gradeAt, next.gradeAt))
	for b := range next.fuel {
		check(fmt.Sprintf("fuel[%d]", b), sharedPages(prev.fuel[b], next.fuel[b]))
		if next.emis[b] == nil || prev.emis[b] == nil {
			t.Fatalf("bucket %d: pollutant rows not built on both sides", b)
		}
		for _, sp := range emission.Pollutants() {
			check(fmt.Sprintf("%s[%d]", sp, b), sharedPages(prev.emis[b][sp], next.emis[b][sp]))
		}
	}

	after := read(prev)
	if !slices.Equal(after.stamps, before.stamps) {
		t.Error("the predecessor's stamps changed")
	}
	for r := range before.rows {
		sameBits(t, fmt.Sprintf("predecessor row %d", r), after.rows[r], before.rows[r])
	}
}
