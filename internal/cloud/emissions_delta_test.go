package cloud

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"net/url"
	"slices"
	"strconv"
	"sync"
	"sync/atomic"
	"testing"

	"roadgrade/internal/emission"
	"roadgrade/internal/fusion"
	"roadgrade/internal/road"
)

// emisKind is one (vehicle, speed) table as a client asks for it.
type emisKind struct {
	vehicle string
	kmh     float64
}

// emisKinds are every table a server keeps.
var emisKinds = func() []emisKind {
	var out []emisKind
	for _, v := range []string{"car", "truck", "bus"} {
		for _, kmh := range emissionSpeedsKmh {
			out = append(out, emisKind{v, kmh})
		}
	}
	return out
}()

// emissionTableDiff describes the first difference between two tables,
// comparing every float by its bits, or returns "" when they are identical.
func emissionTableDiff(got, want EmissionTableDTO) string {
	if got.Generation != want.Generation || got.Vehicle != want.Vehicle || got.Epoch != want.Epoch ||
		math.Float64bits(got.SpeedKmh) != math.Float64bits(want.SpeedKmh) {
		return fmt.Sprintf("header %d/%s/%v/%s, want %d/%s/%v/%s", got.Generation, got.Vehicle, got.SpeedKmh,
			got.Epoch, want.Generation, want.Vehicle, want.SpeedKmh, want.Epoch)
	}
	if len(got.Roads) != len(want.Roads) {
		return fmt.Sprintf("%d rows, want %d", len(got.Roads), len(want.Roads))
	}
	bits := func(r EmissionRoadDTO) [6]uint64 {
		return [6]uint64{math.Float64bits(r.LengthM), math.Float64bits(r.MeanGradeDeg), math.Float64bits(r.COGPerKm),
			math.Float64bits(r.NOxGPerKm), math.Float64bits(r.HCGPerKm), math.Float64bits(r.PM25GPerKm)}
	}
	for i, g := range got.Roads {
		w := want.Roads[i]
		if g.RoadID != w.RoadID || g.Class != w.Class || g.Provenance != w.Provenance || bits(g) != bits(w) {
			return fmt.Sprintf("row %d: %+v, want %+v", i, g, w)
		}
	}
	return ""
}

// swappableHandler serves through whichever server handler was set last,
// so a test can restart the server behind a client's fixed base URL.
type swappableHandler struct{ h atomic.Pointer[http.Handler] }

func (s *swappableHandler) set(h http.Handler) { s.h.Store(&h) }

func (s *swappableHandler) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	(*s.h.Load()).ServeHTTP(w, r)
}

// foldByShard folds a batch the way the coalescer does, one shard at a time
// (each fold logs its own change-feed entry), calling between after the
// first of several folds.
func foldByShard(t *testing.T, srv *Server, items []BatchItem, between func()) (shards int) {
	t.Helper()
	groups := make(map[*shard][]*pendingItem)
	var order []*shard
	var wg sync.WaitGroup
	for i := range items {
		sh := srv.shardFor(items[i].RoadID)
		if _, ok := groups[sh]; !ok {
			order = append(order, sh)
		}
		wg.Add(1)
		groups[sh] = append(groups[sh], &pendingItem{
			roadID: items[i].RoadID, p: items[i].Profile, out: &BatchItemResult{}, done: &wg,
		})
	}
	for n, sh := range order {
		srv.foldShard(sh, groups[sh])
		for _, it := range groups[sh] {
			if it.out.Status != statusAccepted {
				t.Fatalf("batch item for %s: %s %s", it.roadID, it.out.Status, it.out.Error)
			}
		}
		if n == 0 && len(order) > 1 && between != nil {
			between()
		}
	}
	wg.Wait()
	return len(order)
}

// TestEmissionDeltaMatchesFullTable drives one long-lived client through a
// seeded sequence of folds — single submits, batches folded shard by shard
// and read between two folds, first submissions that move a row from flat
// to reverse provenance and from reverse to fused, more folds than the
// change feed keeps, a restarted server (new epoch) behind the same URL —
// and after each step fetches every vehicle class × speed. Each merged
// table must equal, float bit for float bit, a fresh client's full fetch at
// the same generation, and the delta must carry exactly the rows the
// server's refresh re-integrated.
func TestEmissionDeltaMatchesFullTable(t *testing.T) {
	for _, seed := range []int64{5, 23, 37, 61} {
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) { checkEmissionDelta(t, seed) })
	}
}

func checkEmissionDelta(t *testing.T, seed int64) {
	net, err := road.GenerateNetwork(seed, road.NetworkConfig{TargetStreetKM: 4})
	if err != nil {
		t.Fatalf("network: %v", err)
	}
	rng := rand.New(rand.NewSource(seed))
	profile := func(r *road.Road) *fusion.Profile { return realisticProfile(rng, 1+int(r.Length()/5)) }
	sibling := make([]int, len(net.Edges))
	byPair := make(map[[2]int]int, len(net.Edges))
	for i, ed := range net.Edges {
		byPair[[2]int{ed.From, ed.To}] = i
	}
	for i, ed := range net.Edges {
		sibling[i] = -1
		if j, ok := byPair[[2]int{ed.To, ed.From}]; ok {
			sibling[i] = j
		}
	}

	var srv *Server
	var h swappableHandler
	start := func() {
		srv = NewServerWithShards(4)
		srv.MaxSubmissionsPerRoad = 2 * feedCap // no window evictions: they only slow the wrap
		if err := srv.EnableEmissions(net); err != nil {
			t.Fatalf("enable: %v", err)
		}
		h.set(srv.Handler())
	}
	start()
	ts := httptest.NewServer(&h)
	defer ts.Close()
	cli := fastClient(t, ts.URL, ts.Client())
	ctx := context.Background()

	prov := make(map[string]string) // road ID → provenance at the last check
	var flatToReverse, reverseToFused bool
	// check fetches every table through the long-lived client and a fresh
	// one. wantDelta says whether the long-lived client's fetches must all
	// be deltas carrying exactly the rows the refreshes re-integrated.
	check := func(step string, wantDelta bool) {
		t.Helper()
		delta0, rows0, recomputed0 := obsEmisDelta.Value(), obsEmisDeltaRows.Value(), obsEmisRoads.Value()
		for _, k := range emisKinds {
			got, err := cli.FetchEmissions(ctx, k.vehicle, k.kmh)
			if err != nil {
				t.Fatalf("%s: %s@%v: %v", step, k.vehicle, k.kmh, err)
			}
			want, err := fastClient(t, ts.URL, ts.Client()).FetchEmissions(ctx, k.vehicle, k.kmh)
			if err != nil {
				t.Fatalf("%s: %s@%v full: %v", step, k.vehicle, k.kmh, err)
			}
			if d := emissionTableDiff(got, want); d != "" {
				t.Fatalf("%s: %s@%v: merged table differs from a full fetch: %s", step, k.vehicle, k.kmh, d)
			}
			if len(want.Roads) != len(net.Edges) || want.Epoch != srv.emis.epoch || want.Generation != srv.StoreGeneration() {
				t.Fatalf("%s: full fetch has %d rows, epoch %q, generation %d; want %d, %q, %d", step,
					len(want.Roads), want.Epoch, want.Generation, len(net.Edges), srv.emis.epoch, srv.StoreGeneration())
			}
		}
		if wantDelta {
			if got := obsEmisDelta.Value() - delta0; got != uint64(len(emisKinds)) {
				t.Errorf("%s: %d delta responses, want %d", step, got, len(emisKinds))
			}
			rows, recomputed := obsEmisDeltaRows.Value()-rows0, obsEmisRoads.Value()-recomputed0
			if rows != recomputed {
				t.Errorf("%s: deltas carried %d rows, refreshes re-integrated %d", step, rows, recomputed)
			}
		} else if got := obsEmisDelta.Value() - delta0; got != 0 {
			t.Errorf("%s: %d delta responses, want only full tables", step, got)
		}
		// The refreshed tables match a first build over the same store.
		kept := srv.emis
		if err := srv.EnableEmissions(net); err != nil {
			t.Fatal(err)
		}
		for _, k := range emisKinds {
			key, _ := clientEmissionKey(k.vehicle, k.kmh)
			fresh, err := srv.EmissionTable(key.vehicle, key.speed)
			if err != nil {
				t.Fatal(err)
			}
			kept.mu.Lock()
			refreshed := kept.cache[key].dto
			kept.mu.Unlock()
			fresh.Epoch = refreshed.Epoch
			if d := emissionTableDiff(refreshed, fresh); d != "" {
				t.Fatalf("%s: %s@%v: refreshed table differs from a first build: %s", step, k.vehicle, k.kmh, d)
			}
		}
		srv.emis = kept
		// A since ahead of the table gets the full table, not a delta.
		code, ahead := getEmissions(t, &h, url.Values{
			"since": {strconv.FormatUint(srv.StoreGeneration()+3, 10)}, "epoch": {srv.emis.epoch},
		}.Encode())
		full, err := srv.EmissionTable(emission.Car, 40)
		if err != nil {
			t.Fatal(err)
		}
		if code != http.StatusOK || emissionTableDiff(ahead, full) != "" {
			t.Fatalf("%s: since ahead of the table: HTTP %d, not the full table", step, code)
		}
		for _, row := range full.Roads {
			switch p := prov[row.RoadID]; {
			case p == "flat" && row.Provenance == "reverse":
				flatToReverse = true
			case p == "reverse" && row.Provenance == "fused":
				reverseToFused = true
			}
			prov[row.RoadID] = row.Provenance
		}
	}
	hasData := func(r *road.Road) bool {
		_, _, err := srv.FusedGeneration(r.ID())
		return err == nil
	}
	submit := func(r *road.Road) {
		if err := srv.Submit(r.ID(), profile(r)); err != nil {
			t.Fatal(err)
		}
	}

	// Prefill one direction of every third street.
	for i, ed := range net.Edges {
		if i%3 == 0 {
			submit(ed.Road)
		}
	}
	check("first fetch", false)
	check("unchanged store", true)

	multiShard := false
	for step := 0; step < 14; step++ {
		name := fmt.Sprintf("step %d", step)
		switch {
		case step < 4:
			// A first submission on a street driven only the other way, or
			// on one nobody has driven.
			wantSibData := step%2 == 0
			for i, ed := range net.Edges {
				if s := sibling[i]; s >= 0 && !hasData(ed.Road) && hasData(net.Edges[s].Road) == wantSibData {
					submit(ed.Road)
					break
				}
			}
			check(name, true)
		case step == 6:
			// A restarted server reaches the client's generation with
			// different data: only the epoch tells the client's base apart.
			held, err := cli.FetchEmissions(ctx, "car", 40)
			if err != nil {
				t.Fatal(err)
			}
			start()
			for srv.StoreGeneration() < held.Generation {
				submit(net.Edges[rng.Intn(len(net.Edges))].Road)
			}
			code, stale := getEmissions(t, &h, url.Values{
				"since": {strconv.FormatUint(held.Generation, 10)}, "epoch": {held.Epoch},
			}.Encode())
			if code != http.StatusOK || stale.Epoch == held.Epoch || len(stale.Roads) != len(net.Edges) {
				t.Fatalf("%s: a base from before the restart got HTTP %d, epoch %q, %d rows", name, code, stale.Epoch, len(stale.Roads))
			}
			if emissionTableDiff(stale, EmissionTableDTO{Generation: held.Generation, Vehicle: held.Vehicle,
				SpeedKmh: held.SpeedKmh, Epoch: stale.Epoch, Roads: held.Roads}) == "" {
				t.Fatalf("%s: the restarted server's table equals the old one; the step proves nothing", name)
			}
			check(name+" (restarted server)", false)
		case step == 10:
			// More folds than the feed keeps: the next refresh rescans. One
			// profile per road, resubmitted, keeps the folds cheap.
			gen := srv.StoreGeneration()
			again := make(map[*road.Road]*fusion.Profile)
			for k := 0; k <= feedCap; k++ {
				r := net.Edges[rng.Intn(len(net.Edges))].Road
				if again[r] == nil {
					again[r] = profile(r)
				}
				if err := srv.Submit(r.ID(), again[r]); err != nil {
					t.Fatal(err)
				}
			}
			if _, _, ok := srv.ChangedSince(gen); ok {
				t.Fatal("feed did not wrap")
			}
			check(name+" (wrapped feed)", true)
		case rng.Intn(2) == 0:
			submit(net.Edges[rng.Intn(len(net.Edges))].Road)
			check(name, true)
		default:
			items := make([]BatchItem, 6)
			for i, e := range rng.Perm(len(net.Edges))[:len(items)] {
				r := net.Edges[e].Road
				items[i] = BatchItem{RoadID: r.ID(), Profile: profile(r)}
			}
			if foldByShard(t, srv, items, func() { check(name+" (between shard folds)", true) }) > 1 {
				multiShard = true
			}
			check(name, true)
		}
	}
	if !flatToReverse || !reverseToFused {
		t.Errorf("sequence missed a provenance change: flat→reverse %v, reverse→fused %v", flatToReverse, reverseToFused)
	}
	if !multiShard {
		t.Error("sequence folded no batch across several shards")
	}
}

// TestEmissionDeltaConcurrent runs two clients' fetchers, a folder and
// EmissionTable readers at once. Every table anyone sees at a generation
// must be the same table, each fetcher's generations must never go back,
// and once the folds stop every client's merged table must equal a fresh
// full fetch.
func TestEmissionDeltaConcurrent(t *testing.T) {
	net, err := road.GenerateNetwork(11, road.NetworkConfig{TargetStreetKM: 3})
	if err != nil {
		t.Fatalf("network: %v", err)
	}
	srv := NewServerWithShards(4)
	if err := srv.EnableEmissions(net); err != nil {
		t.Fatalf("enable: %v", err)
	}
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	ctx := context.Background()
	kinds := []struct {
		class   emission.VehicleClass
		vehicle string
		kmh     float64
	}{{emission.Car, "car", 40}, {emission.Bus, "bus", 30}}

	type tableID struct {
		vehicle string
		gen     uint64
	}
	var mu sync.Mutex
	seen := make(map[tableID]EmissionTableDTO)
	record := func(who string, tbl EmissionTableDTO) {
		id := tableID{tbl.Vehicle, tbl.Generation}
		mu.Lock()
		defer mu.Unlock()
		if prev, ok := seen[id]; !ok {
			tbl.Roads = slices.Clone(tbl.Roads)
			seen[id] = tbl
		} else if d := emissionTableDiff(tbl, prev); d != "" {
			t.Errorf("%s: two %s tables at generation %d: %s", who, tbl.Vehicle, tbl.Generation, d)
		}
	}

	delta0 := obsEmisDelta.Value()
	// Fetchers and readers loop until stop closes. Each read signals
	// progress, and the folder waits for one between folds, so reads land
	// between folds; a goroutine that fails closes failed instead.
	stop, failed := make(chan struct{}), make(chan struct{})
	progress := make(chan struct{}, 1)
	fail := sync.OnceFunc(func() { close(failed) })
	var wg sync.WaitGroup
	halt := sync.OnceFunc(func() { close(stop); wg.Wait() })
	defer halt()
	spin := func(who string, read func(n int) (EmissionTableDTO, error)) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for n := 0; ; n++ {
				select {
				case <-stop:
					return
				default:
				}
				tbl, err := read(n)
				if err != nil {
					t.Errorf("%s: %v", who, err)
					fail()
					return
				}
				record(who, tbl)
				tbl.Roads[0].NOxGPerKm = -1 // the caller owns the table
				select {
				case progress <- struct{}{}:
				default:
				}
			}
		}()
	}
	clients := []*Client{fastClient(t, ts.URL, ts.Client()), fastClient(t, ts.URL, ts.Client())}
	for ci, c := range clients {
		for g := 0; g < 2; g++ {
			who := fmt.Sprintf("client %d fetcher %d", ci, g)
			last := make(map[string]uint64)
			spin(who, func(n int) (EmissionTableDTO, error) {
				k := kinds[n%len(kinds)]
				tbl, err := c.FetchEmissions(ctx, k.vehicle, k.kmh)
				if err == nil && tbl.Generation < last[k.vehicle] {
					t.Errorf("%s: %s generation went back %d → %d", who, k.vehicle, last[k.vehicle], tbl.Generation)
				}
				last[k.vehicle] = tbl.Generation
				return tbl, err
			})
		}
	}
	for g := 0; g < 2; g++ {
		spin(fmt.Sprintf("reader %d", g), func(n int) (EmissionTableDTO, error) {
			k := kinds[n%len(kinds)]
			return srv.EmissionTable(k.class, k.kmh)
		})
	}

	rng := rand.New(rand.NewSource(11))
	for fold := 0; fold < 120; fold++ {
		r := net.Edges[rng.Intn(len(net.Edges))].Road
		p := realisticProfile(rng, 1+int(r.Length()/5))
		if fold%3 == 0 {
			items := []BatchItem{{RoadID: r.ID(), Profile: p}}
			for _, e := range rng.Perm(len(net.Edges))[:3] {
				o := net.Edges[e].Road
				items = append(items, BatchItem{RoadID: o.ID(), Profile: realisticProfile(rng, 1+int(o.Length()/5))})
			}
			foldByShard(t, srv, items, nil)
		} else if err := srv.Submit(r.ID(), p); err != nil {
			t.Fatal(err)
		}
		select {
		case <-progress:
		case <-failed:
			t.FailNow()
		}
	}
	halt()
	if obsEmisDelta.Value() == delta0 {
		t.Error("no fetch was answered with a delta")
	}

	for ci, c := range clients {
		for _, k := range kinds {
			got, err := c.FetchEmissions(ctx, k.vehicle, k.kmh)
			if err != nil {
				t.Fatal(err)
			}
			want, err := fastClient(t, ts.URL, ts.Client()).FetchEmissions(ctx, k.vehicle, k.kmh)
			if err != nil {
				t.Fatal(err)
			}
			if d := emissionTableDiff(got, want); d != "" {
				t.Errorf("client %d %s after the folds: %s", ci, k.vehicle, d)
			}
		}
	}
}

// TestEmissionTableCallerOwnsCopy: editing a table EmissionTable or
// FetchEmissions returned must not change what the server or the client
// answers next, neither the full table nor a delta merged later.
func TestEmissionTableCallerOwnsCopy(t *testing.T) {
	net, err := road.GenerateNetwork(62, road.NetworkConfig{TargetStreetKM: 2})
	if err != nil {
		t.Fatalf("network: %v", err)
	}
	s := NewServer()
	if err := s.EnableEmissions(net); err != nil {
		t.Fatalf("enable: %v", err)
	}
	srv := httptest.NewServer(s.Handler())
	defer srv.Close()
	c := fastClient(t, srv.URL, srv.Client())
	ctx := context.Background()

	want, err := s.EmissionTable(emission.Car, 40)
	if err != nil {
		t.Fatal(err)
	}
	tbl, err := s.EmissionTable(emission.Car, 40)
	if err != nil {
		t.Fatal(err)
	}
	fetched, err := c.FetchEmissions(ctx, "car", 40)
	if err != nil {
		t.Fatal(err)
	}
	for _, mine := range []EmissionTableDTO{tbl, fetched} {
		for i := range mine.Roads {
			mine.Roads[i].RoadID = "mine"
			mine.Roads[i].NOxGPerKm = -1
		}
	}
	again, err := s.EmissionTable(emission.Car, 40)
	if err != nil {
		t.Fatal(err)
	}
	if d := emissionTableDiff(again, want); d != "" {
		t.Fatalf("server table after the caller edited a copy: %s", d)
	}
	if _, body := getEmissions(t, s.Handler(), ""); emissionTableDiff(body, want) != "" {
		t.Fatal("full response changed after the caller edited a copy")
	}

	// The next fetch is a delta over the client's own copy.
	r := net.Edges[0].Road
	if err := s.Submit(r.ID(), realisticProfile(rand.New(rand.NewSource(1)), 1+int(r.Length()/5))); err != nil {
		t.Fatal(err)
	}
	delta0 := obsEmisDelta.Value()
	got, err := c.FetchEmissions(ctx, "car", 40)
	if err != nil {
		t.Fatal(err)
	}
	if obsEmisDelta.Value() == delta0 {
		t.Fatal("second fetch was not a delta")
	}
	full, err := s.EmissionTable(emission.Car, 40)
	if err != nil {
		t.Fatal(err)
	}
	if d := emissionTableDiff(got, full); d != "" {
		t.Fatalf("delta merged after the caller edited a fetched table: %s", d)
	}
}

// TestEmissionsClientAgainstOldServer: a server that predates delta
// responses ignores since and epoch and sends tables without an epoch. The
// client then never asks for a delta and returns every full table as sent.
func TestEmissionsClientAgainstOldServer(t *testing.T) {
	var mu sync.Mutex
	var queries []url.Values
	old := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		mu.Lock()
		queries = append(queries, r.URL.Query())
		gen := len(queries)
		mu.Unlock()
		_, _ = fmt.Fprintf(w, `{"generation":%d,"vehicle":"car","speed_kmh":40,"roads":[{"road_id":"r%d","nox_g_per_km":0.5}]}`, gen, gen)
	}))
	defer old.Close()
	c := fastClient(t, old.URL, old.Client())
	for want := uint64(1); want <= 2; want++ {
		got, err := c.FetchEmissions(context.Background(), "car", 40)
		if err != nil {
			t.Fatal(err)
		}
		if got.Generation != want || len(got.Roads) != 1 || got.Roads[0].RoadID != fmt.Sprintf("r%d", want) {
			t.Fatalf("fetch %d: %+v", want, got)
		}
	}
	mu.Lock()
	defer mu.Unlock()
	for _, q := range queries {
		if q.Has("since") || q.Has("epoch") {
			t.Errorf("asked an old server for a delta: %v", q)
		}
	}
}

// TestKeepEmissionsNeverGoesBack pins how the client folds responses into
// its held table: within one epoch a full table replaces only an older one,
// a table from another epoch replaces only the table its request was made
// against, a delta patches any held table from its base to its own
// generation, and a delta older than the held table, or from another
// epoch, leaves it alone.
func TestKeepEmissionsNeverGoesBack(t *testing.T) {
	c := &Client{}
	key := emisKey{vehicle: emission.Car, speed: 40}
	full := func(gen uint64, epoch string, rows ...string) *emissionResponseDTO {
		r := &emissionResponseDTO{EmissionTableDTO: EmissionTableDTO{Generation: gen, Vehicle: "car", SpeedKmh: 40, Epoch: epoch}}
		for _, id := range rows {
			r.Roads = append(r.Roads, EmissionRoadDTO{RoadID: id})
		}
		return r
	}
	delta := func(base, gen uint64, epoch string, index []int, rows ...string) *emissionResponseDTO {
		r := full(gen, epoch, rows...)
		r.Base, r.Index = &base, index
		return r
	}
	held := func() *EmissionTableDTO { return c.emis[key] }
	if _, err := c.keepEmissions(key, nil, full(5, "a", "r0", "r1", "r2")); err != nil {
		t.Fatal(err)
	}
	other := &EmissionTableDTO{}
	for _, step := range []struct {
		name     string
		askedNow bool // the request was made against the table held now
		resp     *emissionResponseDTO
		want     string // held generation/epoch and row IDs afterwards
	}{
		{"older full table", true, full(3, "a", "x", "x", "x"), "5/a r0 r1 r2"},
		{"same generation", true, full(5, "a", "x", "x", "x"), "5/a r0 r1 r2"},
		{"other epoch, asked against an earlier table", false, full(9, "b", "x", "x", "x"), "5/a r0 r1 r2"},
		{"newer full table", false, full(7, "a", "s0", "s1", "s2"), "7/a s0 s1 s2"},
		{"delta from an earlier base", false, delta(5, 9, "a", []int{2}, "d2"), "9/a s0 s1 d2"},
		{"delta older than the held table", false, delta(7, 8, "a", []int{0}, "x"), "9/a s0 s1 d2"},
		{"other epoch, asked against the held table", true, full(2, "b", "t0", "t1", "t2"), "2/b t0 t1 t2"},
		{"delta from the previous epoch", false, delta(9, 10, "a", []int{0}, "x"), "2/b t0 t1 t2"},
		{"other vehicle", true, &emissionResponseDTO{EmissionTableDTO: EmissionTableDTO{Generation: 9, Vehicle: "bus", SpeedKmh: 40, Epoch: "b"}}, "2/b t0 t1 t2"},
	} {
		asked := other
		if step.askedNow {
			asked = held()
		}
		if _, err := c.keepEmissions(key, asked, step.resp); err != nil {
			t.Fatalf("%s: %v", step.name, err)
		}
		h := held()
		got := fmt.Sprintf("%d/%s", h.Generation, h.Epoch)
		for _, r := range h.Roads {
			got += " " + r.RoadID
		}
		if got != step.want {
			t.Fatalf("%s: holding %s, want %s", step.name, got, step.want)
		}
	}
	for _, bad := range []*emissionResponseDTO{
		delta(3, 4, "b", []int{0}, "x"),    // base ahead of the held table
		delta(2, 4, "b", []int{3}, "x"),    // row outside the table
		delta(2, 4, "b", []int{0, 1}, "x"), // indexes without rows
	} {
		if _, err := c.keepEmissions(key, held(), bad); err == nil {
			t.Errorf("delta %+v applied", bad)
		}
	}
	mine, err := c.keepEmissions(key, held(), delta(2, 4, "b", []int{1}, "d1"))
	if err != nil {
		t.Fatal(err)
	}
	mine.Roads[0].RoadID = "mine"
	if held().Roads[0].RoadID != "t0" || held().Roads[1].RoadID != "d1" {
		t.Errorf("held rows %+v after the caller edited its copy", held().Roads)
	}
}

// benchEmissionFetch times one road folded and the car table fetched over
// HTTP per iteration, on the 164.8 km network; delta reuses one client,
// full asks with a new client each time.
func benchEmissionFetch(b *testing.B, delta bool) {
	s, net := benchEmissionServer(b)
	srv := httptest.NewServer(s.Handler())
	defer srv.Close()
	c, err := NewClient(srv.URL, srv.Client())
	if err != nil {
		b.Fatal(err)
	}
	ctx := context.Background()
	if _, err := c.FetchEmissions(ctx, "car", 40); err != nil {
		b.Fatal(err)
	}
	r := net.Edges[0].Road
	p, err := truthDTO(r).toProfile()
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := s.Submit(r.ID(), p); err != nil {
			b.Fatal(err)
		}
		if !delta {
			c, _ = NewClient(srv.URL, srv.Client())
		}
		if _, err := c.FetchEmissions(ctx, "car", 40); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkEmissionFetchFull is the client's cost of one fold's freshness
// without deltas: the server re-encodes and the client re-decodes every row.
func BenchmarkEmissionFetchFull(b *testing.B) { benchEmissionFetch(b, false) }

// BenchmarkEmissionFetchDelta is the same with the client's held table:
// only the folded road's row crosses the wire.
func BenchmarkEmissionFetchDelta(b *testing.B) { benchEmissionFetch(b, true) }
