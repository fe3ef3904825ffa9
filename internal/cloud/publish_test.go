package cloud

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"roadgrade/internal/ecoroute"
	"roadgrade/internal/fusion"
	"roadgrade/internal/obs"
	"roadgrade/internal/road"
)

// probeKind is one objective at one cruise speed.
type probeKind struct {
	obj ecoroute.Objective
	kmh float64
}

// probeKinds are what the route-country probe asks for: fuel and NOx at
// each speed the emission tables are built for.
var probeKinds = func() []probeKind {
	var kinds []probeKind
	for _, kmh := range emissionSpeedsKmh {
		for _, obj := range []ecoroute.Objective{ecoroute.Fuel, ecoroute.NOx} {
			kinds = append(kinds, probeKind{obj, kmh})
		}
	}
	return kinds
}()

// noisyProfile is road r's true grade plus Gaussian noise, as a server
// decodes it (cell positions at i·5 m).
func noisyProfile(t testing.TB, r *road.Road, rng *rand.Rand) *fusion.Profile {
	t.Helper()
	dto := truthDTO(r)
	for i := range dto.GradeRad {
		dto.GradeRad[i] += 0.003 * rng.NormFloat64()
	}
	p, err := dto.toProfile()
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// servedRoute is one answered route and the store generation its snapshot
// reflects.
type servedRoute struct {
	gen      uint64
	kind     probeKind
	from, to int
	cost     float64
}

// TestPublisherNoQueryBuilds: behind HTTP and a coalescer, with routing and
// emissions on, 100 one-road ticks fold while two readers route every probe
// kind along random roads and one of them also fetches an emission table.
// Once each kind and the table have been asked for once, no query builds
// anything: every fold wakes the publisher, and a reader that finds the
// snapshot behind waits for it (ecoroute_query_builds_total stays put).
// Every route answered with the store at one generation throughout the
// request costs, by Float64bits, what RouteDijkstra gives on an engine over
// a replay of the same submissions up to that generation. Run it under
// -race -count=10.
func TestPublisherNoQueryBuilds(t *testing.T) {
	net, err := road.GenerateNetwork(61, road.NetworkConfig{TargetStreetKM: 4})
	if err != nil {
		t.Fatalf("network: %v", err)
	}
	srv, ts := newCoalescedServer(t, CoalesceConfig{}, 0)
	enableEmissions(t, srv, net)
	replay := NewServer()
	rng := rand.New(rand.NewSource(7))
	for i, ed := range net.Edges {
		if i%2 == 0 {
			p := noisyProfile(t, ed.Road, rng)
			if err := srv.Submit(ed.Road.ID(), p); err != nil {
				t.Fatal(err)
			}
			if err := replay.Submit(ed.Road.ID(), p); err != nil {
				t.Fatal(err)
			}
		}
	}
	prefilled := srv.StoreGeneration()
	ticks := make([]BatchItem, 100)
	for k := range ticks {
		ed := net.Edges[rng.Intn(len(net.Edges))]
		ticks[k] = BatchItem{RoadID: ed.Road.ID(), Key: fmt.Sprintf("tick-%d", k),
			Device: fmt.Sprintf("dev-%d", k%7), Profile: noisyProfile(t, ed.Road, rng)}
	}
	ctx := context.Background()
	client := func() *Client {
		cl, err := NewClient(ts.URL, ts.Client())
		if err != nil {
			t.Fatal(err)
		}
		return cl
	}
	// route asks for every kind along one random road, recording each
	// answer whose request saw no fold.
	route := func(cl *Client, rng *rand.Rand, served *[]servedRoute) error {
		ed := net.Edges[rng.Intn(len(net.Edges))]
		for _, k := range probeKinds {
			g0 := srv.StoreGeneration()
			r, err := cl.Route(ctx, ed.From, ed.To, k.obj.String(), k.kmh)
			if err != nil {
				return err
			}
			if g := srv.StoreGeneration(); g == g0 {
				*served = append(*served, servedRoute{g, k, ed.From, ed.To, r.Cost})
			}
		}
		return nil
	}

	// Warm-up: each kind's first query and the table's first fetch build.
	var served [2][]servedRoute
	warm := client()
	if err := route(warm, rng, &served[0]); err != nil {
		t.Fatalf("warm-up route: %v", err)
	}
	if _, err := warm.FetchEmissions(ctx, "car", 40); err != nil {
		t.Fatalf("warm-up emissions: %v", err)
	}
	builds := obs.Default.Counter("ecoroute_query_builds_total")
	builds0 := builds.Value()

	stop := make(chan struct{})
	progress := make(chan struct{}, 8)
	errs := make(chan error, 2)
	var wg sync.WaitGroup
	for r := range 2 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			cl, rng := client(), rand.New(rand.NewSource(int64(r)))
			for {
				select {
				case <-stop:
					return
				default:
				}
				if err := route(cl, rng, &served[r]); err != nil {
					errs <- fmt.Errorf("reader %d: %w", r, err)
					return
				}
				if r == 1 {
					if _, err := cl.FetchEmissions(ctx, "car", 40); err != nil {
						errs <- fmt.Errorf("reader %d: emissions: %w", r, err)
						return
					}
				}
				select {
				case progress <- struct{}{}:
				default:
				}
			}
		}()
	}
	writer := client()
	for k := range ticks {
		res, err := writer.SubmitBatch(ctx, ticks[k:k+1])
		if err != nil || res[0].Status != statusAccepted {
			t.Fatalf("tick %d: %v %+v", k, err, res)
		}
		for range 2 {
			select {
			case <-progress:
			case err := <-errs:
				t.Fatal(err)
			}
		}
	}
	close(stop)
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	if n := builds.Value() - builds0; n != 0 {
		t.Errorf("queries built %d refreshes, customizations or pollutant rows after warm-up, want 0", n)
	}

	eng, err := ecoroute.NewEngine(net, ecoroute.CloudSource{Store: replay}, ecoroute.Config{})
	if err != nil {
		t.Fatalf("replay engine: %v", err)
	}
	byGen := make(map[uint64][]servedRoute)
	checked := 0
	for _, rs := range served {
		for _, r := range rs {
			byGen[r.gen] = append(byGen[r.gen], r)
		}
	}
	for k := 0; ; k++ {
		for _, r := range byGen[prefilled+uint64(k)] {
			ref, err := eng.RouteDijkstra(r.kind.obj, r.kind.kmh, r.from, r.to)
			if err != nil {
				t.Fatalf("reference %s@%v %d→%d: %v", r.kind.obj, r.kind.kmh, r.from, r.to, err)
			}
			if math.Float64bits(ref.Cost) != math.Float64bits(r.cost) {
				t.Errorf("generation %d: served %s@%v %d→%d cost %.17g, replay Dijkstra %.17g",
					r.gen, r.kind.obj, r.kind.kmh, r.from, r.to, r.cost, ref.Cost)
			}
			checked++
		}
		if k == len(ticks) {
			break
		}
		it := ticks[k]
		if err := replay.SubmitDevice(it.RoadID, it.Device, it.Profile); err != nil {
			t.Fatalf("replaying tick %d: %v", k, err)
		}
	}
	if checked < len(ticks) {
		t.Errorf("checked %d routes answered at a known generation, want at least %d", checked, len(ticks))
	}
}

// TestPublisherGoroutineExits: the publisher is no long-lived goroutine.
// Folds on a server whose engine has answered queries start it; once the
// last fold is published, the goroutine count returns to what it was
// before the engine's first query, and no goroutine runs the publisher.
func TestPublisherGoroutineExits(t *testing.T) {
	net, err := road.GenerateNetwork(61, road.NetworkConfig{TargetStreetKM: 3})
	if err != nil {
		t.Fatalf("network: %v", err)
	}
	s := NewServer()
	eng, err := ecoroute.NewEngine(net, ecoroute.CloudSource{Store: s}, ecoroute.Config{})
	if err != nil {
		t.Fatalf("engine: %v", err)
	}
	s.EnableRouting(eng)
	rng := rand.New(rand.NewSource(3))
	for _, ed := range net.Edges[:len(net.Edges)/2] {
		if err := s.Submit(ed.Road.ID(), noisyProfile(t, ed.Road, rng)); err != nil {
			t.Fatal(err)
		}
	}
	before := runtime.NumGoroutine()
	ed := net.Edges[0]
	if _, err := eng.Route(ecoroute.NOx, 40, ed.From, ed.To); err != nil {
		t.Fatalf("first route: %v", err)
	}
	refreshes := obs.Default.Counter("ecoroute_refreshes_total")
	r0 := refreshes.Value()
	for range 20 {
		ed := net.Edges[rng.Intn(len(net.Edges))]
		if err := s.Submit(ed.Road.ID(), noisyProfile(t, ed.Road, rng)); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := eng.Route(ecoroute.NOx, 40, ed.From, ed.To); err != nil {
		t.Fatalf("route after the folds: %v", err)
	}
	if refreshes.Value() == r0 {
		t.Fatal("the folds published no snapshot")
	}
	// Goroutines other tests left behind may exit meanwhile, so the count
	// may fall below before; the stacks show whether a publisher is left.
	deadline := time.Now().Add(5 * time.Second)
	for {
		n, stacks := runtime.NumGoroutine(), goroutineStacks()
		if n <= before && !strings.Contains(stacks, "ecoroute.(*Engine).run") {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines after the last publish, %d before the first query:\n%s", n, before, stacks)
		}
		time.Sleep(time.Millisecond)
	}
}

// goroutineStacks returns every goroutine's stack.
func goroutineStacks() string {
	buf := make([]byte, 1<<16)
	for {
		if n := runtime.Stack(buf, true); n < len(buf) {
			return string(buf[:n])
		}
		buf = make([]byte, 2*len(buf))
	}
}

// TestRejectionMessageEveryDoor: a profile whose spacing does not match the
// road's is rejected with one message, naming the road once and the package
// once, whether it comes through the Go API, the single-profile door, the
// batch door folding inline or the batch door's coalescer.
func TestRejectionMessageEveryDoor(t *testing.T) {
	const want = "cloud: road r: expects spacing 5, got 10"
	first := profileOf(5, []float64{0.01, 0.02}, 1e-4)
	bad := profileOf(10, []float64{0.01, 0.02}, 1e-4)
	batchError := func(t *testing.T, url string) string {
		t.Helper()
		body, err := json.Marshal(batchRequestDTO{Items: []batchItemDTO{{RoadID: "r", Profile: FromProfile(bad)}}})
		if err != nil {
			t.Fatal(err)
		}
		resp, err := http.Post(url+"/v1/submit-batch", "application/json", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var out batchResponseDTO
		if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
			t.Fatal(err)
		}
		if len(out.Results) != 1 || out.Results[0].Status != statusRejected {
			t.Fatalf("HTTP %d, results %+v, want one rejected item", resp.StatusCode, out.Results)
		}
		return out.Results[0].Error
	}
	doors := []struct {
		name     string
		coalesce bool
		submit   func(t *testing.T, s *Server, url string) string
	}{
		{"SubmitDevice", false, func(t *testing.T, s *Server, _ string) string {
			return errString(nil, s.SubmitDevice("r", "phone-1", bad))
		}},
		{"single-profile door", false, func(t *testing.T, _ *Server, url string) string {
			body, err := json.Marshal(FromProfile(bad))
			if err != nil {
				t.Fatal(err)
			}
			resp, err := http.Post(url+"/v1/roads/r/profiles", "application/json", bytes.NewReader(body))
			if err != nil {
				t.Fatal(err)
			}
			defer resp.Body.Close()
			var out errorBody
			if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
				t.Fatal(err)
			}
			if resp.StatusCode != http.StatusConflict {
				t.Errorf("HTTP %d, want 409", resp.StatusCode)
			}
			return out.Error
		}},
		{"inline batch door", false, func(t *testing.T, _ *Server, url string) string { return batchError(t, url) }},
		{"coalesced batch door", true, func(t *testing.T, _ *Server, url string) string { return batchError(t, url) }},
	}
	for _, d := range doors {
		t.Run(d.name, func(t *testing.T) {
			s := NewServer()
			if d.coalesce {
				s.EnableCoalescing(CoalesceConfig{})
				defer s.Close()
			}
			ts := httptest.NewServer(s.Handler())
			defer ts.Close()
			if err := s.Submit("r", first); err != nil {
				t.Fatal(err)
			}
			if got := d.submit(t, s, ts.URL); got != want {
				t.Errorf("rejection reads %q, want %q", got, want)
			}
			if g := s.StoreGeneration(); g != 1 {
				t.Errorf("store generation %d after the rejection, want 1", g)
			}
		})
	}
}
