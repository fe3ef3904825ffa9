package cloud

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"

	"roadgrade/internal/ecoroute"
	"roadgrade/internal/obs"
	"roadgrade/internal/road"
)

// TestChangeFeed pins the store's change feed: both fold doors log the
// roads they changed under the generation they reached, a batch lists each
// accepted road once per shard fold and a rejected item's road not at all,
// and once the ring has overwritten a change after g, ChangedSince(g) says
// so rather than answer short.
func TestChangeFeed(t *testing.T) {
	srv, ts := newCoalescedServer(t, CoalesceConfig{}, 0)
	cli, err := NewClient(ts.URL, ts.Client())
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(1))
	if err := srv.Submit("a", realisticProfile(rng, 20)); err != nil {
		t.Fatal(err)
	}
	roads, now, ok := srv.ChangedSince(0)
	if !ok || now != 1 || !slices.Equal(roads, []string{"a"}) {
		t.Fatalf("after one submit: ChangedSince(0) = %v, %d, %v", roads, now, ok)
	}

	odd := realisticProfile(rng, 20)
	odd.SpacingM = 10 // "a" already fuses at 5 m: rejected
	items := []BatchItem{
		{RoadID: "a", Profile: odd},
		{RoadID: "b", Profile: realisticProfile(rng, 20)},
		{RoadID: "b", Profile: realisticProfile(rng, 20)},
		{RoadID: "c", Profile: realisticProfile(rng, 20)},
	}
	res, err := cli.SubmitBatch(context.Background(), items)
	if err != nil {
		t.Fatal(err)
	}
	if res[0].Status != statusRejected {
		t.Fatalf("mismatched spacing: %+v", res[0])
	}
	roads, now, ok = srv.ChangedSince(1)
	slices.Sort(roads)
	if !ok || now != 4 || now != srv.StoreGeneration() || !slices.Equal(roads, []string{"b", "c"}) {
		t.Fatalf("after the batch: ChangedSince(1) = %v, %d, %v (store at %d)", roads, now, ok, srv.StoreGeneration())
	}
	if roads, now, ok := srv.ChangedSince(now); !ok || len(roads) != 0 || now != 4 {
		t.Fatalf("caught up: ChangedSince(4) = %v, %d, %v", roads, now, ok)
	}
	if _, _, ok := srv.ChangedSince(now + 1); ok {
		t.Fatal("ChangedSince answered for a generation the store has not reached")
	}

	for i := 0; i <= feedCap; i++ { // one more than fits after generation 4
		if err := srv.Submit(fmt.Sprintf("w%d", i), realisticProfile(rng, 4)); err != nil {
			t.Fatal(err)
		}
	}
	if _, _, ok := srv.ChangedSince(4); ok {
		t.Fatal("ChangedSince(4) answered after the ring overwrote changes made after it")
	}
	if _, _, ok := srv.ChangedSince(5); !ok {
		t.Fatal("ChangedSince(5) refused although the ring holds every change after it")
	}
	gen := srv.StoreGeneration()
	roads, now, ok = srv.ChangedSince(gen - 2)
	if !ok || now != gen || !slices.Equal(roads, []string{fmt.Sprintf("w%d", feedCap-1), fmt.Sprintf("w%d", feedCap)}) {
		t.Fatalf("recent changes after wrapping: %v, %d, %v", roads, now, ok)
	}
}

// TestRoutingFollowsChangeFeed drives a CCH engine from the server's change
// feed through direct submits and coalesced batches: after every fold its
// routes must cost exactly what a freshly built engine over the same store
// answers, and no refresh after the first may rescan every edge.
func TestRoutingFollowsChangeFeed(t *testing.T) {
	net, err := road.GenerateNetwork(7, road.NetworkConfig{TargetStreetKM: 8})
	if err != nil {
		t.Fatal(err)
	}
	srv, ts := newCoalescedServer(t, CoalesceConfig{}, 0)
	cli, err := NewClient(ts.URL, ts.Client(), WithBinaryBatch(true))
	if err != nil {
		t.Fatal(err)
	}
	cfg := ecoroute.Config{Algorithm: ecoroute.AlgCCH, SpeedsKmh: []float64{40}}
	eng, err := ecoroute.NewEngine(net, ecoroute.CloudSource{Store: srv}, cfg)
	if err != nil {
		t.Fatal(err)
	}
	fullScans := obs.Default.Counter("ecoroute_refresh_full_scans_total")
	full0 := fullScans.Value()
	rng := rand.New(rand.NewSource(3))
	from, to := net.Nodes[0].ID, net.Nodes[len(net.Nodes)-1].ID
	for step := 0; step < 12; step++ {
		if step%2 == 0 {
			r := net.Edges[rng.Intn(len(net.Edges))].Road
			if err := srv.Submit(r.ID(), realisticProfile(rng, 1+int(r.Length()/5))); err != nil {
				t.Fatal(err)
			}
		} else {
			items := make([]BatchItem, 6)
			for i := range items {
				r := net.Edges[rng.Intn(len(net.Edges))].Road
				items[i] = BatchItem{RoadID: r.ID(), Profile: realisticProfile(rng, 1+int(r.Length()/5))}
			}
			if _, err := cli.SubmitBatch(context.Background(), items); err != nil {
				t.Fatal(err)
			}
		}
		ref, err := ecoroute.NewEngine(net, ecoroute.CloudSource{Store: srv}, cfg)
		if err != nil {
			t.Fatal(err)
		}
		for _, obj := range []ecoroute.Objective{ecoroute.Fuel, ecoroute.NOx} {
			got, err := eng.Route(obj, 40, from, to)
			if err != nil {
				t.Fatal(err)
			}
			want, err := ref.Route(obj, 40, from, to)
			if err != nil {
				t.Fatal(err)
			}
			if math.Float64bits(got.Cost) != math.Float64bits(want.Cost) {
				t.Errorf("step %d %s: incremental engine %.17g, fresh engine %.17g", step, obj, got.Cost, want.Cost)
			}
		}
	}
	// The long-lived engine's first build and one per fresh engine.
	if got := fullScans.Value() - full0; got != 1+12 {
		t.Errorf("%d full scans, want 13: only first builds may rescan every edge", got)
	}
}
