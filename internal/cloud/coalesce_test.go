package cloud

import (
	"context"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"runtime"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"
	"weak"

	"roadgrade/internal/fusion"
	"roadgrade/internal/obs"
)

// newCoalescedServer returns a serving test pair: a coalescing server and
// its HTTP test server. The caller must Close both.
func newCoalescedServer(t *testing.T, cfg CoalesceConfig, maxPerRoad int) (*Server, *httptest.Server) {
	t.Helper()
	srv := NewServerWithShards(4)
	if maxPerRoad > 0 {
		srv.MaxSubmissionsPerRoad = maxPerRoad
	}
	srv.EnableCoalescing(cfg)
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(func() {
		ts.Close()
		srv.Close()
	})
	return srv, ts
}

// TestCoalescedFusionBitIdentical is the write-path mirror of PR 4's
// serving property test: the same submission sequence pushed through the
// coalesced batch path and through the direct Submit path must produce
// fused profiles with identical Float64bits — including after retention
// evictions force accumulator rebuilds, and at the default window of 64
// after every road's plane ring has wrapped twice.
func TestCoalescedFusionBitIdentical(t *testing.T) {
	for _, window := range []int{0, 1, 3, 8, 64} {
		t.Run(fmt.Sprintf("window=%d", window), func(t *testing.T) {
			srv, ts := newCoalescedServer(t, CoalesceConfig{}, window)
			direct := NewServerWithShards(4)
			if window > 0 {
				direct.MaxSubmissionsPerRoad = window
			}

			cli, err := NewClient(ts.URL, ts.Client(), WithBinaryBatch(true))
			if err != nil {
				t.Fatal(err)
			}
			rng := rand.New(rand.NewSource(int64(41 + window)))
			roads := []string{"r-a", "r-b", "r-c"}
			batches := 6
			if window == 64 {
				batches = 120
			}
			perRoad := make(map[string]int)
			seq := 0
			for batch := 0; batch < batches; batch++ {
				n := 3 + rng.Intn(6)
				items := make([]BatchItem, n)
				for i := range items {
					road := roads[rng.Intn(len(roads))]
					p := realisticProfile(rng, 40+rng.Intn(30))
					items[i] = BatchItem{RoadID: road, Key: fmt.Sprintf("k-%d", seq), Profile: p}
					perRoad[road]++
					seq++
				}
				res, err := cli.SubmitBatch(context.Background(), items)
				if err != nil {
					t.Fatal(err)
				}
				for i, r := range res {
					if r.Status != "accepted" {
						t.Fatalf("batch %d item %d: %+v", batch, i, r)
					}
				}
				// The binary codec quantizes; feed the direct path the same
				// post-quantization values by re-decoding the wire form.
				enc, err := EncodeBatchBinary(items)
				if err != nil {
					t.Fatal(err)
				}
				dec, err := DecodeBatchBinary(enc)
				if err != nil {
					t.Fatal(err)
				}
				for i := range dec {
					if err := direct.Submit(dec[i].RoadID, dec[i].Profile); err != nil {
						t.Fatal(err)
					}
				}
			}
			for _, road := range roads {
				if window == 64 && perRoad[road] < 3*window {
					t.Fatalf("%s took %d submissions; the ring needs %d to wrap twice", road, perRoad[road], 3*window)
				}
				got, err := srv.Fused(road)
				if err != nil {
					t.Fatalf("coalesced %s: %v", road, err)
				}
				want, err := direct.Fused(road)
				if err != nil {
					t.Fatalf("direct %s: %v", road, err)
				}
				if got.Len() != want.Len() || got.SpacingM != want.SpacingM {
					t.Fatalf("%s: shape mismatch", road)
				}
				for c := range want.GradeRad {
					if math.Float64bits(got.GradeRad[c]) != math.Float64bits(want.GradeRad[c]) {
						t.Fatalf("%s cell %d: grade bits differ: %v vs %v", road, c, got.GradeRad[c], want.GradeRad[c])
					}
					if math.Float64bits(got.Var[c]) != math.Float64bits(want.Var[c]) {
						t.Fatalf("%s cell %d: var bits differ", road, c)
					}
				}
			}
		})
	}
}

// arrivalOrderItems returns submissions to two roads of one shard: three
// anonymous ones per road to establish a consensus, then one device with a
// calibration offset alternating between the roads, anonymous traffic in
// between.
func arrivalOrderItems() []BatchItem {
	rng := rand.New(rand.NewSource(23))
	var items []BatchItem
	add := func(road, device string, offset float64) {
		p := realisticProfile(rng, 48)
		for c := range p.GradeRad {
			p.GradeRad[c] += offset
		}
		items = append(items, BatchItem{RoadID: road, Device: device, Profile: p})
	}
	for _, road := range []string{"r-a", "r-b"} {
		for i := 0; i < 3; i++ {
			add(road, "", 0)
		}
	}
	for round := 0; round < 6; round++ {
		add("r-a", "dev", 0.02)
		add("r-b", "dev", 0.02)
		add([]string{"r-a", "r-b"}[round%2], "", 0)
	}
	return items
}

// foldReference folds items in the given order into one fusion accumulator
// per road and one device state, the way a server must.
func foldReference(t *testing.T, items []BatchItem, window int, policy fusion.FusionPolicy) (map[string]*fusion.Profile, fusion.DeviceState) {
	t.Helper()
	accs := make(map[string]*fusion.RobustAccumulator)
	dev := fusion.NewDeviceState()
	for _, it := range items {
		acc := accs[it.RoadID]
		if acc == nil {
			acc = fusion.NewRobustAccumulator(window, policy)
			accs[it.RoadID] = acc
		}
		var st *fusion.DeviceState
		if it.Device != "" {
			st = dev
		}
		if _, err := acc.AddDeviceReport(it.Profile, st); err != nil {
			t.Fatal(err)
		}
	}
	fused := make(map[string]*fusion.Profile)
	for road, acc := range accs {
		p, err := acc.Fused()
		if err != nil {
			t.Fatal(err)
		}
		fused[road] = p
	}
	return fused, *dev
}

// sameFold reports where a fused map and device state differ by
// Float64bits, or "" when they are equal.
func sameFold(gotMap, wantMap map[string]*fusion.Profile, got, want fusion.DeviceState) string {
	for road, w := range wantMap {
		g := gotMap[road]
		if g == nil || g.Len() != w.Len() {
			return road + ": shape differs"
		}
		for c := range w.GradeRad {
			if math.Float64bits(g.GradeRad[c]) != math.Float64bits(w.GradeRad[c]) ||
				math.Float64bits(g.Var[c]) != math.Float64bits(w.Var[c]) {
				return fmt.Sprintf("%s cell %d: (%v, %v), want (%v, %v)", road, c, g.GradeRad[c], g.Var[c], w.GradeRad[c], w.Var[c])
			}
		}
	}
	if math.Float64bits(got.Reputation) != math.Float64bits(want.Reputation) ||
		math.Float64bits(got.BiasRad) != math.Float64bits(want.BiasRad) ||
		math.Float64bits(got.LastAgreement) != math.Float64bits(want.LastAgreement) ||
		got.Submissions != want.Submissions || got.Downweighted != want.Downweighted || got.BiasObs != want.BiasObs {
		return fmt.Sprintf("device state %+v, want %+v", got, want)
	}
	return ""
}

// TestFoldArrivalOrder: one device's submissions, interleaved across two
// roads of a one-shard server, fold in arrival order however they arrive —
// as one pass of fold, through the batch door with and without a
// coalescer, and one SubmitDevice at a time. Every result equals, by
// Float64bits, fusion's accumulators and one DeviceState driven in arrival
// order. A pass grouped by road would fold the device's r-a submissions
// before its r-b ones, which the reference shows moves the map and the
// device's learned bias.
func TestFoldArrivalOrder(t *testing.T) {
	const window = 8
	policy := fusion.FusionPolicy{Policy: fusion.PolicyHuber}
	items := arrivalOrderItems()
	wantMap, wantDev := foldReference(t, items, window, policy)
	if wantDev.BiasObs == 0 || wantDev.BiasRad == 0 {
		t.Fatalf("the device learned no bias (%+v); the test cannot tell fold orders apart", wantDev)
	}
	byRoad := slices.Clone(items)
	slices.SortStableFunc(byRoad, func(a, b BatchItem) int { return strings.Compare(a.RoadID, b.RoadID) })
	if groupedMap, groupedDev := foldReference(t, byRoad, window, policy); sameFold(groupedMap, wantMap, groupedDev, wantDev) == "" {
		t.Fatal("folding grouped by road gives the arrival-order result; the test cannot tell fold orders apart")
	}

	newServer := func() *Server {
		srv := NewServerWithShards(1)
		srv.Policy = policy
		srv.MaxSubmissionsPerRoad = window
		return srv
	}
	viaBatchDoor := func(t *testing.T, srv *Server) {
		ts := httptest.NewServer(srv.Handler())
		defer ts.Close()
		cli, err := NewClient(ts.URL, ts.Client())
		if err != nil {
			t.Fatal(err)
		}
		res, err := cli.SubmitBatch(context.Background(), items)
		if err != nil {
			t.Fatal(err)
		}
		for i, r := range res {
			if r.Status != statusAccepted {
				t.Fatalf("item %d: %+v", i, r)
			}
		}
	}
	for _, tc := range []struct {
		name   string
		submit func(t *testing.T, srv *Server)
	}{
		{"fold", func(t *testing.T, srv *Server) {
			pass := make([]*pendingItem, len(items))
			for i := range items {
				pass[i] = &pendingItem{BatchItem: items[i]}
			}
			srv.fold(&srv.shards[0], pass)
			for i, it := range pass {
				if it.res.Status != statusAccepted {
					t.Fatalf("item %d: %+v", i, it.res)
				}
			}
		}},
		{"coalesced-batch-door", func(t *testing.T, srv *Server) {
			srv.EnableCoalescing(CoalesceConfig{})
			defer srv.Close()
			viaBatchDoor(t, srv)
		}},
		{"inline-batch-door", viaBatchDoor},
		{"submit-device", func(t *testing.T, srv *Server) {
			for _, it := range items {
				if err := srv.SubmitDevice(it.RoadID, it.Device, it.Profile); err != nil {
					t.Fatal(err)
				}
			}
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			srv := newServer()
			tc.submit(t, srv)
			gotMap := make(map[string]*fusion.Profile)
			for road := range wantMap {
				p, err := srv.Fused(road)
				if err != nil {
					t.Fatal(err)
				}
				gotMap[road] = p
			}
			gotDev, _ := srv.DeviceState("dev")
			if diff := sameFold(gotMap, wantMap, gotDev, wantDev); diff != "" {
				t.Error(diff)
			}
		})
	}
}

// TestCoalescerReleasesFoldedBatches: once a fold has answered its
// submitters, the server holds no submitted profile — not in a road's
// retained window, and not through the coalescer's reused batch buffer,
// whose stale pointers would pin a whole request's items.
func TestCoalescerReleasesFoldedBatches(t *testing.T) {
	srv := NewServerWithShards(1)
	srv.EnableCoalescing(CoalesceConfig{})
	defer srv.Close()

	rng := rand.New(rand.NewSource(31))
	var sent []weak.Pointer[fusion.Profile]
	// Shrinking batches: a buffer reused without clearing keeps the tail of
	// every earlier, longer batch.
	for _, n := range []int{24, 12, 6, 3, 1} {
		sent = append(sent, enqueueAndWait(t, srv, rng, n)...)
	}
	for i := 0; i < 3; i++ {
		p := realisticProfile(rng, 30)
		sent = append(sent, weak.Make(p))
		if err := srv.Submit("r-direct", p); err != nil {
			t.Fatal(err)
		}
	}
	// A worker answers a batch's submitters before it clears its buffer, so
	// give it until the deadline to get back to its queue.
	reachable := len(sent)
	for deadline := time.Now().Add(2 * time.Second); reachable > 0 && time.Now().Before(deadline); time.Sleep(time.Millisecond) {
		runtime.GC()
		reachable = 0
		for _, w := range sent {
			if w.Value() != nil {
				reachable++
			}
		}
	}
	if reachable > 0 {
		t.Errorf("%d of %d submitted profiles still reachable after their folds", reachable, len(sent))
	}
}

// enqueueAndWait queues n fresh profiles the way the batch handler does (one
// backing array per request), waits for their fold, and returns weak
// pointers to them.
func enqueueAndWait(t *testing.T, srv *Server, rng *rand.Rand, n int) []weak.Pointer[fusion.Profile] {
	t.Helper()
	var done sync.WaitGroup
	done.Add(n)
	pend := make([]pendingItem, n)
	sent := make([]weak.Pointer[fusion.Profile], n)
	for i := range pend {
		p := realisticProfile(rng, 30)
		sent[i] = weak.Make(p)
		pend[i] = pendingItem{BatchItem: BatchItem{RoadID: fmt.Sprintf("r-%d", i%4), Profile: p}, done: &done}
	}
	if shed := srv.enqueue(pend); shed != 0 {
		t.Fatalf("%d of %d items shed", shed, n)
	}
	done.Wait()
	for i := range pend {
		if pend[i].res.Status != statusAccepted {
			t.Fatalf("item %d: %+v", i, pend[i].res)
		}
	}
	return sent
}

// TestBatchedSubmitZeroFuseProfiles asserts the write-side mirror of the
// PR 4 serving invariant: a storm of batched submits followed by fused
// reads performs zero batch FuseProfiles calls — everything runs through
// the incremental accumulator.
func TestBatchedSubmitZeroFuseProfiles(t *testing.T) {
	srv, ts := newCoalescedServer(t, CoalesceConfig{}, 0)
	cli, err := NewClient(ts.URL, ts.Client(), WithBinaryBatch(true))
	if err != nil {
		t.Fatal(err)
	}
	batchCalls := obs.Default.Counter("fusion_profile_batch_fuses_total")
	before := batchCalls.Value()

	rng := rand.New(rand.NewSource(5))
	for round := 0; round < 4; round++ {
		items := make([]BatchItem, 16)
		for i := range items {
			items[i] = BatchItem{
				RoadID:  fmt.Sprintf("road-%d", i%5),
				Key:     fmt.Sprintf("zfp-%d-%d", round, i),
				Profile: realisticProfile(rng, 50),
			}
		}
		if _, err := cli.SubmitBatch(context.Background(), items); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 5; i++ {
		if _, err := srv.Fused(fmt.Sprintf("road-%d", i)); err != nil {
			t.Fatal(err)
		}
	}
	if delta := batchCalls.Value() - before; delta != 0 {
		t.Errorf("batched write path called FuseProfiles %d times, want 0", delta)
	}
}

// TestCoalescerConcurrentBatches hammers the coalescer from many goroutines
// and checks nothing is lost or double-counted: every accepted item is in a
// road's window, duplicates settle to exactly one accept per key.
func TestCoalescerConcurrentBatches(t *testing.T) {
	// A retention window larger than the offered load, so stored submissions
	// can be reconciled against accepted statuses without evictions.
	srv, ts := newCoalescedServer(t, CoalesceConfig{QueueDepth: 8192, BatchMax: 64}, 4096)

	const workers = 8
	const batches = 10
	const perBatch = 20
	var wg sync.WaitGroup
	accepted := make([]uint64, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			cli, err := NewClient(ts.URL, ts.Client(), WithBinaryBatch(w%2 == 0), WithGzip(w%3 == 0))
			if err != nil {
				t.Error(err)
				return
			}
			rng := rand.New(rand.NewSource(int64(100 + w)))
			for b := 0; b < batches; b++ {
				items := make([]BatchItem, perBatch)
				for i := range items {
					items[i] = BatchItem{
						RoadID:  fmt.Sprintf("road-%d", rng.Intn(6)),
						Key:     fmt.Sprintf("w%d-b%d-i%d", w, b, i),
						Profile: realisticProfile(rng, 30),
					}
				}
				res, err := cli.SubmitBatch(context.Background(), items)
				if err != nil {
					t.Error(err)
					return
				}
				for _, r := range res {
					if r.Status == "accepted" {
						accepted[w]++
					} else if r.Status != "shed" {
						t.Errorf("unexpected status %+v", r)
					}
				}
			}
		}(w)
	}
	wg.Wait()

	var wantTotal uint64
	for _, n := range accepted {
		wantTotal += n
	}
	var gotTotal uint64
	for _, rs := range srv.Roads() {
		gotTotal += uint64(rs.Submissions)
	}
	if gotTotal != wantTotal {
		t.Errorf("stored %d submissions, clients saw %d accepted", gotTotal, wantTotal)
	}
	if srv.StoreGeneration() != wantTotal {
		t.Errorf("store generation %d, want %d", srv.StoreGeneration(), wantTotal)
	}
}

// TestKeyRingConcurrentBatchedSubmits is the idempotency race: the same key
// appears in two (and more) in-flight batches; exactly one copy may be
// stored no matter how the folds interleave.
func TestKeyRingConcurrentBatchedSubmits(t *testing.T) {
	srv, ts := newCoalescedServer(t, CoalesceConfig{QueueDepth: 4096, BatchMax: 32}, 0)

	const contenders = 6
	const sharedKeys = 25
	var wg sync.WaitGroup
	for w := 0; w < contenders; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			cli, err := NewClient(ts.URL, ts.Client())
			if err != nil {
				t.Error(err)
				return
			}
			rng := rand.New(rand.NewSource(int64(w)))
			items := make([]BatchItem, sharedKeys)
			for i := range items {
				// Same key from every contender — a fleet of phones
				// retrying the same upload concurrently.
				items[i] = BatchItem{
					RoadID:  "contended-road",
					Key:     fmt.Sprintf("shared-%d", i),
					Profile: realisticProfile(rng, 20),
				}
			}
			res, err := cli.SubmitBatch(context.Background(), items)
			if err != nil {
				t.Error(err)
				return
			}
			for i, r := range res {
				if r.Status != "accepted" && r.Status != "duplicate" {
					t.Errorf("contender %d item %d: %+v", w, i, r)
				}
			}
		}(w)
	}
	wg.Wait()

	roads := srv.Roads()
	if len(roads) != 1 || roads[0].Submissions != sharedKeys {
		t.Errorf("roads = %+v, want 1 road with %d submissions (one per shared key)", roads, sharedKeys)
	}
}

// TestCoalescerSheds drives a server whose queue cannot absorb the offered
// load and checks admission control degrades gracefully: 429 + Retry-After,
// per-item shed statuses, and nothing stored beyond what was accepted.
func TestCoalescerSheds(t *testing.T) {
	// One-shard server with a tiny queue and a worker kept busy: the easiest
	// deterministic way to overflow is to enqueue more than QueueDepth in
	// one batch.
	srv := NewServerWithShards(1)
	srv.EnableCoalescing(CoalesceConfig{QueueDepth: 4, BatchMax: 2})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	defer srv.Close()

	rng := rand.New(rand.NewSource(9))
	items := make([]BatchItem, 64)
	for i := range items {
		items[i] = BatchItem{RoadID: "r", Key: fmt.Sprintf("shed-%d", i), Profile: realisticProfile(rng, 10)}
	}
	// Raw one-shot client (no shed retry) to observe the 429 itself.
	cli, err := NewClient(ts.URL, ts.Client(), WithRetry(1, time.Millisecond, time.Millisecond))
	if err != nil {
		t.Fatal(err)
	}
	res, retryAfter, err := cli.submitBatchOnce(context.Background(), items)
	if err != nil {
		t.Fatal(err)
	}
	var shed, accepted int
	for _, r := range res {
		switch r.Status {
		case "shed":
			shed++
		case "accepted":
			accepted++
		}
	}
	if shed == 0 {
		t.Fatalf("expected shedding with queue depth 4 and 64 items; results: %d accepted", accepted)
	}
	if retryAfter != time.Second {
		t.Errorf("Retry-After = %v, want 1s", retryAfter)
	}

	// The retrying client path recovers: re-driving the same batch (same
	// keys) eventually lands every item exactly once.
	retier, err := NewClient(ts.URL, ts.Client(), WithRetry(20, time.Millisecond, 2*time.Millisecond))
	if err != nil {
		t.Fatal(err)
	}
	retier.sleep = func(ctx context.Context, _ time.Duration) error { return sleepCtx(ctx, time.Millisecond) }
	final, err := retier.SubmitBatch(context.Background(), items)
	if err != nil {
		t.Fatal(err)
	}
	for i, r := range final {
		if r.Status != "accepted" && r.Status != "duplicate" {
			t.Errorf("after retries item %d: %+v", i, r)
		}
	}
	if got := srv.Roads(); len(got) != 1 || got[0].Submissions != len(items) {
		t.Errorf("stored %+v, want %d submissions exactly once", got, len(items))
	}
}

// TestWritePathCounters pins what the write-path counters count. A batch
// moves cloud_batch_items_total{status} by as many items as its response
// gives that status, shed ones included. cloud_coalesce_batch_size takes
// one observation per pass that cloud_coalesce_folds_total counts, and its
// sum is the items the workers folded. A submission that folds inline
// (Submit, the single-profile door, a batch on a server without a
// coalescer) moves neither coalescer counter.
func TestWritePathCounters(t *testing.T) {
	type counts struct {
		items        map[string]uint64
		folds, sizes uint64
		folded       float64
	}
	read := func() counts {
		c := counts{items: make(map[string]uint64), folds: obsCoalesceFolds.Value(),
			sizes: obsCoalesceBatch.Count(), folded: obsCoalesceBatch.Sum()}
		for status, ctr := range obsBatchItems {
			c.items[status] = ctr.Value()
		}
		return c
	}
	itemsMoved := func(t *testing.T, before, after counts, res []BatchItemResult) {
		t.Helper()
		want := make(map[string]uint64)
		for _, r := range res {
			want[r.Status]++
		}
		for status := range obsBatchItems {
			if got := after.items[status] - before.items[status]; got != want[status] {
				t.Errorf("cloud_batch_items_total{status=%q} moved by %d, want %d", status, got, want[status])
			}
		}
	}
	rng := rand.New(rand.NewSource(29))
	batch := func(n int, prefix string) []BatchItem {
		items := make([]BatchItem, n)
		for i := range items {
			items[i] = BatchItem{RoadID: "r", Key: fmt.Sprintf("%s-%d", prefix, i%(n-2)), Profile: realisticProfile(rng, 10)}
		}
		items[n-1].Profile.SpacingM = 10 // rejected: the road folds 5 m cells
		return items
	}

	// A queue of 4 in front of a 64-item batch sheds some of it.
	srv := NewServerWithShards(1)
	srv.EnableCoalescing(CoalesceConfig{QueueDepth: 4, BatchMax: 2})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	defer srv.Close()
	cli, err := NewClient(ts.URL, ts.Client(), WithRetry(1, time.Millisecond, time.Millisecond))
	if err != nil {
		t.Fatal(err)
	}
	before := read()
	res, _, err := cli.submitBatchOnce(context.Background(), batch(64, "c"))
	if err != nil {
		t.Fatal(err)
	}
	after := read()
	itemsMoved(t, before, after, res)
	shed := 0
	for _, r := range res {
		if r.Status == statusShed {
			shed++
		}
	}
	if shed == 0 || shed == len(res) {
		t.Fatalf("%d of %d items shed: want some folded and some shed", shed, len(res))
	}
	if folds, sizes := after.folds-before.folds, after.sizes-before.sizes; folds == 0 || sizes != folds {
		t.Errorf("%d passes counted, %d batch sizes observed; want the same, above 0", folds, sizes)
	}
	if got, want := after.folded-before.folded, float64(len(res)-shed); got != want {
		t.Errorf("batch sizes sum to %v items, want the %v folded", got, want)
	}

	// Inline folds: Submit and the single-profile door of the coalescing
	// server, and a batch on a server without a coalescer.
	before = read()
	if err := srv.Submit("r-inline", realisticProfile(rng, 10)); err != nil {
		t.Fatal(err)
	}
	body, err := json.Marshal(FromProfile(realisticProfile(rng, 10)))
	if err != nil {
		t.Fatal(err)
	}
	if code, b, _ := postProfileBody(srv, srv.Handler(), "/v1/roads/r-inline/profiles", body); code != http.StatusAccepted {
		t.Fatalf("single door: HTTP %d: %s", code, b)
	}
	its := newHTTPServer(t, NewServerWithShards(1))
	icli, err := NewClient(its.URL, its.Client())
	if err != nil {
		t.Fatal(err)
	}
	if res, err = icli.SubmitBatch(context.Background(), batch(8, "i")); err != nil {
		t.Fatal(err)
	}
	after = read()
	itemsMoved(t, before, after, res)
	if after.folds != before.folds || after.sizes != before.sizes {
		t.Errorf("inline folds moved the coalescer counters: %d passes, %d sizes, were %d, %d",
			after.folds, after.sizes, before.folds, before.sizes)
	}
}

// TestCoalescerClose checks shutdown semantics: Close folds what was queued,
// is idempotent, and post-Close batches shed instead of hanging.
func TestCoalescerClose(t *testing.T) {
	srv := NewServerWithShards(2)
	srv.EnableCoalescing(CoalesceConfig{QueueDepth: 128})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	cli, err := NewClient(ts.URL, ts.Client(), WithRetry(1, time.Millisecond, time.Millisecond))
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(13))
	items := []BatchItem{{RoadID: "r", Key: "c1", Profile: realisticProfile(rng, 10)}}
	if _, err := cli.SubmitBatch(context.Background(), items); err != nil {
		t.Fatal(err)
	}
	srv.Close()
	srv.Close() // idempotent

	res, _, err := cli.submitBatchOnce(context.Background(),
		[]BatchItem{{RoadID: "r", Key: "c2", Profile: realisticProfile(rng, 10)}})
	if err != nil {
		t.Fatal(err)
	}
	if res[0].Status != "shed" {
		t.Errorf("post-Close submit status = %+v, want shed", res[0])
	}
	if got := srv.Roads(); len(got) != 1 || got[0].Submissions != 1 {
		t.Errorf("roads after close = %+v", got)
	}
}

// TestBatchDirectPath checks the endpoint works without coalescing enabled
// (synchronous per-item fold), including per-item rejects.
func TestBatchDirectPath(t *testing.T) {
	srv := NewServer()
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	cli, err := NewClient(ts.URL, ts.Client())
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(17))
	good := realisticProfile(rng, 20)
	mismatched := realisticProfile(rng, 20)
	mismatched.SpacingM = 10 // conflicts with the first accepted submission
	items := []BatchItem{
		{RoadID: "r", Key: "d1", Profile: good},
		{RoadID: "r", Key: "d1", Profile: good}, // same key: duplicate
		{RoadID: "r", Key: "d2", Profile: mismatched},
	}
	res, err := cli.SubmitBatch(context.Background(), items)
	if err != nil {
		t.Fatal(err)
	}
	want := []string{"accepted", "duplicate", "rejected"}
	for i, w := range want {
		if res[i].Status != w {
			t.Errorf("item %d status = %+v, want %s", i, res[i], w)
		}
	}
	if res[2].Error == "" {
		t.Error("rejected item should carry an error")
	}
}
