package cloud

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"net/http/httptest"
	"runtime"
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
	results := make([]BatchItemResult, n)
	backing := make([]pendingItem, n)
	pend := make([]*pendingItem, n)
	sent := make([]weak.Pointer[fusion.Profile], n)
	for i := range backing {
		p := realisticProfile(rng, 30)
		sent[i] = weak.Make(p)
		backing[i] = pendingItem{roadID: fmt.Sprintf("r-%d", i%4), p: p, out: &results[i], done: &done}
		pend[i] = &backing[i]
	}
	if shed := srv.enqueue(pend); shed != 0 {
		t.Fatalf("%d of %d items shed", shed, n)
	}
	done.Wait()
	for i, r := range results {
		if r.Status != statusAccepted {
			t.Fatalf("item %d: %+v", i, r)
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
	srv.EnableCoalescing(CoalesceConfig{QueueDepth: 4, BatchMax: 2, RetryAfter: 3 * time.Second})
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
	if retryAfter != 3*time.Second {
		t.Errorf("Retry-After = %v, want 3s", retryAfter)
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
