package cloud

// The PR's acceptance test: one trace id follows a batched submission end to
// end — client send, 429 shed with Retry-After, shed-subset retry, accept,
// and the coalescer fold on the far side of the async queue (via span link)
// — and the whole story is retrievable from the tail-sampling trace store.

import (
	"context"
	"math/rand"
	"net/http/httptest"
	"strconv"
	"sync"
	"testing"
	"time"

	"roadgrade/internal/obs"
)

// waitFor polls cond for up to 2s.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(2 * time.Second)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(time.Millisecond)
	}
	t.Fatalf("timed out waiting for %s", what)
}

// TestTraceEndToEnd drives a deterministic shed-then-retry through a
// coalescing server with a private tracer and asserts the trace store holds,
// under the client's single trace id: the client root, the retry's attempt
// span (first attempts ride the root and get no span of their own), the 429
// server span, the 200 server span, and the linked coalescer fold span with
// its robust-fusion annotations.
func TestTraceEndToEnd(t *testing.T) {
	tr := &obs.Tracer{}
	srv := NewServerWithShards(1)
	srv.Tracer = tr
	// Sample rate 0 on the probabilistic path: everything kept must be kept
	// for cause (shed annotation, fold keep), not by luck.
	st := srv.EnableTracing(obs.StoreConfig{Rand: func() float64 { return 1 }})
	defer tr.Disable()
	srv.EnableCoalescing(CoalesceConfig{QueueDepth: 1, BatchMax: 1})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	defer srv.Close()

	// Deterministic congestion: hold the lock of a road whose queued item the
	// worker is folding, so the worker blocks mid-fold; then fill the
	// one-slot queue behind it. The next batch submission must shed.
	rng := rand.New(rand.NewSource(7))
	blockRS := srv.roadFor("r-block")
	blockRS.mu.Lock()
	var blockedDone sync.WaitGroup
	for i := 0; i < 2; i++ {
		blockedDone.Add(1)
		it := pendingItem{
			BatchItem: BatchItem{RoadID: "r-block", Key: "blk-" + strconv.Itoa(i), Profile: realisticProfile(rng, 24)},
			done:      &blockedDone,
		}
		if shed := srv.enqueue([]pendingItem{it}); shed != 0 {
			blockRS.mu.Unlock()
			t.Fatalf("setup item %d shed", i)
		}
		if i == 0 {
			// Wait until the worker pulled it and is blocked on the road
			// lock, so the next item occupies the queue slot.
			waitFor(t, "worker to pick up the blocker", func() bool {
				_, queued, _ := srv.CoalesceStats()
				return queued == 0
			})
		}
	}

	// The client's stubbed sleep is where the retry pause happens: release
	// the road lock so the worker drains the queue, then wait for it, so the
	// retry is guaranteed to be admitted.
	unblocked := false
	cli, err := NewClient(ts.URL, ts.Client(),
		WithTracer(tr),
		WithRetry(3, time.Millisecond, time.Millisecond))
	if err != nil {
		t.Fatal(err)
	}
	cli.sleep = func(context.Context, time.Duration) error {
		if !unblocked {
			unblocked = true
			blockRS.mu.Unlock()
		}
		waitFor(t, "queue to drain before retry", func() bool {
			_, queued, _ := srv.CoalesceStats()
			return queued == 0
		})
		blockedDone.Wait()
		return nil
	}

	res, err := cli.SubmitBatch(context.Background(),
		[]BatchItem{{RoadID: "r-sub", Device: "veh-1", Profile: realisticProfile(rng, 24)}})
	if err != nil {
		t.Fatal(err)
	}
	if !unblocked {
		t.Fatal("submission was never shed; congestion setup broken")
	}
	if res[0].Status != statusAccepted {
		t.Fatalf("final status = %+v, want accepted after retry", res[0])
	}

	// The client root finalized the trace on End; the server's 200 handler
	// span may land microseconds later (it ends after the response is
	// written) and merges into the kept trace. Poll for the full span set.
	var rootID obs.TraceID
	waitFor(t, "kept client trace", func() bool {
		for _, s := range st.Summaries() {
			if s.Root == "client:submit_batch" {
				id, err := obs.ParseTraceID(s.TraceID)
				if err != nil {
					t.Fatal(err)
				}
				rootID = id
				return true
			}
		}
		return false
	})

	type want struct {
		name  string
		count int
	}
	waitFor(t, "all spans of the trace", func() bool {
		spans, ok := st.Trace(rootID)
		if !ok {
			return false
		}
		counts := map[string]int{}
		for _, s := range spans {
			counts[s.Name]++
		}
		for _, w := range []want{
			{"client:submit_batch", 1},
			{"client:attempt", 1},
			{"server:submit_batch", 2},
			{"coalesce:fold", 1},
		} {
			if counts[w.name] != w.count {
				return false
			}
		}
		return true
	})

	spans, _ := st.Trace(rootID)
	var sawShed, sawOK, sawFold bool
	for _, s := range spans {
		if s.Trace != rootID && s.Name != "coalesce:fold" {
			t.Errorf("span %s in foreign trace %s", s.Name, s.Trace)
		}
		switch s.Name {
		case "server:submit_batch":
			if v, _ := s.Arg("status"); v == "429" {
				if _, ok := s.Arg("shed"); !ok {
					t.Error("429 span missing shed annotation")
				}
				sawShed = true
			} else if v == "200" {
				sawOK = true
			}
		case "coalesce:fold":
			sawFold = true
			if len(s.Links) == 0 || s.Links[0].Trace != rootID {
				t.Errorf("fold span links = %+v, want link into %s", s.Links, rootID)
			}
			if v, _ := s.Arg("accepted"); v != "1" {
				t.Errorf("fold accepted = %q, want 1", v)
			}
			if _, ok := s.Arg("downweighted_cells"); !ok {
				t.Error("fold span missing robust-fusion annotations")
			}
		}
	}
	if !sawShed || !sawOK || !sawFold {
		t.Fatalf("trace incomplete: shed=%v ok=%v fold=%v", sawShed, sawOK, sawFold)
	}

	// The shed keep-reason wins for the request trace, and the exemplar on
	// the batch route's latency histogram carries a real kept trace id.
	for _, s := range st.Summaries() {
		if s.Root == "client:submit_batch" && s.Reason != "shed" {
			t.Errorf("request trace kept for %q, want shed", s.Reason)
		}
	}
}
