package cloud

import (
	"context"
	"fmt"
	"math/rand"
	"net/http/httptest"
	"testing"

	"roadgrade/internal/obs"
)

// The traced-ingest benchmark family (BenchmarkTracedIngest*) backs the PR 8
// overhead claim, gated by the traced-ingest family in BENCH.json: the
// same mixed ingest path (batched binary submits through the coalescer plus a
// fused read per flush) measured with tracing off, head-sampled at 1%, and
// fully sampled with the tail-store attached. One op is one submission, so
// the ns/op columns compare directly and
// (Full - Off) / Off is the end-to-end observability tax — the acceptance bar
// is <= 5%.

// benchTracedIngest runs the mixed path under one tracing configuration.
// sample < 0 leaves the tracer disabled (the baseline); otherwise tracing is
// enabled at that head-sampling rate with a TraceStore sink and the default
// SLO engine, i.e. the full observability plane.
func benchTracedIngest(b *testing.B, sample float64) {
	tr := &obs.Tracer{}
	srv := NewServerWithShards(32)
	srv.Tracer = tr
	srv.MaxSubmissionsPerRoad = ingestWindow
	srv.EnableCoalescing(CoalesceConfig{QueueDepth: 4096, BatchMax: 512})
	defer srv.Close()
	if sample >= 0 {
		srv.EnableTracing(obs.StoreConfig{})
		tr.SetSampleRate(sample)
		if err := srv.EnableSLO(DefaultObjectives()); err != nil {
			b.Fatal(err)
		}
	}
	defer tr.Disable()
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	cli, err := NewClient(ts.URL, ts.Client(), WithTracer(tr), WithBinaryBatch(true))
	if err != nil {
		b.Fatal(err)
	}
	pool := ingestProfiles(rand.New(rand.NewSource(1)))
	ctx := context.Background()
	items := make([]BatchItem, 0, ingestBatchSize)
	flushed := false
	flush := func(i int) {
		if _, err := cli.SubmitBatch(ctx, items); err != nil {
			b.Fatal(err)
		}
		items = items[:0]
		flushed = true
		// The batch handler acks after the fold completes, so the fetch
		// reads a road that exists; one read per flush keeps the mix fixed
		// across b.N.
		if _, err := cli.FetchProfile(ctx, roadName(i%7)); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		items = append(items, BatchItem{
			RoadID:  roadName(i % 7),
			Key:     fmt.Sprintf("t-%d", i),
			Device:  fmt.Sprintf("dev-%d", i%32),
			Profile: pool[i%ingestPoolSize],
		})
		if len(items) == ingestBatchSize {
			flush(i)
		}
	}
	if len(items) > 0 || !flushed {
		// Tail flush fetches road 0: always submitted (item 0 maps to it),
		// unlike roadName(b.N%7) on a short first benchmark round.
		flush(0)
	}
}

func BenchmarkTracedIngestOff(b *testing.B)     { benchTracedIngest(b, -1) }
func BenchmarkTracedIngestSampled(b *testing.B) { benchTracedIngest(b, 0.01) }
func BenchmarkTracedIngestFull(b *testing.B)    { benchTracedIngest(b, 1) }
