package cloud

import (
	"context"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"net/http/httptest"
	"testing"

	"roadgrade/internal/fusion"
)

// The ingest benchmark family (BenchmarkIngest*) backs the PR 6 acceptance
// claims; the ingest family in BENCH.json gates it (scripts/bench.sh):
//
//   - BenchmarkIngestSingleJSON vs BenchmarkIngestBatch*: per-submission
//     wall cost through a real HTTP server. Every op is ONE submission, so
//     the ns/op columns compare directly; the batch paths amortize the
//     request round trip, header parsing, and shard locking over
//     ingestBatchSize submissions.
//   - BenchmarkIngestDecode*: server-side decode cost of one wire batch,
//     JSON vs binary (the >=3x decode claim).

const (
	ingestCells     = 100 // ~500 m of road at 5 m spacing, a typical drive segment
	ingestBatchSize = 64
	ingestPoolSize  = 64
)

// ingestProfiles builds a reusable pool of submissions. perturb makes each
// use unique (distinct content-derived idempotency keys), so the dedup ring
// never short-circuits the work being measured.
func ingestProfiles(rng *rand.Rand) []*fusion.Profile {
	pool := make([]*fusion.Profile, ingestPoolSize)
	for i := range pool {
		pool[i] = realisticProfile(rng, ingestCells)
	}
	return pool
}

func perturb(p *fusion.Profile, i int) {
	p.GradeRad[0] = 0.01 * math.Sin(float64(i))
}

// ingestWindow shrinks the per-road retention cap so the store cost per
// submission is small and constant: eviction rebuilds are O(window x cells)
// and hit every submit path identically (they are covered by the PR 4
// serving family), while an unbounded window grows the live heap with b.N
// and turns the benchmark into a GC measurement. Either way would hide the
// transport difference being measured.
const ingestWindow = 8

func BenchmarkIngestSingleJSON(b *testing.B) {
	srv := NewServer()
	srv.MaxSubmissionsPerRoad = ingestWindow
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	cli, err := NewClient(ts.URL, ts.Client())
	if err != nil {
		b.Fatal(err)
	}
	pool := ingestProfiles(rand.New(rand.NewSource(1)))
	ctx := context.Background()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p := pool[i%ingestPoolSize]
		perturb(p, i)
		if err := cli.SubmitProfile(ctx, roadName(i%7), p); err != nil {
			b.Fatal(err)
		}
	}
}

// benchIngestBatch measures the batched path: one op is one submission, with
// a request flushed every ingestBatchSize ops.
func benchIngestBatch(b *testing.B, opts ...Option) {
	srv := NewServerWithShards(32)
	srv.MaxSubmissionsPerRoad = ingestWindow
	srv.EnableCoalescing(CoalesceConfig{QueueDepth: 4096, BatchMax: 512})
	defer srv.Close()
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	cli, err := NewClient(ts.URL, ts.Client(), opts...)
	if err != nil {
		b.Fatal(err)
	}
	pool := ingestProfiles(rand.New(rand.NewSource(1)))
	ctx := context.Background()
	items := make([]BatchItem, 0, ingestBatchSize)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		items = append(items, BatchItem{
			RoadID:  roadName(i % 7),
			Key:     fmt.Sprintf("b-%d", i),
			Profile: pool[i%ingestPoolSize],
		})
		if len(items) == ingestBatchSize {
			if _, err := cli.SubmitBatch(ctx, items); err != nil {
				b.Fatal(err)
			}
			items = items[:0]
		}
	}
	if len(items) > 0 {
		if _, err := cli.SubmitBatch(ctx, items); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkIngestBatchJSON(b *testing.B)   { benchIngestBatch(b) }
func BenchmarkIngestBatchBinary(b *testing.B) { benchIngestBatch(b, WithBinaryBatch(true)) }
func BenchmarkIngestBatchBinaryGzip(b *testing.B) {
	benchIngestBatch(b, WithBinaryBatch(true), WithGzip(true))
}

func BenchmarkIngestDecodeJSON(b *testing.B) {
	rng := rand.New(rand.NewSource(2))
	items := testBatch(rng, ingestBatchSize, ingestCells)
	dto := batchRequestDTO{Items: make([]batchItemDTO, len(items))}
	for i := range items {
		dto.Items[i] = batchItemDTO{RoadID: items[i].RoadID, Key: items[i].Key, Profile: FromProfile(items[i].Profile)}
	}
	wire, err := json.Marshal(dto)
	if err != nil {
		b.Fatal(err)
	}
	b.SetBytes(int64(len(wire)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var req batchRequestDTO
		if err := json.Unmarshal(wire, &req); err != nil {
			b.Fatal(err)
		}
		for j := range req.Items {
			if _, err := req.Items[j].Profile.toProfile(); err != nil {
				b.Fatal(err)
			}
		}
	}
}

func BenchmarkIngestDecodeBinary(b *testing.B) {
	rng := rand.New(rand.NewSource(2))
	wire, err := EncodeBatchBinary(testBatch(rng, ingestBatchSize, ingestCells))
	if err != nil {
		b.Fatal(err)
	}
	b.SetBytes(int64(len(wire)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := DecodeBatchBinary(wire); err != nil {
			b.Fatal(err)
		}
	}
}
