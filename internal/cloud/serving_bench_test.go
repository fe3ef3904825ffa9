package cloud

// Serving benchmarks for the sharded, incrementally-fused store: the write
// path at a full window, a fused read, the mixed serving load, and the HTTP
// read path. The serving family in BENCH.json gates them (scripts/bench.sh).
//
// BenchmarkServerMixedLoad is the serving acceptance workload (EXPERIMENTS.md
// records its ≥10× throughput over the pre-sharding server): 8+ goroutines,
// 16 roads at the default 64-submission window, 95% fused reads / 5%
// submits. The read-heavy mix mirrors the paper's serving story: the fused
// network is consumed by every eco-routing query, while a vehicle uploads a
// profile once per completed drive.

import (
	"fmt"
	"math/rand"
	"net/http/httptest"
	"testing"

	"roadgrade/internal/fusion"
)

const (
	benchCells    = 200 // 1 km of road at 5 m spacing
	benchWindow   = 64  // submissions retained per road
	benchRoads    = 16
	benchReadFrac = 0.95 // fused fetches per eco-routing query vs one upload per drive
)

// benchProfiles pre-generates distinct submissions so the measured loop does
// no generation work.
func benchProfiles(n int) []*fusion.Profile {
	rng := rand.New(rand.NewSource(1))
	out := make([]*fusion.Profile, n)
	for i := range out {
		out[i] = randProfile(rng, benchCells)
	}
	return out
}

// BenchmarkServerSubmit measures the steady-state write path: the window is
// full, so every submit pays the eviction rebuild (O(window × cells)) that
// keeps fused output bit-identical to the batch algorithm.
func BenchmarkServerSubmit(b *testing.B) {
	s := NewServer()
	profs := benchProfiles(benchWindow + 64)
	for i := 0; i < benchWindow; i++ {
		if err := s.Submit("r", profs[i]); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := s.Submit("r", profs[benchWindow+i%64]); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkServerFused measures a fused read of an unchanged road at the full
// 64-submission window: a snapshot-cache hit plus the defensive copy,
// independent of submission count.
func BenchmarkServerFused(b *testing.B) {
	s := NewServer()
	for _, p := range benchProfiles(benchWindow) {
		if err := s.Submit("r", p); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := s.Fused("r"); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkServerMixedLoad prefills the roads to the window, then runs the
// 95/5 read/write mix from parallel goroutines. A read is what handleFused
// does: a generation-checked lookup of the pre-encoded response.
func BenchmarkServerMixedLoad(b *testing.B) {
	s := NewServer()
	ids := make([]string, benchRoads)
	for r := range ids {
		ids[r] = fmt.Sprintf("road-%02d", r)
	}
	profs := benchProfiles(256)
	for r, id := range ids {
		for i := 0; i < benchWindow; i++ {
			if err := s.Submit(id, profs[(r*benchWindow+i)%len(profs)]); err != nil {
				b.Fatal(err)
			}
		}
	}
	// ≥ 8 concurrent clients regardless of GOMAXPROCS.
	b.SetParallelism(8)
	b.ReportAllocs()
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		rng := rand.New(rand.NewSource(99))
		for pb.Next() {
			id := ids[rng.Intn(len(ids))]
			if rng.Float64() < benchReadFrac {
				if _, err := s.fusedJSON(id); err != nil {
					b.Error(err)
					return
				}
			} else if err := s.Submit(id, profs[rng.Intn(len(profs))]); err != nil {
				b.Error(err)
				return
			}
		}
	})
}

// BenchmarkHandleFusedHTTP measures the full HTTP read path — routing,
// instrumentation, and the pre-encoded response cache — with an in-process
// ResponseRecorder (no sockets).
func BenchmarkHandleFusedHTTP(b *testing.B) {
	s := NewServer()
	for _, p := range benchProfiles(benchWindow) {
		if err := s.Submit("r", p); err != nil {
			b.Fatal(err)
		}
	}
	h := s.Handler()
	req := httptest.NewRequest("GET", "/v1/roads/r/profile", nil)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, req)
		if rec.Code != 200 {
			b.Fatalf("HTTP %d", rec.Code)
		}
	}
}
