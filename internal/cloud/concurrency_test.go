package cloud

import (
	"fmt"
	"math"
	"math/rand"
	"net/http/httptest"
	"sync"
	"testing"

	"roadgrade/internal/fusion"
	"roadgrade/internal/obs"
)

// randProfile builds a deterministic random profile for a road.
func randProfile(rng *rand.Rand, cells int) *fusion.Profile {
	p := &fusion.Profile{
		SpacingM: 5,
		S:        make([]float64, cells),
		GradeRad: make([]float64, cells),
		Var:      make([]float64, cells),
	}
	for i := 0; i < cells; i++ {
		p.S[i] = float64(i) * 5
		p.GradeRad[i] = 0.05 * (rng.Float64() - 0.5)
		p.Var[i] = 1e-5 + 1e-4*rng.Float64()
	}
	return p
}

// TestFusedMatchesBatchOverRetainedWindow asserts the acceptance criterion:
// the served fused profile is bit-identical to batch FuseProfiles over the
// retained window (the most recent MaxSubmissionsPerRoad submissions), even
// after evictions, and the read path performs zero FuseProfiles calls.
func TestFusedMatchesBatchOverRetainedWindow(t *testing.T) {
	s := NewServer()
	s.MaxSubmissionsPerRoad = 64
	rng := rand.New(rand.NewSource(7))
	var all []*fusion.Profile
	for i := 0; i < 100; i++ { // 100 > 64: forces eviction + rebuild
		p := randProfile(rng, 50)
		all = append(all, p)
		if err := s.Submit("hill-rd", p); err != nil {
			t.Fatal(err)
		}
	}

	batchCalls := obs.Default.Counter("fusion_profile_batch_fuses_total")
	before := batchCalls.Value()
	var got *fusion.Profile
	for i := 0; i < 10; i++ { // repeated reads: snapshot cache path too
		var err error
		got, err = s.Fused("hill-rd")
		if err != nil {
			t.Fatal(err)
		}
	}
	if delta := batchCalls.Value() - before; delta != 0 {
		t.Errorf("read path called FuseProfiles %d times, want 0", delta)
	}

	want, err := fusion.FuseProfiles(all[len(all)-64:])
	if err != nil {
		t.Fatal(err)
	}
	if got.Len() != want.Len() {
		t.Fatalf("fused len = %d, want %d", got.Len(), want.Len())
	}
	for c := range want.S {
		if math.Float64bits(got.GradeRad[c]) != math.Float64bits(want.GradeRad[c]) ||
			math.Float64bits(got.Var[c]) != math.Float64bits(want.Var[c]) {
			t.Fatalf("cell %d: fused (%v, %v) != batch (%v, %v)",
				c, got.GradeRad[c], got.Var[c], want.GradeRad[c], want.Var[c])
		}
	}
}

// TestFusedJSONCache asserts that repeated GETs of an unchanged road serve
// the identical pre-encoded bytes, and that a new submission invalidates the
// cache.
func TestFusedJSONCache(t *testing.T) {
	s := NewServer()
	rng := rand.New(rand.NewSource(8))
	if err := s.Submit("r", randProfile(rng, 10)); err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(s.Handler())
	defer srv.Close()

	get := func() string {
		t.Helper()
		resp, err := srv.Client().Get(srv.URL + "/v1/roads/r/profile")
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var buf [1 << 16]byte
		n, _ := resp.Body.Read(buf[:])
		return string(buf[:n])
	}
	a, b := get(), get()
	if a != b {
		t.Error("unchanged road served different bytes")
	}
	if err := s.Submit("r", randProfile(rng, 10)); err != nil {
		t.Fatal(err)
	}
	if c := get(); c == a {
		t.Error("submission did not invalidate the fused response cache")
	}
}

// TestConcurrentMixedLoadAcrossShards hammers SubmitIdempotentDevice, Fused,
// and Roads from many goroutines across many roads (so every shard sees
// traffic) with a small retention window (so eviction/rebuild happens under
// contention). Run under -race this is the serving path's data-race gate.
func TestConcurrentMixedLoadAcrossShards(t *testing.T) {
	s := NewServer()
	s.MaxSubmissionsPerRoad = 4
	const (
		writers = 8
		readers = 8
		roads   = 32
		ops     = 50
	)
	roadID := func(i int) string { return fmt.Sprintf("road-%02d", i%roads) }

	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(100 + w)))
			for i := 0; i < ops; i++ {
				id := roadID(rng.Intn(roads))
				key := fmt.Sprintf("w%d-%d", w, i)
				if _, err := s.SubmitIdempotentDevice(id, key, "", randProfile(rng, 20)); err != nil {
					t.Error(err)
					return
				}
				// Occasionally retry the same key: must dedup, not store.
				if i%7 == 0 {
					if dup, err := s.SubmitIdempotentDevice(id, key, "", randProfile(rng, 20)); err != nil || !dup {
						t.Errorf("retry of %s: dup=%v err=%v", key, dup, err)
						return
					}
				}
			}
		}(w)
	}
	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(200 + r)))
			for i := 0; i < ops; i++ {
				id := roadID(rng.Intn(roads))
				if prof, err := s.Fused(id); err == nil {
					// Returned profiles are copies; scribbling on them
					// must be harmless (the race detector checks).
					for c := range prof.GradeRad {
						prof.GradeRad[c] = 0
					}
				}
				if i%10 == 0 {
					s.Roads()
				}
			}
		}(r)
	}
	wg.Wait()

	// Exactly writers*ops accepted submissions, window-capped per road.
	total := 0
	for _, rs := range s.Roads() {
		if rs.Submissions > s.MaxSubmissionsPerRoad {
			t.Errorf("road %s retains %d submissions, cap %d", rs.RoadID, rs.Submissions, s.MaxSubmissionsPerRoad)
		}
		total += rs.Submissions
	}
	if total == 0 {
		t.Error("no submissions retained")
	}
	// Every road must still serve a valid fused profile.
	for _, rs := range s.Roads() {
		prof, err := s.Fused(rs.RoadID)
		if err != nil {
			t.Errorf("road %s: %v", rs.RoadID, err)
			continue
		}
		for c := range prof.GradeRad {
			if math.IsNaN(prof.GradeRad[c]) || prof.Var[c] < 0 {
				t.Errorf("road %s cell %d: corrupt fused value", rs.RoadID, c)
				break
			}
		}
	}
}

// TestConcurrentIdempotencyOneWinner races N submissions of the same key:
// exactly one must store.
func TestConcurrentIdempotencyOneWinner(t *testing.T) {
	s := NewServer()
	rng := rand.New(rand.NewSource(3))
	p := randProfile(rng, 10)
	const racers = 16
	var wg sync.WaitGroup
	dups := make(chan bool, racers)
	for i := 0; i < racers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			dup, err := s.SubmitIdempotentDevice("one-rd", "the-key", "", p)
			if err != nil {
				t.Error(err)
				return
			}
			dups <- dup
		}()
	}
	wg.Wait()
	close(dups)
	stored := 0
	for dup := range dups {
		if !dup {
			stored++
		}
	}
	if stored != 1 {
		t.Errorf("%d racers stored, want exactly 1", stored)
	}
	if roads := s.Roads(); len(roads) != 1 || roads[0].Submissions != 1 {
		t.Errorf("roads = %+v, want one road with one submission", roads)
	}
}

// TestShardDistribution sanity-checks the FNV-1a shard mapping: distinct ids
// spread over more than one shard, and the same id is stable.
func TestShardDistribution(t *testing.T) {
	s := NewServer()
	used := make(map[*shard]bool)
	for i := 0; i < 256; i++ {
		used[s.shardFor(fmt.Sprintf("road-%d", i))] = true
	}
	if len(used) < 8 {
		t.Errorf("256 roads landed on only %d shards", len(used))
	}
	if s.shardFor("main-st") != s.shardFor("main-st") {
		t.Error("shard mapping is not stable")
	}
}

// TestNewServerWithShards checks the power-of-two rounding and clamping.
func TestNewServerWithShards(t *testing.T) {
	for _, tc := range []struct{ in, want int }{
		{0, 1}, {1, 1}, {3, 4}, {32, 32}, {33, 64}, {5000, 1024},
	} {
		if got := len(NewServerWithShards(tc.in).shards); got != tc.want {
			t.Errorf("NewServerWithShards(%d) = %d shards, want %d", tc.in, got, tc.want)
		}
	}
}
