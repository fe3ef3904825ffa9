package ecoroute

import (
	"fmt"
	"math"
	"sync"
	"testing"

	"roadgrade/internal/fusion"
	"roadgrade/internal/road"
)

// fakeStore is an in-memory CloudStore for invalidation tests. Like
// cloud.Server it logs the roads each fold changed, and keep, when positive,
// bounds the log to that many folds so a test can make the feed wrap.
type fakeStore struct {
	mu       sync.Mutex
	gen      uint64
	profiles map[string]*fusion.Profile
	roadGen  map[string]uint64
	log      []feedFold
	keep     int
	dropped  uint64 // generation of the newest fold the log dropped
}

// feedFold is one logged fold: the generation it brought the store to and
// the roads it changed.
type feedFold struct {
	gen   uint64
	roads []string
}

func newFakeStore() *fakeStore {
	return &fakeStore{profiles: map[string]*fusion.Profile{}, roadGen: map[string]uint64{}}
}

func (f *fakeStore) StoreGeneration() uint64 {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.gen
}

func (f *fakeStore) FusedGeneration(roadID string) (*fusion.Profile, uint64, error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	p, ok := f.profiles[roadID]
	if !ok {
		return nil, 0, fmt.Errorf("no submissions for %s", roadID)
	}
	return p, f.roadGen[roadID], nil
}

func (f *fakeStore) ChangedSince(gen uint64) ([]string, uint64, bool) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.dropped > gen {
		return nil, f.gen, false
	}
	var roads []string
	for _, fold := range f.log {
		if fold.gen > gen {
			roads = append(roads, fold.roads...)
		}
	}
	return roads, f.gen, true
}

// fold installs fused profiles for several roads as one accepted fold:
// one generation bump per road, one log entry for the fold.
func (f *fakeStore) fold(roads []*road.Road, profiles []*fusion.Profile) {
	f.mu.Lock()
	defer f.mu.Unlock()
	ids := make([]string, len(roads))
	for i, r := range roads {
		ids[i] = r.ID()
		f.profiles[ids[i]] = profiles[i]
		f.roadGen[ids[i]]++
	}
	f.gen += uint64(len(roads))
	f.log = append(f.log, feedFold{gen: f.gen, roads: ids})
	for f.keep > 0 && len(f.log) > f.keep {
		f.dropped = f.log[0].gen
		f.log = f.log[1:]
	}
}

// constProfile is a fused profile of one constant grade covering r.
func constProfile(r *road.Road, gradeRad float64) *fusion.Profile {
	n := int(math.Ceil(r.Length()/5)) + 1
	s := make([]float64, n)
	g := make([]float64, n)
	vr := make([]float64, n)
	for i := range s {
		s[i] = 5 * float64(i)
		g[i] = gradeRad
		vr[i] = 1e-4
	}
	return &fusion.Profile{SpacingM: 5, S: s, GradeRad: g, Var: vr}
}

// submit installs a constant-grade fused profile for one road and bumps both
// the road and store generations, as cloud.Server.Submit does.
func (f *fakeStore) submit(t *testing.T, r *road.Road, gradeRad float64) {
	t.Helper()
	f.fold([]*road.Road{r}, []*fusion.Profile{constProfile(r, gradeRad)})
}

// TestCloudSourceInvalidation drives the generation-keyed cost cache: the
// initial build costs every edge; a submission for one road recosts only that
// street's edges (forward profile + the sibling's sign-flipped fallback); an
// unrelated submission leaves the street alone; and with no new submissions
// the warm path reuses the snapshot without any scan.
func TestCloudSourceInvalidation(t *testing.T) {
	net, err := road.GenerateNetwork(53, road.NetworkConfig{TargetStreetKM: 3})
	if err != nil {
		t.Fatalf("network: %v", err)
	}
	store := newFakeStore()
	eng, err := NewEngine(net, CloudSource{Store: store}, Config{SpeedsKmh: []float64{40}})
	if err != nil {
		t.Fatalf("engine: %v", err)
	}

	counters := func() (reused, recomputed, snapshots uint64) {
		return obsCostReused.Value(), obsCostRecomp.Value(), obsSnapshotHits.Value()
	}

	_, recomp0, _ := counters()
	tb, err := eng.fresh()
	if err != nil {
		t.Fatalf("initial build: %v", err)
	}
	_, recomp1, _ := counters()
	if got := recomp1 - recomp0; got != uint64(len(net.Edges)) {
		t.Fatalf("initial build recomputed %d edges, want all %d", got, len(net.Edges))
	}
	// No data anywhere: every edge is flat, every stamp 0.
	for i, g := range rowValues(tb.edgeGen) {
		if g != 0 {
			t.Fatalf("edge %d stamp %d before any submission, want 0", i, g)
		}
	}

	// Warm path: same generation → snapshot reuse, no edge scan.
	reused1, recomp1, snap1 := counters()
	tb2, err := eng.fresh()
	if err != nil {
		t.Fatalf("warm fresh: %v", err)
	}
	reused2, recomp2, snap2 := counters()
	if tb2 != tb {
		t.Fatal("warm path built a new snapshot for an unchanged generation")
	}
	if snap2 == snap1 || reused2 != reused1 || recomp2 != recomp1 {
		t.Fatalf("warm path scanned edges: reused %d→%d recomputed %d→%d snapshots %d→%d",
			reused1, reused2, recomp1, recomp2, snap1, snap2)
	}

	// Submit one road: only that street recosts (its edge from the fused
	// profile, the opposite direction via the sign-flipped fallback).
	target := net.Edges[0]
	uphill := 3.0 * math.Pi / 180
	store.submit(t, target.Road, uphill)
	reusedBefore, recompBefore, _ := counters()
	tb3, err := eng.fresh()
	if err != nil {
		t.Fatalf("refresh after submit: %v", err)
	}
	reusedAfter, recompAfter, _ := counters()
	if tb3 == tb {
		t.Fatal("submission did not produce a new snapshot")
	}
	if got := recompAfter - recompBefore; got != 2 {
		t.Errorf("refresh recomputed %d edges, want 2 (street and sibling)", got)
	}
	if got := reusedAfter - reusedBefore; got != uint64(len(net.Edges))-2 {
		t.Errorf("refresh reused %d edges, want %d", got, len(net.Edges)-2)
	}

	// The costed direction climbs, its sibling descends: fuel must split
	// around the old flat cost.
	var fwdIdx, revIdx int32 = -1, -1
	for i, ed := range eng.edges {
		if ed == target {
			fwdIdx = int32(i)
			revIdx = eng.sibling[i]
		}
	}
	if fwdIdx < 0 || revIdx < 0 {
		t.Fatal("target edge or sibling not found in engine index")
	}
	flat := tb.fuel[0].at(fwdIdx)
	if up := tb3.fuel[0].at(fwdIdx); up <= flat {
		t.Errorf("uphill fused cost %.9f not above flat %.9f", up, flat)
	}
	if down := tb3.fuel[0].at(revIdx); down >= tb.fuel[0].at(revIdx) {
		t.Errorf("sign-flipped sibling cost %.9f not below flat %.9f", down, tb.fuel[0].at(revIdx))
	}
	if s := tb3.edgeGen.at(fwdIdx); s != 3*store.roadGen[target.Road.ID()]+1 {
		t.Errorf("forward stamp %d, want 3·gen+1", s)
	}
	if s := tb3.edgeGen.at(revIdx); s != 3*store.roadGen[target.Road.ID()]+2 {
		t.Errorf("reverse fallback stamp %d, want 3·gen+2", s)
	}

	// Submit a different road: the first street's stamps are unchanged, so
	// its costs carry over untouched (bit-identical slices entries).
	other := eng.siblingRoad(int(fwdIdx))
	store.submit(t, other, -uphill)
	tb4, err := eng.fresh()
	if err != nil {
		t.Fatalf("refresh after second submit: %v", err)
	}
	if tb4.fuel[0].at(fwdIdx) != tb3.fuel[0].at(fwdIdx) {
		t.Error("unrelated submission changed an untouched edge's cost")
	}
	// The sibling switched provenance (fallback → own profile): must recost.
	if tb4.edgeGen.at(revIdx) != 3*store.roadGen[other.ID()]+1 {
		t.Errorf("sibling stamp %d after own submission, want 3·gen+1", tb4.edgeGen.at(revIdx))
	}
}

// TestFlatSourceBaseline: a flat source prices both directions identically.
func TestFlatSourceBaseline(t *testing.T) {
	net := twoNodeNet(t, constGrades(20, 2*math.Pi/180))
	eng, err := NewEngine(net, FlatSource{}, Config{SpeedsKmh: []float64{40}, ClassSpeedFactor: uniformSpeeds})
	if err != nil {
		t.Fatalf("engine: %v", err)
	}
	up, err := eng.Route(Fuel, 40, 1, 2)
	if err != nil {
		t.Fatalf("route: %v", err)
	}
	down, err := eng.Route(Fuel, 40, 2, 1)
	if err != nil {
		t.Fatalf("route: %v", err)
	}
	if up.FuelGal != down.FuelGal {
		t.Errorf("flat source priced directions differently: %.9f vs %.9f", up.FuelGal, down.FuelGal)
	}
}
