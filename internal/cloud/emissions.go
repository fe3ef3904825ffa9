package cloud

// The city emission map endpoint — the paper's Fig. 10(b) extended to the
// operating-mode pollutants:
//
//	GET /v1/emissions?vehicle=<car|truck|bus>&speed_kmh=<v>[&since=<generation>&epoch=<id>]
//
// serves a per-road, per-pollutant emission intensity table (grams per km
// per vehicle) computed from the crowd-fused gradient map. Each (vehicle,
// speed) table is kept in place and refreshed from the store's change feed:
// a refresh re-integrates only the roads the feed names whose fused profile
// (or provenance) actually changed — the same stamp discipline as the
// routing engine's cost tables — and records, per row, the generation at
// which the row last changed. A client that holds this server's table at
// generation since (its epoch names the server instance) gets back only the
// rows changed after it; every other request gets the full table, encoded
// at most once per generation.
//
// The endpoint is optional: a server without an attached network answers
// 503 (like routing without an engine).

import (
	"crypto/rand"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"net/http"
	"slices"
	"strconv"
	"sync"
	"time"

	"roadgrade/internal/emission"
	"roadgrade/internal/obs"
	"roadgrade/internal/road"
)

var (
	obsEmisRequests  = obs.Default.Counter("cloud_emission_requests_total")
	obsEmisHits      = obs.Default.Counter("cloud_emission_cache_hits_total")
	obsEmisRoads     = obs.Default.Counter("cloud_emission_roads_recomputed_total")
	obsEmisRebuilds  = obs.Default.Counter("cloud_emission_rebuilds_total")
	obsEmisSecs      = obs.Default.Histogram("cloud_emission_rebuild_seconds", obs.LatencyBuckets)
	obsEmisFull      = obs.Default.Counter("cloud_emission_responses_total", obs.L("kind", "full"))
	obsEmisDelta     = obs.Default.Counter("cloud_emission_responses_total", obs.L("kind", "delta"))
	obsEmisDeltaRows = obs.Default.Counter("cloud_emission_delta_rows_total")
)

// emissionSpeedsKmh are the cruise speeds emission tables are built for;
// requests snap to the nearest. A fixed set bounds the cache at
// |vehicles| × |speeds| entries.
var emissionSpeedsKmh = []float64{30, 40, 50, 60}

// defaultEmissionSpeedKmh is the cruise speed of a request without
// speed_kmh.
const defaultEmissionSpeedKmh = 40

// emisEdge is one directed road plus its opposite-direction sibling (the
// sign-flip fallback), resolved once at EnableEmissions.
type emisEdge struct {
	road *road.Road
	rev  *road.Road
}

// emisKey identifies one cached table.
type emisKey struct {
	vehicle emission.VehicleClass
	speed   float64
}

// emissionKey validates a (vehicle, speed) request and snaps the speed to
// its table bucket.
func emissionKey(vehicle emission.VehicleClass, speedKmh float64) (emisKey, error) {
	speed, err := snapEmissionSpeed(speedKmh)
	return emisKey{vehicle: vehicle, speed: speed}, err
}

// emisTable is one (vehicle, speed) table, refreshed in place under
// emissions.mu.
type emisTable struct {
	// dto is the table at generation dto.Generation: every row reflects at
	// least every change the feed logged up to it. Its Roads are updated in
	// place, so only copies leave the lock.
	dto EmissionTableDTO
	// stamps[i] is the provenance stamp row i was built from.
	stamps []uint64
	// rowGen[i] is the table generation of the refresh that last changed
	// row i; a delta since g carries the rows with rowGen > g.
	rowGen []uint64
	// json is dto encoded, or nil until a full response at this generation
	// needs it. A refresh drops it; the bytes handed out stay immutable.
	json []byte
}

// fullJSON returns the table's encoded full form, encoding it at most once
// per generation.
func (t *emisTable) fullJSON() ([]byte, error) {
	if t.json == nil {
		b, err := json.Marshal(t.dto)
		if err != nil {
			return nil, err
		}
		t.json = b
	}
	return t.json, nil
}

// emissions is the endpoint's state, attached via EnableEmissions.
type emissions struct {
	edges []emisEdge
	// roadEdges maps a road ID to the edges whose rows read the road: its
	// own edge, and the opposite-direction edge that falls back on its
	// profile. The change feed names roads; these are what a refresh
	// re-resolves for them.
	roadEdges map[string][]int32
	// epoch names this table cache. Generations only order tables built by
	// one cache, so a delta is served only to a request naming it: a
	// restarted server never trusts a base from before the restart.
	epoch string

	mu    sync.Mutex
	cache map[emisKey]*emisTable
}

// EnableEmissions attaches a road network, turning on GET /v1/emissions.
// Call before Handler()/serving. The table is computed from this server's
// own fused store; roads nobody has driven fall back to the opposite
// direction's profile sign-flipped, then to flat — the same provenance
// ladder the routing engine uses.
func (s *Server) EnableEmissions(net *road.Network) error {
	if net == nil || len(net.Edges) == 0 {
		return errors.New("cloud: emissions need a non-empty network")
	}
	em := &emissions{
		edges:     make([]emisEdge, len(net.Edges)),
		roadEdges: make(map[string][]int32, len(net.Edges)),
		epoch:     rand.Text(),
		cache:     make(map[emisKey]*emisTable),
	}
	byPair := make(map[[2]int]*road.Road, len(net.Edges))
	for _, ed := range net.Edges {
		byPair[[2]int{ed.From, ed.To}] = ed.Road
	}
	for i, ed := range net.Edges {
		rev := byPair[[2]int{ed.To, ed.From}]
		em.edges[i] = emisEdge{road: ed.Road, rev: rev}
		em.roadEdges[ed.Road.ID()] = append(em.roadEdges[ed.Road.ID()], int32(i))
		if rev != nil {
			em.roadEdges[rev.ID()] = append(em.roadEdges[rev.ID()], int32(i))
		}
	}
	s.emis = em
	return nil
}

// EmissionRoadDTO is one road's emission intensities on the wire.
type EmissionRoadDTO struct {
	RoadID       string  `json:"road_id"`
	Class        string  `json:"class"`
	LengthM      float64 `json:"length_m"`
	MeanGradeDeg float64 `json:"mean_grade_deg"`
	// Provenance records where the road's grades came from: "fused" (its
	// own crowd profile), "reverse" (opposite direction, sign-flipped), or
	// "flat" (no data — grade assumed zero).
	Provenance string  `json:"provenance"`
	COGPerKm   float64 `json:"co_g_per_km"`
	NOxGPerKm  float64 `json:"nox_g_per_km"`
	HCGPerKm   float64 `json:"hc_g_per_km"`
	PM25GPerKm float64 `json:"pm25_g_per_km"`
}

// EmissionTableDTO is the city-wide emission table on the wire.
type EmissionTableDTO struct {
	// Generation is the store generation the table reflects.
	Generation uint64  `json:"generation"`
	Vehicle    string  `json:"vehicle"`
	SpeedKmh   float64 `json:"speed_kmh"`
	// Epoch names the server instance that built the table; a delta
	// request must echo it. Empty from servers without delta responses.
	Epoch string            `json:"epoch,omitempty"`
	Roads []EmissionRoadDTO `json:"roads"`
}

// emissionResponseDTO is a GET /v1/emissions body: the full table, or, when
// Base is set, a delta — Roads[k] replaces row Index[k] of the table at
// generation Base, which brings it to Generation.
type emissionResponseDTO struct {
	EmissionTableDTO
	Base  *uint64 `json:"base,omitempty"`
	Index []int   `json:"index,omitempty"`
}

// snapEmissionSpeed snaps a requested cruise speed to the nearest table
// bucket.
func snapEmissionSpeed(kmh float64) (float64, error) {
	if kmh <= 0 || math.IsNaN(kmh) || math.IsInf(kmh, 0) {
		return 0, fmt.Errorf("cloud: invalid speed_kmh %v", kmh)
	}
	best, bestGap := emissionSpeedsKmh[0], math.Inf(1)
	for _, s := range emissionSpeedsKmh {
		if gap := math.Abs(s - kmh); gap < bestGap {
			best, bestGap = s, gap
		}
	}
	return best, nil
}

// emisGrades resolves one road's grade closure, provenance label, and
// provenance-disjoint stamp (3g+1 fused, 3g+2 reverse, 0 flat — the
// CloudSource discipline, so a provenance switch always changes the stamp).
func (s *Server) emisGrades(ed emisEdge) (func(float64) float64, string, uint64) {
	if p, gen, err := s.FusedGeneration(ed.road.ID()); err == nil {
		return p.GradeAt, "fused", 3*gen + 1
	}
	if ed.rev != nil {
		if p, gen, err := s.FusedGeneration(ed.rev.ID()); err == nil {
			length := ed.rev.Length()
			return func(at float64) float64 { return -p.GradeAt(length - at) }, "reverse", 3*gen + 2
		}
	}
	return func(float64) float64 { return 0 }, "flat", 0
}

// EmissionTable returns the current per-road emission table for a vehicle
// class at a cruise speed (snapped to the nearest bucket), rebuilding from
// the fused store only what changed. The experiment suite calls this
// directly; the HTTP handler serves its encoded form. The table is the
// caller's to keep.
func (s *Server) EmissionTable(vehicle emission.VehicleClass, speedKmh float64) (EmissionTableDTO, error) {
	em, key, err := s.emissionsFor(vehicle, speedKmh)
	if err != nil {
		return EmissionTableDTO{}, err
	}
	em.mu.Lock()
	defer em.mu.Unlock()
	t, err := s.emissionTableLocked(em, key)
	if err != nil {
		return EmissionTableDTO{}, err
	}
	dto := t.dto
	dto.Roads = slices.Clone(t.dto.Roads)
	return dto, nil
}

// emissionsFor returns the endpoint state and the table key of a request.
func (s *Server) emissionsFor(vehicle emission.VehicleClass, speedKmh float64) (*emissions, emisKey, error) {
	em := s.emis
	if em == nil {
		return nil, emisKey{}, errors.New("cloud: emissions not enabled")
	}
	key, err := emissionKey(vehicle, speedKmh)
	return em, key, err
}

// emissionBody returns a GET /v1/emissions body: the rows changed after
// since when the request holds this cache's table (delta, with em.epoch)
// and since is not ahead of it, the full table otherwise.
func (s *Server) emissionBody(vehicle emission.VehicleClass, speedKmh float64, delta bool, since uint64, epoch string) ([]byte, error) {
	em, key, err := s.emissionsFor(vehicle, speedKmh)
	if err != nil {
		return nil, err
	}
	em.mu.Lock()
	t, err := s.emissionTableLocked(em, key)
	if err != nil {
		em.mu.Unlock()
		return nil, err
	}
	if !delta || epoch != em.epoch || since > t.dto.Generation {
		body, err := t.fullJSON()
		em.mu.Unlock()
		obsEmisFull.Inc()
		return body, err
	}
	base := since
	d := emissionResponseDTO{EmissionTableDTO: t.dto, Base: &base, Index: []int{}}
	d.Roads = []EmissionRoadDTO{}
	for i, g := range t.rowGen {
		if g > since {
			d.Index = append(d.Index, i)
			d.Roads = append(d.Roads, t.dto.Roads[i])
		}
	}
	em.mu.Unlock()
	obsEmisDelta.Inc()
	obsEmisDeltaRows.Add(uint64(len(d.Index)))
	return json.Marshal(d)
}

// emisUpdate is one row a refresh re-integrated.
type emisUpdate struct {
	i     int32
	stamp uint64
	row   EmissionRoadDTO
}

// emissionTableLocked returns the key's table brought up to the store's
// current generation. em.mu must be held, and the table is only read or
// written under it.
//
// The first build resolves every edge. A later refresh re-resolves only the
// edges that read a road the change feed names after the table's
// generation, and rescans every edge only when the feed wrapped; either way
// a row re-integrates only when its provenance stamp moved. The new
// generation is fixed before any road is read: every change the feed logged
// up to it is then visible to the reads, so every row reflects at least
// that generation. A change landing mid-refresh may show in a row early; the
// feed names it after the new generation, so the next refresh re-resolves
// it (and finds the stamp it already has).
func (s *Server) emissionTableLocked(em *emissions, key emisKey) (*emisTable, error) {
	t := em.cache[key]
	gen := s.StoreGeneration()
	if t != nil && t.dto.Generation == gen {
		obsEmisHits.Inc()
		return t, nil
	}
	start := time.Now()
	var edges []int32
	rescan := true
	if t != nil {
		var roads []string
		var ok bool
		if roads, gen, ok = s.feed.since(t.dto.Generation); ok {
			edges, rescan = em.affected(roads), false
		}
	}
	if rescan {
		edges = make([]int32, len(em.edges))
		for i := range edges {
			edges[i] = int32(i)
		}
	}
	var ups []emisUpdate
	params := emission.ForVehicle(key.vehicle)
	speedMS := key.speed / 3.6
	for _, i := range edges {
		ed := em.edges[i]
		grade, prov, stamp := s.emisGrades(ed)
		if t != nil && t.stamps[i] == stamp {
			continue
		}
		re, err := emission.RoadEmissionsAt(ed.road, speedMS,
			func(_ *road.Road, at float64) float64 { return grade(at) }, params)
		if err != nil {
			return nil, fmt.Errorf("cloud: road %s: %w", ed.road.ID(), err)
		}
		ups = append(ups, emisUpdate{i: i, stamp: stamp, row: EmissionRoadDTO{
			RoadID:       re.RoadID,
			Class:        roadClassName(re.Class),
			LengthM:      re.LengthM,
			MeanGradeDeg: re.MeanGradeDeg,
			Provenance:   prov,
			COGPerKm:     re.GramsPerKm[emission.CO],
			NOxGPerKm:    re.GramsPerKm[emission.NOx],
			HCGPerKm:     re.GramsPerKm[emission.HC],
			PM25GPerKm:   re.GramsPerKm[emission.PM25],
		}})
	}
	if t == nil {
		n := len(em.edges)
		t = &emisTable{
			dto: EmissionTableDTO{
				Vehicle:  key.vehicle.String(),
				SpeedKmh: key.speed,
				Epoch:    em.epoch,
				Roads:    make([]EmissionRoadDTO, n),
			},
			stamps: make([]uint64, n),
			rowGen: make([]uint64, n),
		}
		em.cache[key] = t
	}
	for _, u := range ups {
		t.dto.Roads[u.i] = u.row
		t.stamps[u.i] = u.stamp
		t.rowGen[u.i] = gen
	}
	t.dto.Generation = gen
	t.json = nil
	obsEmisRebuilds.Inc()
	obsEmisRoads.Add(uint64(len(ups)))
	obsEmisSecs.Observe(time.Since(start).Seconds())
	return t, nil
}

// affected lists, in ascending order, the edges whose rows read any of the
// roads.
func (em *emissions) affected(roads []string) []int32 {
	var edges []int32
	for _, id := range roads {
		edges = append(edges, em.roadEdges[id]...)
	}
	slices.Sort(edges)
	return slices.Compact(edges)
}

// roadClassName labels a road class for the wire (mirrors the fuel map's
// class vocabulary).
func roadClassName(c road.Class) string {
	switch c {
	case road.ClassArterial:
		return "arterial"
	case road.ClassCollector:
		return "collector"
	case road.ClassLocal:
		return "local"
	default:
		return fmt.Sprintf("class_%d", int(c))
	}
}

func (s *Server) handleEmissions(w http.ResponseWriter, r *http.Request) {
	if s.emis == nil {
		httpError(w, http.StatusServiceUnavailable, errors.New("cloud: emissions not enabled"))
		return
	}
	q := r.URL.Query()
	vehicle, err := emission.ParseVehicleClass(q.Get("vehicle"))
	if err != nil {
		httpError(w, http.StatusBadRequest, err)
		return
	}
	speed := float64(defaultEmissionSpeedKmh)
	if v := q.Get("speed_kmh"); v != "" {
		if speed, err = strconv.ParseFloat(v, 64); err != nil {
			httpError(w, http.StatusBadRequest, fmt.Errorf("cloud: invalid speed_kmh %q", v))
			return
		}
	}
	var since uint64
	v := q.Get("since")
	if v != "" {
		if since, err = strconv.ParseUint(v, 10, 64); err != nil {
			httpError(w, http.StatusBadRequest, fmt.Errorf("cloud: invalid since %q", v))
			return
		}
	}
	obsEmisRequests.Inc()
	body, err := s.emissionBody(vehicle, speed, v != "", since, q.Get("epoch"))
	if err != nil {
		httpError(w, http.StatusBadRequest, err)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	_, _ = w.Write(body)
}
