package cloud

// The city emission map endpoint — the paper's Fig. 10(b) extended to the
// operating-mode pollutants:
//
//	GET /v1/emissions?vehicle=<car|truck|bus>&speed_kmh=<v>[&since=<generation>&epoch=<id>]
//
// serves a per-road, per-pollutant emission intensity table (grams per km
// per vehicle) computed from the crowd-fused gradient map — the map the
// routing engine costs routes on. Each (vehicle, speed) table is a view of
// the engine's published snapshot: it takes the snapshot's generation as
// its own, re-integrates only the rows whose provenance stamp moved since
// the snapshot it was last built from, and records, per row, the
// generation at which the row last changed. A client that holds this
// server's table at generation since (its epoch names the server instance)
// gets back only the rows changed after it; every other request gets the
// full table, encoded at most once per generation.
//
// The endpoint is optional: a server without it answers 503 (like routing
// without an engine). It reads the routing engine over this server's own
// store, so EnableRouting comes first.

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

	"roadgrade/internal/ecoroute"
	"roadgrade/internal/emission"
	"roadgrade/internal/obs"
	"roadgrade/internal/par"
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
	// dto is the table at generation dto.Generation, the generation of the
	// routing snapshot its rows reflect. Its Roads are updated in place, so
	// only copies leave the lock.
	dto EmissionTableDTO
	// built is that snapshot's stamp row. It shares the snapshot's pages,
	// not the snapshot: a table nobody fetches must not pin a whole stale
	// snapshot.
	built ecoroute.Stamps
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
	// epoch names this table cache. Generations only order tables built by
	// one cache, so a delta is served only to a request naming it: a
	// restarted server never trusts a base from before the restart.
	epoch string

	mu    sync.Mutex
	cache map[emisKey]*emisTable
}

// EnableEmissions turns on GET /v1/emissions over net. Call before
// Handler()/serving, and after EnableRouting has attached an engine over
// net whose source is this server's own store
// (ecoroute.CloudSource{Store: s}): the tables read that engine's
// snapshots, so a road nobody has driven falls back to the opposite
// direction's profile sign-flipped, then to flat, exactly as routes do.
func (s *Server) EnableEmissions(net *road.Network) error {
	if net == nil || len(net.Edges) == 0 {
		return errors.New("cloud: emissions need a non-empty network")
	}
	eng := s.router
	if eng == nil || eng.Network() != net || eng.Source() != (ecoroute.CloudSource{Store: s}) {
		return errors.New("cloud: emissions need a routing engine over the same network and this server's store")
	}
	s.emis = &emissions{epoch: rand.Text(), cache: make(map[emisKey]*emisTable)}
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

// EmissionTable returns the current per-road emission table for a vehicle
// class at a cruise speed (snapped to the nearest bucket), re-integrating
// only the rows the routing snapshot changed. The experiment suite calls this
// directly; the HTTP handler serves its encoded form. The table is the
// caller's to keep.
func (s *Server) EmissionTable(vehicle emission.VehicleClass, speedKmh float64) (EmissionTableDTO, error) {
	em, key, err := s.emissionsFor(vehicle, speedKmh)
	if err != nil {
		return EmissionTableDTO{}, err
	}
	em.mu.Lock()
	defer em.mu.Unlock()
	t, err := em.tableLocked(s.router, key)
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
	t, err := em.tableLocked(s.router, key)
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

// tableLocked returns the key's table brought up to the published snapshot
// of eng, the server's routing engine, waiting for a pending publish as a
// route query does. em.mu must be held: the table is only read or written
// under it, and the snapshot is read under it too. Published snapshots only
// move forward, so a table never goes back a generation. The lock order is
// em.mu, then the engine's; nothing takes them the other way.
//
// The first build integrates every row over GOMAXPROCS goroutines; when
// roads fail, the error is the lowest-indexed one's. A refresh diffs the stamp row the
// table was built from against the snapshot's, skipping the pages they
// share, and re-integrates only the rows whose stamp moved: a stamp names
// immutable grade data, so every other row already is what the snapshot
// gives.
func (em *emissions) tableLocked(eng *ecoroute.Engine, key emisKey) (*emisTable, error) {
	v, err := eng.Grades()
	if err != nil {
		return nil, err
	}
	gen := v.Generation()
	t := em.cache[key]
	if t != nil && t.dto.Generation == gen {
		obsEmisHits.Inc()
		return t, nil
	}
	start := time.Now()
	edges := eng.Network().Edges
	params := emission.ForVehicle(key.vehicle)
	speedMS := key.speed / 3.6
	recomputed := 0
	var rowErr error // the lowest-indexed failing road's
	if t == nil {
		nt := &emisTable{
			dto: EmissionTableDTO{
				Vehicle:  key.vehicle.String(),
				SpeedKmh: key.speed,
				Epoch:    em.epoch,
				Roads:    make([]EmissionRoadDTO, len(edges)),
			},
			rowGen: make([]uint64, len(edges)),
		}
		// The first build integrates every road over GOMAXPROCS goroutines,
		// each writing only its own row.
		var mu sync.Mutex
		errAt := len(edges)
		var firstErr error
		par.Do(len(edges), func(_, i int) {
			row, err := emissionRow(edges[i], i, v, speedMS, params)
			if err != nil {
				mu.Lock()
				if i < errAt {
					errAt, firstErr = i, err
				}
				mu.Unlock()
				return
			}
			nt.dto.Roads[i], nt.rowGen[i] = row, gen
		})
		t, rowErr, recomputed = nt, firstErr, len(edges)
		em.cache[key] = t
	} else {
		v.Changed(t.built, func(i int) {
			row, err := emissionRow(edges[i], i, v, speedMS, params)
			if err != nil {
				if rowErr == nil {
					rowErr = err
				}
				return
			}
			t.dto.Roads[i], t.rowGen[i] = row, gen
			recomputed++
		})
	}
	if rowErr != nil {
		// Some rows may have moved and others not: start over next time.
		delete(em.cache, key)
		return nil, rowErr
	}
	t.built = v.Stamps()
	t.dto.Generation = gen
	t.json = nil
	obsEmisRebuilds.Inc()
	obsEmisRoads.Add(uint64(recomputed))
	obsEmisSecs.Observe(time.Since(start).Seconds())
	return t, nil
}

// emissionRow integrates edge i's emission row at a cruise speed on the
// grades and stamp the snapshot view v holds for it.
func emissionRow(ed *road.Edge, i int, v ecoroute.GradeView, speedMS float64, params emission.Params) (EmissionRoadDTO, error) {
	re, err := emission.RoadEmissionsAt(ed.Road, speedMS, v.GradeAt(i), params)
	if err != nil {
		return EmissionRoadDTO{}, fmt.Errorf("cloud: road %s: %w", ed.Road.ID(), err)
	}
	return EmissionRoadDTO{
		RoadID:       re.RoadID,
		Class:        roadClassName(re.Class),
		LengthM:      re.LengthM,
		MeanGradeDeg: re.MeanGradeDeg,
		Provenance:   ecoroute.Provenance(v.Stamp(i)),
		COGPerKm:     re.GramsPerKm[emission.CO],
		NOxGPerKm:    re.GramsPerKm[emission.NOx],
		HCGPerKm:     re.GramsPerKm[emission.HC],
		PM25GPerKm:   re.GramsPerKm[emission.PM25],
	}, nil
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
