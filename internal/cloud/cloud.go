// Package cloud implements the crowd-sourcing stage the paper sketches at
// the end of §III-C3: vehicles upload their per-road gradient profiles to a
// cloud service, which fuses submissions from different vehicles with the
// same convex-combination algorithm and serves the fused network profile to
// transportation services (e.g. route planning).
//
// The service is a plain net/http JSON API:
//
//	POST /v1/roads/{id}/profiles   submit one vehicle's profile for a road
//	GET  /v1/roads/{id}/profile    fetch the fused profile for a road
//	GET  /v1/roads                 list known roads with submission counts
package cloud

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"log/slog"
	"math"
	"net/http"
	"sort"
	"sync"

	"roadgrade/internal/ecoroute"
	"roadgrade/internal/fusion"
	"roadgrade/internal/obs"
)

// ProfileDTO is the wire form of a gradient profile.
type ProfileDTO struct {
	SpacingM float64   `json:"spacing_m"`
	GradeRad []float64 `json:"grade_rad"`
	Var      []float64 `json:"var"`
}

// maxProfileCells bounds a submission: at the standard 5 m spacing this is
// 5000 km of road, far beyond any single drive.
const maxProfileCells = 1 << 20

// maxGradeRad bounds a believable submitted grade (≈45°); anything steeper is
// sensor garbage, not road.
const maxGradeRad = 0.8

// toProfile validates and converts the DTO. Validation is strict — a single
// corrupt submission (NaN, absurd length, impossible grade) must be rejected
// at the door rather than poisoning every future fusion of the road.
func (d ProfileDTO) toProfile() (*fusion.Profile, error) {
	if d.SpacingM <= 0 || math.IsNaN(d.SpacingM) || math.IsInf(d.SpacingM, 0) {
		return nil, fmt.Errorf("cloud: invalid spacing %v", d.SpacingM)
	}
	if len(d.GradeRad) == 0 {
		return nil, errors.New("cloud: empty profile")
	}
	if len(d.GradeRad) > maxProfileCells {
		return nil, fmt.Errorf("cloud: profile too long (%d cells, max %d)", len(d.GradeRad), maxProfileCells)
	}
	if len(d.GradeRad) != len(d.Var) {
		return nil, fmt.Errorf("cloud: grade/var length mismatch %d vs %d", len(d.GradeRad), len(d.Var))
	}
	for i, g := range d.GradeRad {
		if math.IsNaN(g) || math.IsInf(g, 0) {
			return nil, fmt.Errorf("cloud: non-finite grade at %d", i)
		}
		if math.Abs(g) > maxGradeRad {
			return nil, fmt.Errorf("cloud: implausible grade %v rad at %d", g, i)
		}
	}
	for i, v := range d.Var {
		if v <= 0 || math.IsNaN(v) || math.IsInf(v, 0) {
			return nil, fmt.Errorf("cloud: invalid variance %v at %d", v, i)
		}
	}
	p := &fusion.Profile{
		SpacingM: d.SpacingM,
		S:        make([]float64, len(d.GradeRad)),
		GradeRad: append([]float64(nil), d.GradeRad...),
		Var:      append([]float64(nil), d.Var...),
	}
	for i := range p.S {
		p.S[i] = float64(i) * d.SpacingM
	}
	return p, nil
}

// FromProfile builds the wire form of a profile.
func FromProfile(p *fusion.Profile) ProfileDTO {
	return ProfileDTO{
		SpacingM: p.SpacingM,
		GradeRad: append([]float64(nil), p.GradeRad...),
		Var:      append([]float64(nil), p.Var...),
	}
}

// RoadStatus summarizes one road's submissions.
type RoadStatus struct {
	RoadID      string `json:"road_id"`
	Submissions int    `json:"submissions"`
}

// Server is the fusion service. Safe for concurrent use.
//
// State is split across a power-of-two number of shards keyed by FNV-1a of
// the road id; each shard has its own RWMutex and idempotency ring, and each
// road keeps an incremental fusion.RobustAccumulator plus generation-stamped
// fused caches. A GET therefore costs O(cells) worst case (first read after a
// submission) and a cache hit otherwise, independent of how many submissions
// the road has — the batch FuseProfiles never runs on the read path.
type Server struct {
	shards    []shard
	shardMask uint32

	// devShards is the per-device trust table (device.go), sharded like
	// the road store.
	devShards []deviceShard

	// coal, when set via EnableCoalescing, runs the batched ingest path
	// through per-shard write coalescing with admission control.
	coal *coalescer

	// feed counts accepted submissions across all roads and logs which
	// roads each fold changed. Its counter is the O(1) staleness signal the
	// eco-routing engine polls (unchanged counter means no road's fused
	// profile can have changed); its ring tells the engine which roads to
	// recost when the counter moved.
	feed changeFeed

	// router, when set via EnableRouting, serves GET /v1/route;
	// routeQueries counts answered queries labeled by the engine's search
	// algorithm (alt/cch), so dashboards can attribute latency shifts to an
	// engine switch.
	router       *ecoroute.Engine
	routeQueries *obs.Counter

	// emis, when set via EnableEmissions, serves GET /v1/emissions: the
	// generation-cached city-wide per-road emission table (emissions.go).
	emis *emissions

	// MaxSubmissionsPerRoad bounds memory; once reached, the oldest
	// submission is dropped (the fused result keeps improving from fresh
	// data). Default 64. The value is captured per road at its first
	// submission.
	MaxSubmissionsPerRoad int

	// Policy selects the per-cell fusion estimator (zero value = naive,
	// the plain Eq. (6) inverse-variance average). Like
	// MaxSubmissionsPerRoad it is captured per road at the road's first
	// submission, so set it before serving traffic.
	Policy fusion.FusionPolicy

	// Logger, when set, enables structured access logging (one line per
	// request: method, route, status, bytes, duration, request id,
	// idempotency-dup flag). Nil disables logging; metrics stay on.
	Logger *slog.Logger

	// Tracer, when set, overrides the process-wide obs.DefaultTracer for
	// server/coalescer spans. Set before serving traffic; nil shares the
	// default so one trace file captures the whole process.
	Tracer *obs.Tracer

	// traces, when set via EnableTracing, retains tail-sampled traces and
	// serves GET /v1/debug/traces.
	traces *obs.TraceStore

	// slo, when set via EnableSLO, evaluates per-route burn rates from the
	// middleware's request outcomes.
	slo *obs.SLOEngine
}

// defaultShards balances lock granularity against footprint: 32 shards keep
// the collision probability of two hot roads low while the empty server stays
// a few KB.
const defaultShards = 32

// maxDedupKeys is the total idempotency-key budget, split evenly across
// shards (same overall bound as the previous global FIFO).
const maxDedupKeys = 4096

// NewServer returns an empty fusion server with the default shard count.
func NewServer() *Server { return NewServerWithShards(defaultShards) }

// NewServerWithShards returns an empty fusion server with n shards (rounded
// up to a power of two, clamped to [1, 1024]). More shards reduce lock
// collisions between hot roads at a small fixed memory cost.
func NewServerWithShards(n int) *Server {
	if n < 1 {
		n = 1
	}
	if n > 1024 {
		n = 1024
	}
	pow := 1
	for pow < n {
		pow <<= 1
	}
	s := &Server{
		shards:                make([]shard, pow),
		shardMask:             uint32(pow - 1),
		devShards:             make([]deviceShard, pow),
		MaxSubmissionsPerRoad: 64,
	}
	perShard := maxDedupKeys / pow
	if perShard < 16 {
		perShard = 16
	}
	for i := range s.shards {
		s.shards[i].roads = make(map[string]*roadState)
		s.shards[i].dedup = newKeyRing(perShard)
		s.devShards[i].devices = make(map[string]*deviceEntry)
	}
	return s
}

// Submit folds one anonymous profile into a road's fused map. The server
// keeps no reference to p once Submit returns.
func (s *Server) Submit(roadID string, p *fusion.Profile) error {
	return s.SubmitDevice(roadID, "", p)
}

// SubmitDevice stores one profile for a road, attributed to a device. A
// non-empty deviceID consults and updates that device's trust state
// (reputation, learned bias) as part of the fold; an empty id submits
// anonymously at full weight.
func (s *Server) SubmitDevice(roadID, deviceID string, p *fusion.Profile) error {
	if roadID == "" {
		return errors.New("cloud: empty road id")
	}
	if p == nil || p.Len() == 0 {
		return errors.New("cloud: empty profile")
	}
	if err := validDeviceID(deviceID); err != nil {
		return err
	}
	var de *deviceEntry
	if deviceID != "" {
		de = s.deviceFor(deviceID)
	}
	rs := s.roadFor(roadID)
	rs.mu.Lock()
	if _, err := rs.addLocked(p, de); err != nil {
		rs.mu.Unlock()
		return fmt.Errorf("cloud: road %s: %w", roadID, err)
	}
	rs.gen++ // invalidates the fused snapshot and encoded caches
	rs.mu.Unlock()
	s.feed.record(1, roadID)
	return nil
}

// StoreGeneration returns the count of accepted submissions — the O(1)
// staleness signal for generation-keyed consumers (ecoroute.CloudStore).
func (s *Server) StoreGeneration() uint64 { return s.feed.gen.Load() }

// ChangedSince returns the roads whose fused profiles changed after store
// generation gen, and the generation that brings the caller up to date
// (ecoroute.CloudStore). ok is false once the change feed has dropped a
// change made after gen; the caller must then rescan every road.
func (s *Server) ChangedSince(gen uint64) (roadIDs []string, now uint64, ok bool) {
	return s.feed.since(gen)
}

// FusedGeneration returns the road's fused snapshot and the submission
// generation it reflects (ecoroute.CloudStore). Unlike Fused it serves the
// cached snapshot without a defensive copy: snapshots are immutable once
// published, and routing refreshes read every road's profile, so per-call
// copies would dominate the refresh.
func (s *Server) FusedGeneration(roadID string) (*fusion.Profile, uint64, error) {
	rs := s.lookup(roadID)
	if rs == nil {
		return nil, 0, fmt.Errorf("cloud: no submissions for road %s", roadID)
	}
	rs.mu.RLock()
	if rs.snap != nil && rs.snapGen == rs.gen {
		snap, gen := rs.snap, rs.gen
		rs.mu.RUnlock()
		obsSnapHits.Inc()
		return snap, gen, nil
	}
	rs.mu.RUnlock()
	rs.mu.Lock()
	snap, err := rs.fusedLocked()
	gen := rs.gen
	rs.mu.Unlock()
	if err != nil {
		return nil, 0, fmt.Errorf("cloud: no submissions for road %s", roadID)
	}
	return snap, gen, nil
}

// SubmitIdempotent stores a profile unless the idempotency key has already
// been accepted, in which case it reports duplicate=true and stores nothing —
// a retried upload after a lost response cannot double-count. An empty key
// always stores. Keys are deduplicated within the road's shard (a client's
// key embeds the road id, so its retries always land on the same ring).
func (s *Server) SubmitIdempotent(roadID, key string, p *fusion.Profile) (duplicate bool, err error) {
	return s.SubmitIdempotentDevice(roadID, key, "", p)
}

// SubmitIdempotentDevice is SubmitIdempotent with device attribution
// (SubmitDevice's deviceID semantics).
func (s *Server) SubmitIdempotentDevice(roadID, key, deviceID string, p *fusion.Profile) (duplicate bool, err error) {
	if key == "" {
		return false, s.SubmitDevice(roadID, deviceID, p)
	}
	// Reserve the key atomically so two concurrent retries of the same
	// upload cannot both store.
	sh := s.shardFor(roadID)
	sh.mu.Lock()
	dup := sh.dedup.reserve(key)
	sh.mu.Unlock()
	if dup {
		return true, nil
	}
	if err := s.SubmitDevice(roadID, deviceID, p); err != nil {
		// Release the reservation: a rejected submission must stay
		// retryable after the client fixes it.
		sh.mu.Lock()
		sh.dedup.release(key)
		sh.mu.Unlock()
		return false, err
	}
	return false, nil
}

// Fused returns the fused profile for a road: the cached snapshot when no
// submission landed since the last read, an O(cells) accumulator
// materialization otherwise. The result is the caller's to keep (a copy of
// the cache).
func (s *Server) Fused(roadID string) (*fusion.Profile, error) {
	rs := s.lookup(roadID)
	if rs == nil {
		return nil, fmt.Errorf("cloud: no submissions for road %s", roadID)
	}
	// Fast path: a current snapshot served under the read lock, so
	// concurrent readers of a quiet road never serialize.
	rs.mu.RLock()
	if rs.snap != nil && rs.snapGen == rs.gen {
		snap := rs.snap
		rs.mu.RUnlock()
		obsSnapHits.Inc()
		return copyProfile(snap), nil
	}
	rs.mu.RUnlock()
	rs.mu.Lock()
	snap, err := rs.fusedLocked()
	rs.mu.Unlock()
	if err != nil {
		return nil, fmt.Errorf("cloud: no submissions for road %s", roadID)
	}
	return copyProfile(snap), nil
}

// fusedJSON returns the pre-encoded wire form of the fused profile; repeated
// GETs of an unchanged road skip both refusion and marshalling. The returned
// bytes are shared and immutable.
func (s *Server) fusedJSON(roadID string) ([]byte, error) {
	rs := s.lookup(roadID)
	if rs == nil {
		return nil, fmt.Errorf("cloud: no submissions for road %s", roadID)
	}
	rs.mu.RLock()
	if rs.enc != nil && rs.encGen == rs.gen {
		enc := rs.enc
		rs.mu.RUnlock()
		obsEncHits.Inc()
		return enc, nil
	}
	rs.mu.RUnlock()
	rs.mu.Lock()
	enc, err := rs.encodedLocked()
	rs.mu.Unlock()
	if err != nil {
		return nil, fmt.Errorf("cloud: no submissions for road %s", roadID)
	}
	return enc, nil
}

// fusedJSONGzip returns the gzipped wire form of the fused profile, cached
// per road like the plain encoding: a fleet of read-mostly clients that
// accept gzip costs one compression per submission generation, not one per
// GET. The returned bytes are shared and immutable.
func (s *Server) fusedJSONGzip(roadID string) ([]byte, error) {
	rs := s.lookup(roadID)
	if rs == nil {
		return nil, fmt.Errorf("cloud: no submissions for road %s", roadID)
	}
	rs.mu.RLock()
	if rs.encGz != nil && rs.encGzGen == rs.gen {
		enc := rs.encGz
		rs.mu.RUnlock()
		obsEncGzHits.Inc()
		return enc, nil
	}
	rs.mu.RUnlock()
	rs.mu.Lock()
	enc, err := rs.gzippedLocked()
	rs.mu.Unlock()
	if err != nil {
		return nil, fmt.Errorf("cloud: no submissions for road %s", roadID)
	}
	return enc, nil
}

// copyProfile deep-copies a cached snapshot so callers cannot corrupt it.
func copyProfile(p *fusion.Profile) *fusion.Profile {
	return &fusion.Profile{
		SpacingM: p.SpacingM,
		S:        append([]float64(nil), p.S...),
		GradeRad: append([]float64(nil), p.GradeRad...),
		Var:      append([]float64(nil), p.Var...),
	}
}

// Roads lists known roads sorted by id.
func (s *Server) Roads() []RoadStatus {
	var out []RoadStatus
	for i := range s.shards {
		sh := &s.shards[i]
		sh.mu.RLock()
		for id, rs := range sh.roads {
			rs.mu.RLock()
			n := rs.acc.Len()
			rs.mu.RUnlock()
			if n == 0 {
				continue
			}
			out = append(out, RoadStatus{RoadID: id, Submissions: n})
		}
		sh.mu.RUnlock()
	}
	sort.Slice(out, func(i, j int) bool { return out[i].RoadID < out[j].RoadID })
	return out
}

// Handler returns the HTTP API: every route is instrumented (request
// counters, latency histograms, access logs when Logger is set) and wrapped
// with X-Request-Id propagation.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.Handle("POST /v1/roads/{id}/profiles", s.instrument(routeSubmit, s.handleSubmit))
	mux.Handle("POST /v1/submit-batch", s.instrument(routeBatch, s.handleSubmitBatch))
	mux.Handle("GET /v1/roads/{id}/profile", s.instrument(routeFused, s.handleFused))
	mux.Handle("GET /v1/roads", s.instrument(routeList, s.handleList))
	mux.Handle("GET /v1/route", s.instrument(routeRoute, s.handleRoute))
	mux.Handle("GET /v1/emissions", s.instrument(routeEmis, s.handleEmissions))
	mux.Handle("GET /v1/devices/{id}", s.instrument(routeDevice, s.handleDevice))
	mux.Handle("GET /v1/debug/traces", s.instrument(routeTraces, s.handleTraces))
	return RequestID(mux)
}

// maxSubmitBodyBytes caps a submission request body; profiles are ~30 bytes
// per 5 m cell, so 4 MiB covers hundreds of kilometers.
const maxSubmitBodyBytes = 4 << 20

// Submit-path pools: the body buffer and the decode target are recycled
// across requests, so a sustained upload stream re-uses its allocations
// (json.Unmarshal grows slices in place, keeping their capacity for the next
// request) instead of churning the GC under load.
var (
	bodyBufPool = sync.Pool{New: func() any { return new(bytes.Buffer) }}
	dtoPool     = sync.Pool{New: func() any { return new(ProfileDTO) }}
)

func (s *Server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	buf, err := readBody(w, r, maxSubmitBodyBytes)
	if err != nil {
		code := http.StatusBadRequest
		var tooLarge *http.MaxBytesError
		if errors.As(err, &tooLarge) {
			code = http.StatusRequestEntityTooLarge
		} else if errors.Is(err, errUnsupportedEncoding) {
			code = http.StatusUnsupportedMediaType
		}
		httpError(w, code, fmt.Errorf("decoding profile: %w", err))
		return
	}
	defer bodyBufPool.Put(buf)
	dto := dtoPool.Get().(*ProfileDTO)
	// Reset before decoding: json.Unmarshal leaves absent fields untouched,
	// and a stale value from the previous request must read as absent.
	dto.SpacingM = 0
	dto.GradeRad = dto.GradeRad[:0]
	dto.Var = dto.Var[:0]
	defer dtoPool.Put(dto)
	if err := json.Unmarshal(buf.Bytes(), dto); err != nil {
		httpError(w, http.StatusBadRequest, fmt.Errorf("decoding profile: %w", err))
		return
	}
	p, err := dto.toProfile() // copies the slices; the DTO can be pooled
	if err != nil {
		httpError(w, http.StatusBadRequest, err)
		return
	}
	device := r.Header.Get("X-Device-Id")
	if err := validDeviceID(device); err != nil {
		httpError(w, http.StatusBadRequest, err)
		return
	}
	dup, err := s.SubmitIdempotentDevice(id, r.Header.Get("Idempotency-Key"), device, p)
	if err != nil {
		httpError(w, http.StatusConflict, err)
		return
	}
	if dup {
		markDuplicate(w)
	}
	w.WriteHeader(http.StatusAccepted)
}

func (s *Server) handleFused(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	w.Header().Set("Vary", "Accept-Encoding")
	if acceptsGzip(r) {
		enc, err := s.fusedJSONGzip(id)
		if err != nil {
			httpError(w, http.StatusNotFound, err)
			return
		}
		w.Header().Set("Content-Type", "application/json")
		w.Header().Set("Content-Encoding", "gzip")
		_, _ = w.Write(enc)
		return
	}
	enc, err := s.fusedJSON(id)
	if err != nil {
		httpError(w, http.StatusNotFound, err)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	_, _ = w.Write(enc)
}

func (s *Server) handleList(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, s.Roads())
}

func writeJSON(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json")
	if err := json.NewEncoder(w).Encode(v); err != nil {
		// Headers already sent; nothing more to do.
		return
	}
}

type errorBody struct {
	Error string `json:"error"`
}

func httpError(w http.ResponseWriter, code int, err error) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	_ = json.NewEncoder(w).Encode(errorBody{Error: err.Error()})
}
