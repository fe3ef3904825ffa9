package cloud

import (
	"bytes"
	"compress/gzip"
	"encoding/json"
	"fmt"
	"sync"

	"roadgrade/internal/fusion"
	"roadgrade/internal/obs"
)

// Serving-cache instrumentation: hits mean a GET was answered from the
// generation-stamped cache (snapshot struct or pre-encoded bytes); misses
// mean submissions landed since the last read and the cache was rebuilt.
var (
	obsSnapHits  = obs.Default.Counter("cloud_fused_cache_hits_total", obs.L("cache", "snapshot"))
	obsSnapMiss  = obs.Default.Counter("cloud_fused_cache_misses_total", obs.L("cache", "snapshot"))
	obsEncHits   = obs.Default.Counter("cloud_fused_cache_hits_total", obs.L("cache", "encoded"))
	obsEncMiss   = obs.Default.Counter("cloud_fused_cache_misses_total", obs.L("cache", "encoded"))
	obsEncGzHits = obs.Default.Counter("cloud_fused_cache_hits_total", obs.L("cache", "encoded_gzip"))
	obsEncGzMiss = obs.Default.Counter("cloud_fused_cache_misses_total", obs.L("cache", "encoded_gzip"))
	obsShardLoad = obs.Default.Counter("cloud_road_states_created_total")
)

// fnv1aOffset and fnv1aPrime are the 32-bit FNV-1a parameters.
const (
	fnv1aOffset = 2166136261
	fnv1aPrime  = 16777619
)

// fnv1a hashes a road id without allocating (hash/fnv would force the id
// through an io.Writer interface and a heap-allocated digest).
func fnv1a(s string) uint32 {
	h := uint32(fnv1aOffset)
	for i := 0; i < len(s); i++ {
		h ^= uint32(s[i])
		h *= fnv1aPrime
	}
	return h
}

// shard is 1/N of the server's state. Roads hash onto shards by FNV-1a of the
// road id, so readers and writers of different roads contend only when they
// collide on a shard — never on a global lock. The shard's own lock guards
// the road map and the per-shard idempotency ring; each road's mutable state
// has a finer lock of its own, so a slow fuse of one road does not block the
// shard.
type shard struct {
	mu    sync.RWMutex
	roads map[string]*roadState
	dedup *keyRing
}

// roadState is one road's submissions plus its serving caches. gen counts
// accepted submissions; the fused snapshot and its wire encoding are stamped
// with the generation they were built at, so a read needs work only when a
// submission landed since the previous read — repeated GETs of an unchanged
// road are a lock, a counter compare, and a buffer write.
type roadState struct {
	mu  sync.RWMutex
	acc *fusion.RobustAccumulator
	gen uint64 // bumped on every accepted submission

	snapGen uint64
	snap    *fusion.Profile // cached fused profile; immutable once published

	encGen uint64
	enc    []byte // cached JSON response body (snapshot + trailing newline)

	encGzGen uint64
	encGz    []byte // cached gzip of enc, for Accept-Encoding: gzip readers
}

// addLocked validates spacing and folds one submission into the road's
// accumulator, consulting and updating the submitting device's trust state
// when one is attached (de may be nil: anonymous submission). rs.mu must be
// held for writing; the device entry's own lock is taken here — the lock
// order is road lock → device lock, and device code never takes a road lock,
// so the hierarchy is acyclic. Its one caller, Server.fold, bumps the road's
// generation per accepted item and the server-wide counter once per pass.
// The returned report carries the fold's robustness counts
// (downweighted/trimmed/clamped cells, post-fold reputation) for span
// annotation; it is zero on error. An error does not name the road: fold
// prefixes it.
func (rs *roadState) addLocked(p *fusion.Profile, de *deviceEntry) (fusion.FoldReport, error) {
	if rs.acc.Len() > 0 && rs.acc.Spacing() != p.SpacingM {
		return fusion.FoldReport{}, fmt.Errorf("expects spacing %v, got %v", rs.acc.Spacing(), p.SpacingM)
	}
	if de == nil {
		return rs.acc.AddDeviceReport(p, nil)
	}
	de.mu.Lock()
	rep, err := rs.acc.AddDeviceReport(p, &de.st)
	de.mu.Unlock()
	if err == nil {
		obsDeviceReputation.Observe(rep.Reputation)
	}
	return rep, err
}

// fusedLocked returns the current fused snapshot, rebuilding from the
// accumulator if stale. rs.mu must be held for writing.
func (rs *roadState) fusedLocked() (*fusion.Profile, error) {
	if rs.snap != nil && rs.snapGen == rs.gen {
		return rs.snap, nil
	}
	obsSnapMiss.Inc()
	snap, err := rs.acc.Fused()
	if err != nil {
		return nil, err
	}
	rs.snap, rs.snapGen = snap, rs.gen
	return snap, nil
}

// encBufPool recycles the transient buffers used to encode fused responses;
// the retained rs.enc copy is exact-size, so the pool only absorbs encoder
// churn, not cache memory.
var encBufPool = sync.Pool{New: func() any { return new(bytes.Buffer) }}

// encodedLocked returns the wire form of the fused profile, rebuilding the
// cached encoding if stale. rs.mu must be held for writing. The returned
// bytes are immutable: writers replace rs.enc, never mutate it, so concurrent
// readers can keep writing an old encoding to their sockets.
func (rs *roadState) encodedLocked() ([]byte, error) {
	if rs.enc != nil && rs.encGen == rs.gen {
		return rs.enc, nil
	}
	obsEncMiss.Inc()
	snap, err := rs.fusedLocked()
	if err != nil {
		return nil, err
	}
	buf := encBufPool.Get().(*bytes.Buffer)
	buf.Reset()
	// Encode the snapshot's slices directly (FromProfile would copy them
	// only for the encoder to read). json.Encoder matches the previous
	// wire format exactly, trailing newline included.
	dto := ProfileDTO{SpacingM: snap.SpacingM, GradeRad: snap.GradeRad, Var: snap.Var}
	if err := json.NewEncoder(buf).Encode(dto); err != nil {
		encBufPool.Put(buf)
		return nil, err
	}
	rs.enc = append([]byte(nil), buf.Bytes()...)
	rs.encGen = rs.gen
	encBufPool.Put(buf)
	return rs.enc, nil
}

// gzippedLocked returns the gzipped wire form of the fused profile,
// rebuilding the cached compression if stale. rs.mu must be held for
// writing. Like enc, the returned bytes are immutable once published.
func (rs *roadState) gzippedLocked() ([]byte, error) {
	if rs.encGz != nil && rs.encGzGen == rs.gen {
		return rs.encGz, nil
	}
	obsEncGzMiss.Inc()
	enc, err := rs.encodedLocked()
	if err != nil {
		return nil, err
	}
	buf := encBufPool.Get().(*bytes.Buffer)
	buf.Reset()
	gz := gzipWriterPool.Get().(*gzip.Writer)
	gz.Reset(buf)
	if _, err := gz.Write(enc); err != nil {
		gzipWriterPool.Put(gz)
		encBufPool.Put(buf)
		return nil, err
	}
	if err := gz.Close(); err != nil {
		gzipWriterPool.Put(gz)
		encBufPool.Put(buf)
		return nil, err
	}
	gzipWriterPool.Put(gz)
	rs.encGz = append([]byte(nil), buf.Bytes()...)
	rs.encGzGen = rs.gen
	encBufPool.Put(buf)
	return rs.encGz, nil
}

// shardFor maps a road id to its shard (shard count is a power of two).
func (s *Server) shardFor(roadID string) *shard {
	return &s.shards[fnv1a(roadID)&s.shardMask]
}

// lookup returns the road's state, or nil if the road is unknown.
func (s *Server) lookup(roadID string) *roadState {
	sh := s.shardFor(roadID)
	sh.mu.RLock()
	rs := sh.roads[roadID]
	sh.mu.RUnlock()
	return rs
}

// roadFor returns the road's state, creating it on first submission. The
// retention window is captured from MaxSubmissionsPerRoad at creation.
func (s *Server) roadFor(roadID string) *roadState {
	sh := s.shardFor(roadID)
	sh.mu.RLock()
	rs := sh.roads[roadID]
	sh.mu.RUnlock()
	if rs != nil {
		return rs
	}
	sh.mu.Lock()
	defer sh.mu.Unlock()
	if rs = sh.roads[roadID]; rs == nil {
		rs = &roadState{acc: fusion.NewRobustAccumulator(s.MaxSubmissionsPerRoad, s.Policy)}
		sh.roads[roadID] = rs
		obsShardLoad.Inc()
	}
	return rs
}
