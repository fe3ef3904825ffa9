package cloud

// The per-device trust table. Submissions may carry a device id (the
// X-Device-Id header on single submits, the device field of batch items);
// the server keeps one fusion.DeviceState per id — reputation, learned bias,
// down-weight counters — consulted and updated on every fold of that
// device's submissions and served on GET /v1/devices/{id}.
//
// The table is sharded like the road store (FNV-1a of the device id over the
// same power-of-two shard count) so device lookups never contend on a global
// lock. Each entry has a tiny mutex of its own: folds hold road lock →
// device lock (device code never takes a road lock, so the hierarchy is
// acyclic), which serializes a device's state updates across roads while two
// different devices folding into the same road only serialize on the road.
//
// Determinism note: every submission lands through one fold, which adds a
// pass's items in arrival order, so within a shard the fold sequence is the
// arrival sequence whether items fold one per pass (inline) or many (the
// coalescer). For a fixed arrival sequence per shard, every road's fused
// map and every device's trust state are therefore bit-reproducible, even
// when a device interleaves submissions across roads of that shard
// (TestFoldArrivalOrder). Across shards there is no single order: a device
// whose roads hash to different shards, folded by different workers, may
// have its updates ordered differently between runs.

import (
	"errors"
	"fmt"
	"net/http"
	"sort"
	"sync"

	"roadgrade/internal/fusion"
	"roadgrade/internal/obs"
)

// Device-table instrumentation: the reputation histogram is observed once
// per device-attributed fold, so it is the submission-weighted reputation
// distribution of the fleet; the created counter sizes the table.
var (
	obsDeviceReputation = obs.Default.Histogram("cloud_device_reputation",
		[]float64{0.02, 0.05, 0.1, 0.2, 0.3, 0.5, 0.7, 0.85, 0.95, 1.0})
	obsDevicesCreated = obs.Default.Counter("cloud_device_states_created_total")
)

// maxDeviceIDLen bounds a device id so a hostile submitter cannot make the
// table allocate unbounded strings.
const maxDeviceIDLen = 128

// deviceShard is 1/N of the device-state table.
type deviceShard struct {
	mu      sync.RWMutex
	devices map[string]*deviceEntry
}

// deviceEntry is one device's trust state plus its lock (see the package
// comment above for the lock order).
type deviceEntry struct {
	mu sync.Mutex
	st fusion.DeviceState
}

// validDeviceID reports whether a submitted device id is acceptable.
func validDeviceID(id string) error {
	if len(id) > maxDeviceIDLen {
		return fmt.Errorf("cloud: device id too long (%d bytes, max %d)", len(id), maxDeviceIDLen)
	}
	return nil
}

// deviceFor returns the device's entry, creating it (fully trusted) on first
// sight. id must be non-empty.
func (s *Server) deviceFor(id string) *deviceEntry {
	sh := &s.devShards[fnv1a(id)&s.shardMask]
	sh.mu.RLock()
	de := sh.devices[id]
	sh.mu.RUnlock()
	if de != nil {
		return de
	}
	sh.mu.Lock()
	defer sh.mu.Unlock()
	if de = sh.devices[id]; de == nil {
		de = &deviceEntry{st: *fusion.NewDeviceState()}
		sh.devices[id] = de
		obsDevicesCreated.Inc()
	}
	return de
}

// DeviceState returns a snapshot of a device's trust state, and whether the
// device has ever been seen.
func (s *Server) DeviceState(id string) (fusion.DeviceState, bool) {
	if id == "" {
		return fusion.DeviceState{}, false
	}
	sh := &s.devShards[fnv1a(id)&s.shardMask]
	sh.mu.RLock()
	de := sh.devices[id]
	sh.mu.RUnlock()
	if de == nil {
		return fusion.DeviceState{}, false
	}
	de.mu.Lock()
	st := de.st
	de.mu.Unlock()
	return st, true
}

// ReputationQuantiles returns the p10/p50/p90 of the fleet's current device
// reputations — the /healthz summary of how much of the fleet the robust
// fusion trusts. An empty table reads as (1, 1, 1): unseen devices start
// fully trusted.
func (s *Server) ReputationQuantiles() (p10, p50, p90 float64) {
	var reps []float64
	for i := range s.devShards {
		sh := &s.devShards[i]
		sh.mu.RLock()
		for _, de := range sh.devices {
			de.mu.Lock()
			reps = append(reps, de.st.Reputation)
			de.mu.Unlock()
		}
		sh.mu.RUnlock()
	}
	if len(reps) == 0 {
		return 1, 1, 1
	}
	sort.Float64s(reps)
	q := func(f float64) float64 {
		return reps[int(f*float64(len(reps)-1)+0.5)]
	}
	return q(0.10), q(0.50), q(0.90)
}

// Devices returns the number of known devices.
func (s *Server) Devices() int {
	n := 0
	for i := range s.devShards {
		sh := &s.devShards[i]
		sh.mu.RLock()
		n += len(sh.devices)
		sh.mu.RUnlock()
	}
	return n
}

// DeviceStateDTO is the wire form of GET /v1/devices/{id}.
type DeviceStateDTO struct {
	DeviceID      string  `json:"device_id"`
	Reputation    float64 `json:"reputation"`
	BiasRad       float64 `json:"bias_rad"`
	Submissions   uint64  `json:"submissions"`
	Downweighted  uint64  `json:"downweighted"`
	LastAgreement float64 `json:"last_agreement"`
}

// handleDevice serves one device's trust state.
func (s *Server) handleDevice(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	if err := validDeviceID(id); err != nil {
		httpError(w, http.StatusBadRequest, err)
		return
	}
	st, ok := s.DeviceState(id)
	if !ok {
		httpError(w, http.StatusNotFound, errors.New("cloud: unknown device"))
		return
	}
	writeJSON(w, DeviceStateDTO{
		DeviceID:      id,
		Reputation:    st.Reputation,
		BiasRad:       st.BiasRad,
		Submissions:   st.Submissions,
		Downweighted:  st.Downweighted,
		LastAgreement: st.LastAgreement,
	})
}
