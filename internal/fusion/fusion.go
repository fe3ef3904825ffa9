// Package fusion implements the track fusion stage of §III-C3: the basic
// convex combination algorithm of Eq. (6), applied per road position across
// gradient tracks from different velocity sources, and again at the cloud
// level across vehicles.
package fusion

import (
	"errors"
	"fmt"
	"math"
	"time"

	"roadgrade/internal/core"
	"roadgrade/internal/obs"
	"roadgrade/internal/sensors"
)

// Fusion instrumentation: how many tracks survived to be fused, how many
// were quarantined (broken down by the CheckTrack verdict category), and how
// long a fuse takes. Quarantine counters are pre-created per category so the
// fuse path never builds label strings. Every batch FuseProfiles call is
// counted, so a serving deployment can verify that fused reads come from the
// incremental accumulator (the counter must stay flat while reads flow).
var (
	obsFuseSeconds  = obs.Default.Histogram("fusion_fuse_seconds", obs.LatencyBuckets)
	obsFusedTracks  = obs.Default.Counter("fusion_tracks_fused_total")
	obsProfileFuses = obs.Default.Counter("fusion_profile_batch_fuses_total")

	obsQuarantined = map[string]*obs.Counter{
		reasonEmpty:       obs.Default.Counter("fusion_tracks_quarantined_total", obs.L("reason", reasonEmpty)),
		reasonLayout:      obs.Default.Counter("fusion_tracks_quarantined_total", obs.L("reason", reasonLayout)),
		reasonNonFinite:   obs.Default.Counter("fusion_tracks_quarantined_total", obs.L("reason", reasonNonFinite)),
		reasonVariance:    obs.Default.Counter("fusion_tracks_quarantined_total", obs.L("reason", reasonVariance)),
		reasonImplausible: obs.Default.Counter("fusion_tracks_quarantined_total", obs.L("reason", reasonImplausible)),
	}
)

// Quarantine verdict categories (the reason label of
// fusion_tracks_quarantined_total).
const (
	reasonEmpty       = "empty"
	reasonLayout      = "layout"
	reasonNonFinite   = "non_finite"
	reasonVariance    = "bad_variance"
	reasonImplausible = "implausible_grade"
)

// Profile is a fused road-gradient profile on a regular arc-length grid.
type Profile struct {
	// SpacingM is the grid spacing.
	SpacingM float64
	// S are the grid positions, GradeRad the fused θ̄, Var the fused
	// variance U of Eq. (6b).
	S        []float64
	GradeRad []float64
	Var      []float64
}

// Len returns the number of grid points.
func (p *Profile) Len() int { return len(p.S) }

// GradeAt returns the fused gradient at arc length s (nearest grid point).
func (p *Profile) GradeAt(s float64) float64 {
	if len(p.S) == 0 {
		return 0
	}
	idx := int(math.Round(s / p.SpacingM))
	if idx < 0 {
		idx = 0
	}
	if idx >= len(p.S) {
		idx = len(p.S) - 1
	}
	return p.GradeRad[idx]
}

// gridded is one track resampled onto the fusion grid.
type gridded struct {
	grade []float64
	vari  []float64
	valid []bool
}

// resample averages a track's samples into grid cells.
func resample(t *core.Track, spacing float64, cells int) gridded {
	g := gridded{
		grade: make([]float64, cells),
		vari:  make([]float64, cells),
		valid: make([]bool, cells),
	}
	counts := make([]int, cells)
	for i := range t.S {
		idx := int(math.Round(t.S[i] / spacing))
		if idx < 0 || idx >= cells {
			continue
		}
		g.grade[idx] += t.GradeRad[i]
		g.vari[idx] += t.Var[i]
		counts[idx]++
	}
	for i, c := range counts {
		if c == 0 {
			continue
		}
		g.grade[i] /= float64(c)
		g.vari[i] /= float64(c)
		g.valid[i] = true
	}
	// Fill small gaps by carrying the previous cell forward so sparse
	// sources (e.g. a slow track) still contribute.
	for i := 1; i < cells; i++ {
		if !g.valid[i] && g.valid[i-1] {
			g.grade[i] = g.grade[i-1]
			g.vari[i] = g.vari[i-1] * 1.5 // inflate carried-forward variance
			g.valid[i] = true
		}
	}
	return g
}

// maxPlausibleGradeRad bounds a believable road grade estimate (≈34°);
// tracks spending a real fraction of their samples beyond it are degenerate.
const maxPlausibleGradeRad = 0.6

// TrackReport is the health verdict for one input track of a fusion call.
type TrackReport struct {
	Index       int
	Source      sensors.VelocitySource
	Quarantined bool
	Reason      string
}

// CheckTrack returns nil for a healthy track, or the reason it must be
// quarantined: empty or inconsistent layout, non-finite samples, non-positive
// variance, or an implausible grade profile.
func CheckTrack(t *core.Track) error {
	_, err := checkTrackReason(t)
	return err
}

// checkTrackReason is CheckTrack plus the coarse verdict category used as the
// quarantine metric's reason label.
func checkTrackReason(t *core.Track) (string, error) {
	if t == nil || t.Len() == 0 {
		return reasonEmpty, errors.New("empty track")
	}
	n := t.Len()
	if len(t.S) != n || len(t.GradeRad) != n || len(t.Var) != n {
		return reasonLayout, fmt.Errorf("inconsistent lengths T=%d S=%d grade=%d var=%d",
			n, len(t.S), len(t.GradeRad), len(t.Var))
	}
	implausible := 0
	for i := 0; i < n; i++ {
		if !finite(t.S[i]) || !finite(t.GradeRad[i]) || !finite(t.Var[i]) {
			return reasonNonFinite, fmt.Errorf("non-finite sample at %d", i)
		}
		if t.Var[i] <= 0 {
			return reasonVariance, fmt.Errorf("non-positive variance %v at %d", t.Var[i], i)
		}
		if math.Abs(t.GradeRad[i]) > maxPlausibleGradeRad {
			implausible++
		}
	}
	if frac := float64(implausible) / float64(n); frac > 0.02 {
		return reasonImplausible, fmt.Errorf("implausible grade (|θ| > %.2f rad) on %.0f%% of samples",
			maxPlausibleGradeRad, frac*100)
	}
	return "", nil
}

func finite(x float64) bool { return !math.IsNaN(x) && !math.IsInf(x, 0) }

// FuseTracks combines gradient tracks with the basic convex combination of
// Eq. (6):
//
//	θ̄ = U Σ_k P_k⁻¹ θ_k,   U = (Σ_k P_k⁻¹)⁻¹
//
// evaluated per grid cell of the given spacing over [0, lengthM].
//
// P_k is the k-th track's estimation error covariance. The filter-reported
// variance understates the error of tracks with model mismatch (e.g. lag on
// sparse GPS updates), so before combining, each track's variance is
// calibrated against the cross-track consensus: two rounds of estimating the
// consensus profile and rescaling each track's P_k to its empirical deviation
// variance. This keeps the Eq. (6) form while making the weights reflect
// realized track quality.
//
// Degenerate tracks (NaN samples, zero variance, implausible grades — see
// CheckTrack) are quarantined rather than fused, so one corrupted velocity
// source degrades the result to the surviving tracks instead of poisoning the
// consensus; FuseTracksReport exposes the verdicts. Fusing fails only when no
// healthy track remains.
func FuseTracks(tracks []*core.Track, spacingM, lengthM float64) (*Profile, error) {
	prof, _, err := FuseTracksReport(tracks, spacingM, lengthM)
	return prof, err
}

// FuseTracksReport is FuseTracks returning the per-track health verdicts
// alongside the fused profile.
func FuseTracksReport(tracks []*core.Track, spacingM, lengthM float64) (*Profile, []TrackReport, error) {
	sp := obs.DefaultTracer.Start("fusion.fuse_tracks", "fusion")
	defer sp.End()
	start := time.Now()
	if len(tracks) == 0 {
		return nil, nil, errors.New("fusion: no tracks")
	}
	if spacingM <= 0 {
		return nil, nil, fmt.Errorf("fusion: invalid spacing %v", spacingM)
	}
	if lengthM <= 0 {
		return nil, nil, fmt.Errorf("fusion: invalid length %v", lengthM)
	}
	reports := make([]TrackReport, len(tracks))
	var healthy []*core.Track
	for i, t := range tracks {
		reports[i] = TrackReport{Index: i}
		if t != nil {
			reports[i].Source = t.Source
		}
		if category, err := checkTrackReason(t); err != nil {
			reports[i].Quarantined = true
			reports[i].Reason = err.Error()
			obsQuarantined[category].Inc()
			continue
		}
		healthy = append(healthy, t)
	}
	obsFusedTracks.Add(uint64(len(healthy)))
	if len(healthy) == 0 {
		return nil, reports, fmt.Errorf("fusion: no healthy tracks (%d quarantined, e.g. track %d: %s)",
			len(tracks), reports[0].Index, reports[0].Reason)
	}
	cells := int(lengthM/spacingM) + 1
	gs := make([]gridded, len(healthy))
	for i, t := range healthy {
		gs[i] = resample(t, spacingM, cells)
	}
	calibrateVariances(gs, cells)
	prof := &Profile{
		SpacingM: spacingM,
		S:        make([]float64, cells),
		GradeRad: make([]float64, cells),
		Var:      make([]float64, cells),
	}
	for c := 0; c < cells; c++ {
		prof.S[c] = float64(c) * spacingM
		var sumInv, sumWeighted float64
		for _, g := range gs {
			if !g.valid[c] || g.vari[c] <= 0 {
				continue
			}
			inv := 1 / g.vari[c]
			sumInv += inv
			sumWeighted += inv * g.grade[c]
		}
		if sumInv == 0 {
			// No track covers this cell; carry forward.
			if c > 0 {
				prof.GradeRad[c] = prof.GradeRad[c-1]
				prof.Var[c] = prof.Var[c-1]
			}
			continue
		}
		u := 1 / sumInv // Eq. (6b)
		prof.GradeRad[c] = u * sumWeighted
		prof.Var[c] = u
	}
	obsFuseSeconds.Observe(time.Since(start).Seconds())
	return prof, reports, nil
}

// calibrateVariances rescales each gridded track's variance to its empirical
// deviation variance around the current consensus, iterating twice so the
// consensus itself improves once bad tracks are down-weighted. With a single
// track there is no cross information and the variances are left untouched.
func calibrateVariances(gs []gridded, cells int) {
	if len(gs) < 2 {
		return
	}
	const iterations = 2
	for iter := 0; iter < iterations; iter++ {
		// Consensus per cell under current weights.
		consensus := make([]float64, cells)
		ok := make([]bool, cells)
		for c := 0; c < cells; c++ {
			var sumInv, sumW float64
			for _, g := range gs {
				if !g.valid[c] || g.vari[c] <= 0 {
					continue
				}
				inv := 1 / g.vari[c]
				sumInv += inv
				sumW += inv * g.grade[c]
			}
			if sumInv > 0 {
				consensus[c] = sumW / sumInv
				ok[c] = true
			}
		}
		// Empirical deviation variance per track, then rescale.
		for i := range gs {
			var sum float64
			var n int
			for c := 0; c < cells; c++ {
				if !ok[c] || !gs[i].valid[c] {
					continue
				}
				d := gs[i].grade[c] - consensus[c]
				sum += d * d
				n++
			}
			if n < 10 {
				continue
			}
			emp := sum / float64(n)
			var meanVar float64
			for c := 0; c < cells; c++ {
				if gs[i].valid[c] {
					meanVar += gs[i].vari[c]
				}
			}
			meanVar /= float64(n)
			if meanVar <= 0 || emp <= 0 {
				continue
			}
			// Never deflate below the filter's own assessment: the
			// consensus deviation underestimates the error of the best
			// track (it dominates the consensus).
			scale := math.Max(1, emp/meanVar)
			for c := 0; c < cells; c++ {
				gs[i].vari[c] *= scale
			}
		}
	}
}

// FuseProfiles combines already-fused profiles from multiple vehicles (the
// cloud stage: "the cloud can use the track fusion algorithm to fuse road
// gradient results from different vehicles"). All profiles must share the
// grid spacing; the result covers the longest profile.
func FuseProfiles(profiles []*Profile) (*Profile, error) {
	obsProfileFuses.Inc()
	if len(profiles) == 0 {
		return nil, errors.New("fusion: no profiles")
	}
	spacing := profiles[0].SpacingM
	cells := 0
	for i, p := range profiles {
		if p == nil || p.Len() == 0 {
			return nil, fmt.Errorf("fusion: profile %d is empty", i)
		}
		if math.Abs(p.SpacingM-spacing) > 1e-9 {
			return nil, fmt.Errorf("fusion: profile %d spacing %v != %v", i, p.SpacingM, spacing)
		}
		if p.Len() > cells {
			cells = p.Len()
		}
	}
	out := &Profile{
		SpacingM: spacing,
		S:        make([]float64, cells),
		GradeRad: make([]float64, cells),
		Var:      make([]float64, cells),
	}
	for c := 0; c < cells; c++ {
		out.S[c] = float64(c) * spacing
		var sumInv, sumWeighted float64
		for _, p := range profiles {
			if c >= p.Len() || p.Var[c] <= 0 {
				continue
			}
			inv := 1 / p.Var[c]
			sumInv += inv
			sumWeighted += inv * p.GradeRad[c]
		}
		if sumInv == 0 {
			if c > 0 {
				out.GradeRad[c] = out.GradeRad[c-1]
				out.Var[c] = out.Var[c-1]
			}
			continue
		}
		u := 1 / sumInv
		out.GradeRad[c] = u * sumWeighted
		out.Var[c] = u
	}
	return out, nil
}
