package ecoroute

import (
	"roadgrade/internal/fusion"
	"roadgrade/internal/road"
)

// EdgeGrades is one edge's gradient data as seen when traversing the edge
// from its From node: At(s) is the grade (radians) at arc length s, Gen a
// stamp that changes whenever the underlying data changes. Stamps gate the
// cost cache — an edge whose stamp is unchanged keeps its cached cost.
type EdgeGrades struct {
	Gen uint64
	At  func(s float64) float64
}

// GradeSource supplies per-edge gradient profiles to the engine.
type GradeSource interface {
	// Generation is an O(1) counter that changes whenever any edge's grades
	// may have changed; the engine's warm path is one comparison against it.
	Generation() uint64
	// Edge returns grade data for traversing fwd from its start. rev, when
	// non-nil, is the opposite-direction road between the same junctions,
	// usable as a sign-flipped fallback when fwd itself has no data.
	Edge(fwd, rev *road.Road) EdgeGrades
}

// TruthSource reads each road's built-in ground-truth profile. Generations
// never change, so cost tables build exactly once.
type TruthSource struct{}

// Generation always reports 0: ground truth never changes.
func (TruthSource) Generation() uint64 { return 0 }

// Edge serves the road's own profile.
func (TruthSource) Edge(fwd, _ *road.Road) EdgeGrades {
	return EdgeGrades{Gen: 1, At: fwd.GradeAt}
}

// FlatSource assumes every road is flat — the "without considering road
// gradient" baseline of §IV-C, useful for quantifying what gradient
// awareness buys a route planner.
type FlatSource struct{}

// Generation always reports 0.
func (FlatSource) Generation() uint64 { return 0 }

// Edge serves a zero grade everywhere.
func (FlatSource) Edge(_, _ *road.Road) EdgeGrades {
	return EdgeGrades{Gen: 1, At: func(float64) float64 { return 0 }}
}

// changeFeed is a GradeSource that can list the roads whose grades changed
// since a generation. The engine then recosts only the edges that read
// those roads; a source without one (TruthSource, FlatSource) is rescanned
// edge by edge on every refresh.
type changeFeed interface {
	ChangedSince(gen uint64) (roadIDs []string, now uint64, ok bool)
}

// CloudStore is the slice of the cloud fusion server the engine consumes;
// *cloud.Server implements it. Returned profiles must be immutable snapshots
// (the cloud store's are: writers replace, never mutate).
type CloudStore interface {
	// StoreGeneration is a counter bumped on every accepted submission.
	StoreGeneration() uint64
	// FusedGeneration returns the road's fused profile and the road's
	// generation counter, or an error when the road has no submissions.
	FusedGeneration(roadID string) (*fusion.Profile, uint64, error)
	// ChangedSince returns the roads whose fused profiles changed after
	// store generation gen, and the generation that brings the caller up
	// to date. Every road counted in a generation StoreGeneration has
	// reported must be listed. ok is false when the store no longer holds
	// every change made after gen; the caller must then rescan every road.
	ChangedSince(gen uint64) (roadIDs []string, now uint64, ok bool)
}

// CloudSource sources grades from crowd-fused cloud profiles. A road nobody
// has driven falls back to the opposite direction's profile with the grade
// sign flipped and the arc reversed (climbing one way is descending the
// other); failing that, to Fallback (flat when nil).
type CloudSource struct {
	Store CloudStore
	// Fallback supplies grades for roads with no submissions in either
	// direction. Nil means flat (grade 0) — the honest "unknown" value.
	Fallback func(r *road.Road, s float64) float64
}

// Generation mirrors the store's global submission counter.
func (c CloudSource) Generation() uint64 { return c.Store.StoreGeneration() }

// ChangedSince forwards the store's change feed. An edge's grades read only
// its own road and its opposite-direction sibling, so the roads listed name
// every edge whose stamp can have moved.
func (c CloudSource) ChangedSince(gen uint64) ([]string, uint64, bool) {
	return c.Store.ChangedSince(gen)
}

// Edge stamps are disjoint by provenance — 3g+1 for a forward profile at
// road generation g, 3g+2 for a reverse fallback, 0 for no data — so an edge
// switching provenance (e.g. its own direction finally gets driven) always
// changes stamp and recosts.
func (c CloudSource) Edge(fwd, rev *road.Road) EdgeGrades {
	if p, gen, err := c.Store.FusedGeneration(fwd.ID()); err == nil {
		return EdgeGrades{Gen: 3*gen + 1, At: p.GradeAt}
	}
	if rev != nil {
		if p, gen, err := c.Store.FusedGeneration(rev.ID()); err == nil {
			length := rev.Length()
			return EdgeGrades{Gen: 3*gen + 2, At: func(s float64) float64 {
				return -p.GradeAt(length - s)
			}}
		}
	}
	if c.Fallback != nil {
		return EdgeGrades{Gen: 0, At: func(s float64) float64 { return c.Fallback(fwd, s) }}
	}
	return EdgeGrades{Gen: 0, At: func(float64) float64 { return 0 }}
}
