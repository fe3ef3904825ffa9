package experiment

import (
	"strings"
	"testing"
)

// TestRouteScale checks the scale sweep's invariants on the quick workload:
// one row per scale, and the post-tick column must prove the
// re-customization was incremental (a/b with a < b).
func TestRouteScale(t *testing.T) {
	tb, err := RouteScale(quickOpt)
	if err != nil {
		t.Fatalf("RouteScale: %v", err)
	}
	if len(tb.Rows) != 1 {
		t.Fatalf("quick run produced %d rows, want 1", len(tb.Rows))
	}
	arcs := tb.Rows[0][7]
	frac := strings.Split(arcs, "/")
	if len(frac) != 2 || frac[0] == frac[1] {
		t.Fatalf("tick was not incremental: arcs recomputed = %q", arcs)
	}
}
