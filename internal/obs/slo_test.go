package obs

import (
	"strings"
	"testing"
	"time"
)

// sloClock is a manual clock for deterministic window arithmetic.
type sloClock struct{ t time.Time }

func (c *sloClock) now() time.Time          { return c.t }
func (c *sloClock) advance(d time.Duration) { c.t = c.t.Add(d) }

func testEngine(t *testing.T, clk *sloClock, objs ...Objective) *SLOEngine {
	t.Helper()
	e, err := NewSLOEngine(SLOConfig{Objectives: objs, Now: clk.now})
	if err != nil {
		t.Fatal(err)
	}
	return e
}

// TestSLOBurnMath: burn rate = bad fraction / budgeted bad fraction. With a
// 90% target, a 10% bad rate burns at exactly 1.0 — the whole budget, so
// the objective reports degraded with nothing left.
func TestSLOBurnMath(t *testing.T) {
	clk := &sloClock{t: time.Unix(1000, 0)}
	e := testEngine(t, clk, Objective{
		Name: "avail", Route: "submit", Kind: SLOAvailability, Target: 0.9,
	})
	for i := 0; i < 1000; i++ {
		e.Record("submit", i%10 == 0, 0)
	}
	clk.advance(time.Minute)
	rep := e.Report()
	o := rep.Objectives[0]
	if o.Good != 900 || o.Total != 1000 {
		t.Fatalf("good/total = %d/%d", o.Good, o.Total)
	}
	if o.BurnShort != 1 || o.BurnLong != 1 {
		t.Errorf("burn = %v/%v, want 1/1", o.BurnShort, o.BurnLong)
	}
	if o.BudgetRemaining != 0 {
		t.Errorf("budget remaining = %v, want 0 at burn 1", o.BudgetRemaining)
	}
	if rep.Status != "degraded" {
		// Budget fully consumed over the long window → degraded.
		t.Errorf("status = %q, want degraded", rep.Status)
	}
}

// TestSLOFastBurn: an all-errors route trips unhealthy on both windows; a
// clean route stays ok and the overall status is the worst objective.
func TestSLOFastBurn(t *testing.T) {
	clk := &sloClock{t: time.Unix(1000, 0)}
	e := testEngine(t, clk,
		Objective{Name: "bad-route", Route: "submit", Kind: SLOAvailability, Target: 0.999},
		Objective{Name: "good-route", Route: "fused", Kind: SLOAvailability, Target: 0.999},
	)
	for i := 0; i < 100; i++ {
		e.Record("submit", true, 0)
		e.Record("fused", false, 0)
	}
	clk.advance(time.Minute)
	rep := e.Report()
	if rep.Objectives[0].Status != "unhealthy" {
		t.Errorf("all-errors objective = %q", rep.Objectives[0].Status)
	}
	if rep.Objectives[1].Status != "ok" {
		t.Errorf("clean objective = %q", rep.Objectives[1].Status)
	}
	if rep.Status != "unhealthy" {
		t.Errorf("overall = %q, want unhealthy", rep.Status)
	}
}

// TestSLOWindowRecovery: after the errors stop, the short window cools off
// first — exactly why the fast-burn alert needs both windows.
func TestSLOWindowRecovery(t *testing.T) {
	clk := &sloClock{t: time.Unix(1000, 0)}
	e := testEngine(t, clk, Objective{
		Name: "avail", Route: "submit", Kind: SLOAvailability, Target: 0.99,
	})
	// Minute 0: a burst of errors, snapshotted.
	for i := 0; i < 100; i++ {
		e.Record("submit", true, 0)
	}
	e.Tick()
	if got := e.Report().Status; got != "unhealthy" {
		t.Fatalf("during burst: %q", got)
	}
	// 10 minutes of clean traffic: the 5m window contains only good
	// requests, the 1h window still sees the burst.
	for i := 0; i < 10; i++ {
		clk.advance(time.Minute)
		for j := 0; j < 100; j++ {
			e.Record("submit", false, 0)
		}
		e.Tick()
	}
	rep := e.Report()
	o := rep.Objectives[0]
	if o.BurnShort != 0 {
		t.Errorf("short burn after recovery = %v, want 0", o.BurnShort)
	}
	if o.BurnLong <= 0 {
		t.Errorf("long burn = %v, want > 0 (burst still in window)", o.BurnLong)
	}
	if rep.Status == "unhealthy" {
		t.Error("fast-burn alert still firing after recovery")
	}
}

// TestSLOLatencyKind: latency objectives count slow-but-successful requests
// as bad; fast failures are bad too.
func TestSLOLatencyKind(t *testing.T) {
	clk := &sloClock{t: time.Unix(1000, 0)}
	e := testEngine(t, clk, Objective{
		Name: "p99", Route: "fused", Kind: SLOLatency, Target: 0.99, ThresholdS: 0.001,
	})
	e.Record("fused", false, 0.0005) // good
	e.Record("fused", false, 0.1)    // slow: bad
	e.Record("fused", true, 0.0001)  // failed: bad
	o := e.Report().Objectives[0]
	if o.Good != 1 || o.Total != 3 {
		t.Errorf("good/total = %d/%d, want 1/3", o.Good, o.Total)
	}
}

// TestSLOValidation: malformed objectives are rejected at construction.
func TestSLOValidation(t *testing.T) {
	bad := []Objective{
		{Name: "", Route: "r", Kind: SLOAvailability, Target: 0.9},
		{Name: "x", Route: "r", Kind: SLOAvailability, Target: 1.0},
		{Name: "x", Route: "r", Kind: SLOAvailability, Target: 0},
		{Name: "x", Route: "r", Kind: SLOLatency, Target: 0.9},
		{Name: "x", Route: "r", Kind: "throughput", Target: 0.9},
	}
	for i, o := range bad {
		if _, err := NewSLOEngine(SLOConfig{Objectives: []Objective{o}}); err == nil {
			t.Errorf("objective %d accepted: %+v", i, o)
		}
	}
	dup := Objective{Name: "x", Route: "r", Kind: SLOAvailability, Target: 0.9}
	if _, err := NewSLOEngine(SLOConfig{Objectives: []Objective{dup, dup}}); err == nil {
		t.Error("duplicate names accepted")
	}
	if _, err := NewSLOEngine(SLOConfig{}); err == nil {
		t.Error("empty objective list accepted")
	}
}

// TestSLOGauges: the registered gauges render with slo/window labels.
func TestSLOGauges(t *testing.T) {
	clk := &sloClock{t: time.Unix(1000, 0)}
	e := testEngine(t, clk, Objective{
		Name: "avail", Route: "submit", Kind: SLOAvailability, Target: 0.999,
	})
	e.Record("submit", true, 0)
	r := NewRegistry()
	e.RegisterGauges(r)
	var sb strings.Builder
	if err := r.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{
		`slo_error_budget_remaining{slo="avail"}`,
		`slo_burn_rate{slo="avail",window="5m"}`,
		`slo_burn_rate{slo="avail",window="1h"}`,
		"# HELP slo_error_budget_remaining",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q\n%s", want, out)
		}
	}
}

// TestSLOTickPrune: long histories are pruned but a diff base older than
// the long window always survives.
func TestSLOTickPrune(t *testing.T) {
	clk := &sloClock{t: time.Unix(1000, 0)}
	e := testEngine(t, clk, Objective{
		Name: "avail", Route: "submit", Kind: SLOAvailability, Target: 0.999,
	})
	for i := 0; i < 500; i++ {
		clk.advance(time.Minute)
		e.Record("submit", false, 0)
		e.Tick()
	}
	tr := e.objs[0]
	tr.mu.Lock()
	n := len(tr.samples)
	oldest := tr.samples[0].t
	tr.mu.Unlock()
	if n > 70 { // ~65 minutes of minutely samples is the steady state
		t.Errorf("samples grew to %d", n)
	}
	if clk.t.Sub(oldest) < time.Hour {
		t.Errorf("oldest sample only %v old; need a >= 1h diff base", clk.t.Sub(oldest))
	}
}

// TestSLOScrapeSamplesWithoutTick: a process whose gauges are scraped but
// that nothing ticks still reads its trailing windows. A 99% objective takes
// an outage of 1,000 failed requests, is scraped every 15 s for two hours,
// then serves 1,000 good requests: the 5m burn gauge must read 0, not the
// burn since start (50), and the scrapes' snapshots must stay within Tick's
// prune horizon.
func TestSLOScrapeSamplesWithoutTick(t *testing.T) {
	clk := &sloClock{t: time.Unix(1000, 0)}
	e := testEngine(t, clk, Objective{
		Name: "avail", Route: "submit", Kind: SLOAvailability, Target: 0.99,
	})
	r := NewRegistry()
	e.RegisterGauges(r)
	burn5m := func() string {
		t.Helper()
		var sb strings.Builder
		if err := r.WritePrometheus(&sb); err != nil {
			t.Fatal(err)
		}
		for _, s := range checkExposition(t, sb.String()) {
			if s.name == "slo_burn_rate" && s.labels["window"] == "5m" {
				return s.value
			}
		}
		t.Fatal("no 5m burn gauge")
		return ""
	}
	for i := 0; i < 1000; i++ {
		e.Record("submit", true, 0)
	}
	const every = 15 * time.Second
	for elapsed := time.Duration(0); elapsed < 2*time.Hour; elapsed += every {
		burn5m()
		clk.advance(every)
	}
	for i := 0; i < 1000; i++ {
		e.Record("submit", false, 0)
	}
	if got := burn5m(); got != "0" {
		t.Errorf("5m burn two hours after the outage = %s, want 0", got)
	}
	tr := e.objs[0]
	tr.mu.Lock()
	samples := append([]sloSample(nil), tr.samples...)
	tr.mu.Unlock()
	horizon := clk.t.Add(-sloLongWindow - sloShortWindow)
	for _, s := range samples[1:] {
		if s.t.Before(horizon) {
			t.Fatalf("snapshot at %v kept past the prune horizon %v", s.t, horizon)
		}
	}
	// Three gauges per objective read at each scrape instant within the
	// horizon, ends included, plus one diff base before it.
	if max := 3*(int((sloLongWindow+sloShortWindow)/every)+1) + 1; len(samples) > max {
		t.Errorf("history holds %d snapshots, want at most %d", len(samples), max)
	}
}

// TestSLOHistoryBoundedByTime: a burn gauge read every 250 ms for 70
// minutes keeps at most one snapshot a second within the prune horizon,
// plus the diff base before it and the newest.
func TestSLOHistoryBoundedByTime(t *testing.T) {
	clk := &sloClock{t: time.Unix(1000, 0)}
	e := testEngine(t, clk, Objective{
		Name: "avail", Route: "submit", Kind: SLOAvailability, Target: 0.99,
	})
	tr := e.objs[0]
	for elapsed := time.Duration(0); elapsed < 70*time.Minute; elapsed += 250 * time.Millisecond {
		e.Record("submit", elapsed%time.Minute == 0, 0)
		e.burn(tr, sloShortWindow, e.now()) // what the 5m gauge reads
		clk.advance(250 * time.Millisecond)
	}
	tr.mu.Lock()
	n := len(tr.samples)
	tr.mu.Unlock()
	if max := int((sloLongWindow+sloShortWindow)/time.Second) + 2; n > max {
		t.Errorf("history holds %d snapshots, want at most %d", n, max)
	}
}
