package obs

import (
	"fmt"
	"math"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// The SLO engine tracks declarative per-route objectives with multi-window
// burn rates, the standard SRE construction: the burn rate over a window is
// the observed bad-request fraction divided by the budgeted bad fraction
// (1 - target), so burn 1.0 consumes exactly the error budget, and a
// fast-burn alert requires BOTH the short (5m) and long (1h) windows to
// burn hot — the short window proves the problem is still happening, the
// long window proves it is big enough to matter and debounces blips.
//
// Counters are fed directly by the serving middleware (Record), not scraped
// from the registry: one atomic add per request per matching objective.
// Every read (Report, and each scrape-time gauge) first snapshots its
// objective's cumulative counters, and so does Tick for all of them; window
// burn rates diff the live counters against the newest snapshot at least
// window-old (partial windows fall back to the oldest snapshot, so a freshly
// started engine behaves like a short window until history accumulates).
// Snapshots are as dense as the reads, up to one a second, so a process
// that is polled reads its trailing windows, not its burn since start, and
// however tight the poll the history holds at most the prune horizon's
// seconds.

// SLOKind discriminates objective types.
type SLOKind string

const (
	// SLOAvailability counts a request good unless it failed (5xx).
	SLOAvailability SLOKind = "availability"
	// SLOLatency counts a request good if it succeeded within ThresholdS.
	SLOLatency SLOKind = "latency"
)

// Objective is one declarative service-level objective on a route.
type Objective struct {
	// Name labels gauges and reports (e.g. "submit_batch-availability").
	Name string
	// Route matches the serving middleware's route tag.
	Route string
	Kind  SLOKind
	// Target is the good fraction objective in (0, 1), e.g. 0.999.
	Target float64
	// ThresholdS is the latency bar in seconds (SLOLatency only).
	ThresholdS float64
}

// Validate reports whether the objective is well-formed.
func (o Objective) Validate() error {
	if o.Name == "" || o.Route == "" {
		return fmt.Errorf("obs: objective needs name and route")
	}
	if !(o.Target > 0 && o.Target < 1) {
		return fmt.Errorf("obs: objective %s: target %v outside (0,1)", o.Name, o.Target)
	}
	switch o.Kind {
	case SLOAvailability:
	case SLOLatency:
		if !(o.ThresholdS > 0) {
			return fmt.Errorf("obs: objective %s: latency threshold %v must be > 0", o.Name, o.ThresholdS)
		}
	default:
		return fmt.Errorf("obs: objective %s: unknown kind %q", o.Name, o.Kind)
	}
	return nil
}

// Burn-rate thresholds (multiples of budget-neutral consumption).
const (
	FastBurn = 14.4 // 2% of a 30-day budget in 1h; page-worthy
	SlowBurn = 6.0  // 5% of a 30-day budget in 6h; degraded
)

// The burn-rate windows, and the history's resolution: a snapshot taken in
// the same second as the newest one replaces it.
const (
	sloShortWindow = 5 * time.Minute
	sloLongWindow  = time.Hour
	sloSampleEvery = time.Second
)

// SLOConfig configures an engine.
type SLOConfig struct {
	Objectives []Objective
	Now        func() time.Time // injectable for tests
}

type sloSample struct {
	t           time.Time
	good, total uint64
}

type sloTracker struct {
	obj         Objective
	good, total atomic.Uint64

	mu      sync.Mutex
	samples []sloSample
}

// SLOEngine evaluates a set of objectives against request outcomes.
type SLOEngine struct {
	now func() time.Time

	objs    []*sloTracker
	byRoute map[string][]*sloTracker
}

// NewSLOEngine builds an engine. Invalid objectives error out up front.
func NewSLOEngine(cfg SLOConfig) (*SLOEngine, error) {
	e := &SLOEngine{
		now:     cfg.Now,
		byRoute: make(map[string][]*sloTracker),
	}
	if e.now == nil {
		e.now = time.Now
	}
	if len(cfg.Objectives) == 0 {
		return nil, fmt.Errorf("obs: no objectives")
	}
	start := e.now()
	seen := make(map[string]bool)
	for _, o := range cfg.Objectives {
		if err := o.Validate(); err != nil {
			return nil, err
		}
		if seen[o.Name] {
			return nil, fmt.Errorf("obs: duplicate objective name %q", o.Name)
		}
		seen[o.Name] = true
		tr := &sloTracker{obj: o}
		// A zero baseline sample makes partial windows well-defined from the
		// first request.
		tr.samples = append(tr.samples, sloSample{t: start})
		e.objs = append(e.objs, tr)
		e.byRoute[o.Route] = append(e.byRoute[o.Route], tr)
	}
	return e, nil
}

// Record feeds one request outcome to every objective on route. It is one
// atomic add per matching objective — safe and cheap on the serving path.
func (e *SLOEngine) Record(route string, failed bool, latencyS float64) {
	for _, tr := range e.byRoute[route] {
		tr.total.Add(1)
		good := !failed
		if good && tr.obj.Kind == SLOLatency && latencyS > tr.obj.ThresholdS {
			good = false
		}
		if good {
			tr.good.Add(1)
		}
	}
}

// Tick snapshots every objective's cumulative counters for window
// arithmetic. Reads snapshot their own objective, so nothing needs to call
// it; staleness only widens the effective windows, it never loses requests.
func (e *SLOEngine) Tick() {
	now := e.now()
	for _, tr := range e.objs {
		good, total := tr.good.Load(), tr.total.Load()
		tr.mu.Lock()
		tr.addSampleLocked(sloSample{t: now, good: good, total: total})
		tr.mu.Unlock()
	}
}

// addSampleLocked appends s to tr's history, or overwrites the newest
// sample when s falls in its second (never the first sample, the diff base
// of partial windows), and prunes it, always retaining at least one sample
// older than the long window (or the oldest available) as the diff base.
// tr.mu must be held.
func (tr *sloTracker) addSampleLocked(s sloSample) {
	if n := len(tr.samples); n > 1 && s.t.Truncate(sloSampleEvery).Equal(tr.samples[n-1].t.Truncate(sloSampleEvery)) {
		tr.samples[n-1] = s
	} else {
		tr.samples = append(tr.samples, s)
	}
	keepAfter := s.t.Add(-sloLongWindow - sloShortWindow)
	i := 0
	for i < len(tr.samples)-1 && tr.samples[i+1].t.Before(keepAfter) {
		i++
	}
	if i > 0 {
		tr.samples = append(tr.samples[:0], tr.samples[i:]...)
	}
}

// burn snapshots tr's counters at now, as Tick does, and returns its burn
// rate over the trailing window ending now.
func (e *SLOEngine) burn(tr *sloTracker, window time.Duration, now time.Time) float64 {
	good, total := tr.good.Load(), tr.total.Load()
	cutoff := now.Add(-window)
	tr.mu.Lock()
	tr.addSampleLocked(sloSample{t: now, good: good, total: total})
	// The base is the newest sample at or before the cutoff, else the oldest.
	k := sort.Search(len(tr.samples)-1, func(i int) bool { return tr.samples[i+1].t.After(cutoff) })
	base := tr.samples[k]
	tr.mu.Unlock()
	dTotal := total - base.total
	if dTotal == 0 {
		return 0
	}
	dBad := dTotal - (good - base.good)
	badFrac := float64(dBad) / float64(dTotal)
	return badFrac / (1 - tr.obj.Target)
}

// ObjectiveStatus is one objective's evaluated state.
type ObjectiveStatus struct {
	Name            string  `json:"name"`
	Route           string  `json:"route"`
	Kind            string  `json:"kind"`
	Target          float64 `json:"target"`
	Good            uint64  `json:"good"`
	Total           uint64  `json:"total"`
	BurnShort       float64 `json:"burn_short"`
	BurnLong        float64 `json:"burn_long"`
	BudgetRemaining float64 `json:"budget_remaining"`
	Status          string  `json:"status"`
}

// SLOReport is the engine's full evaluated state.
type SLOReport struct {
	Status      string            `json:"status"`
	ShortWindow string            `json:"short_window"`
	LongWindow  string            `json:"long_window"`
	Objectives  []ObjectiveStatus `json:"objectives"`
}

// Report evaluates every objective. The overall Status is the worst
// objective status: "ok", "degraded" (slow burn on both windows, or budget
// exhausted), or "unhealthy" (fast burn on both windows).
func (e *SLOEngine) Report() SLOReport {
	now := e.now()
	rep := SLOReport{
		Status:      "ok",
		ShortWindow: fmtWindow(sloShortWindow),
		LongWindow:  fmtWindow(sloLongWindow),
	}
	worst := 0
	for _, tr := range e.objs {
		bs := e.burn(tr, sloShortWindow, now)
		bl := e.burn(tr, sloLongWindow, now)
		remaining := 1 - bl
		st := "ok"
		rank := 0
		switch {
		case bs >= FastBurn && bl >= FastBurn:
			st, rank = "unhealthy", 2
		case (bs >= SlowBurn && bl >= SlowBurn) || remaining <= 0:
			st, rank = "degraded", 1
		}
		if rank > worst {
			worst = rank
		}
		rep.Objectives = append(rep.Objectives, ObjectiveStatus{
			Name:            tr.obj.Name,
			Route:           tr.obj.Route,
			Kind:            string(tr.obj.Kind),
			Target:          tr.obj.Target,
			Good:            tr.good.Load(),
			Total:           tr.total.Load(),
			BurnShort:       round4(bs),
			BurnLong:        round4(bl),
			BudgetRemaining: round4(remaining),
			Status:          st,
		})
	}
	switch worst {
	case 2:
		rep.Status = "unhealthy"
	case 1:
		rep.Status = "degraded"
	}
	return rep
}

// RegisterGauges exposes slo_error_budget_remaining{slo=} and
// slo_burn_rate{slo=,window=} gauges on r, evaluated at scrape time; each
// evaluation snapshots its objective's counters first (see burn).
func (e *SLOEngine) RegisterGauges(r *Registry) {
	r.SetHelp("slo_error_budget_remaining", "Fraction of the long-window error budget not yet consumed (1 = untouched, <=0 = exhausted).")
	r.SetHelp("slo_burn_rate", "Error budget burn rate over the trailing window (1 = budget-neutral).")
	short, long := fmtWindow(sloShortWindow), fmtWindow(sloLongWindow)
	for _, tr := range e.objs {
		tr := tr
		r.GaugeFunc("slo_error_budget_remaining", func() float64 {
			return 1 - e.burn(tr, sloLongWindow, e.now())
		}, L("slo", tr.obj.Name))
		r.GaugeFunc("slo_burn_rate", func() float64 {
			return e.burn(tr, sloShortWindow, e.now())
		}, L("slo", tr.obj.Name), L("window", short))
		r.GaugeFunc("slo_burn_rate", func() float64 {
			return e.burn(tr, sloLongWindow, e.now())
		}, L("slo", tr.obj.Name), L("window", long))
	}
}

// fmtWindow renders a duration compactly ("5m", "1h", "90s").
func fmtWindow(d time.Duration) string {
	switch {
	case d >= time.Hour && d%time.Hour == 0:
		return fmt.Sprintf("%dh", d/time.Hour)
	case d >= time.Minute && d%time.Minute == 0:
		return fmt.Sprintf("%dm", d/time.Minute)
	default:
		return fmt.Sprintf("%gs", d.Seconds())
	}
}

func round4(v float64) float64 {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		return v
	}
	return math.Round(v*1e4) / 1e4
}
