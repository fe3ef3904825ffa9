package obs

import (
	"encoding/json"
	"net/http"
	"sort"
	"sync"
	"time"
)

// TraceStore assembles completed spans into whole traces and tail-samples
// them into a bounded ring for the debug plane (GET /v1/debug/traces).
//
// Tail sampling keeps the traces worth looking at after the fact: any trace
// carrying an `error`, `shed`, `quarantine`, or explicit `keep` annotation
// is always kept, as is any trace whose root duration lands at or above the
// running p99 (or an explicit SlowUS floor); the unremarkable rest is kept
// with the constant probability storeSampleRate (1%). Keeping the decision
// at trace completion — rather than at span start — is what lets a
// 429-then-retry trace or a p99 outlier survive a 1% sample rate.
//
// A trace completes when its root span (zero parent) ends. Traces whose
// root lives in another process (a server receiving a remote traceparent)
// complete after the constant storeIdleCutoff (2 s) without new spans. Fold
// spans recorded by the coalescer form their own single-span traces that
// link into request traces; the store indexes those links so Trace(id)
// returns the request's spans plus every fold span that folded one of its
// submissions.
type TraceStore struct {
	capacity  int
	slowUS    float64
	maxActive int
	rand      func() float64
	now       func() time.Time

	mu        sync.Mutex
	active    map[TraceID]*activeTrace
	ring      []*keptTrace
	head      int
	byID      map[TraceID]*keptTrace
	linkedBy  map[TraceID][]*keptTrace
	rootDur   *Histogram
	lastSweep time.Time
}

// The keep probability for unremarkable traces, and how long a trace whose
// root span ends in another process may go without new spans before it is
// finalized.
const (
	storeSampleRate = 0.01
	storeIdleCutoff = 2 * time.Second
)

// StoreConfig configures a TraceStore; zero fields take defaults. The 1%
// sample of unremarkable traces and the 2 s idle cutoff are constants.
type StoreConfig struct {
	// Capacity bounds the kept-trace ring (default 256).
	Capacity int
	// SlowUS, when > 0, always keeps traces whose root duration is at least
	// this many microseconds, in addition to the dynamic p99 rule.
	SlowUS float64
	// MaxActive bounds in-flight trace assembly (default 1024); beyond it
	// the most idle active trace is finalized early.
	MaxActive int
	// Rand and Now are injectable for tests.
	Rand func() float64
	Now  func() time.Time
}

type activeTrace struct {
	spans    []SpanEvent
	lastSeen time.Time
}

type keptTrace struct {
	id      TraceID
	spans   []SpanEvent
	reason  string
	root    string
	startUS float64
	durUS   float64
	links   []TraceID
}

func (kt *keptTrace) hasLink(id TraceID) bool {
	for _, l := range kt.links {
		if l == id {
			return true
		}
	}
	return false
}

// rootDurBuckets cover root-span durations in microseconds, 50µs..1s.
var rootDurBuckets = []float64{
	50, 100, 250, 500, 1000, 2500, 5000, 10000,
	25000, 50000, 100000, 250000, 500000, 1e6,
}

// Tail-sampling outcome counters, by keep reason.
var (
	obsTraceDropped = Default.Counter("trace_store_traces_total", L("decision", "dropped"))
	obsTraceKept    = map[string]*Counter{
		"error":      Default.Counter("trace_store_traces_total", L("decision", "kept_error")),
		"shed":       Default.Counter("trace_store_traces_total", L("decision", "kept_shed")),
		"quarantine": Default.Counter("trace_store_traces_total", L("decision", "kept_quarantine")),
		"keep":       Default.Counter("trace_store_traces_total", L("decision", "kept_annotated")),
		"slow":       Default.Counter("trace_store_traces_total", L("decision", "kept_slow")),
		"sampled":    Default.Counter("trace_store_traces_total", L("decision", "kept_sampled")),
	}
)

// keepKeys are the span annotation keys that force a trace to be kept.
// Order matters: the first key found anywhere in the trace names the reason.
var keepKeys = []string{"error", "quarantine", "shed", "keep"}

// NewTraceStore returns a store ready to be installed as a Tracer sink.
func NewTraceStore(cfg StoreConfig) *TraceStore {
	st := &TraceStore{
		capacity:  cfg.Capacity,
		slowUS:    cfg.SlowUS,
		maxActive: cfg.MaxActive,
		rand:      cfg.Rand,
		now:       cfg.Now,
		active:    make(map[TraceID]*activeTrace),
		byID:      make(map[TraceID]*keptTrace),
		linkedBy:  make(map[TraceID][]*keptTrace),
		rootDur:   newHistogram(rootDurBuckets),
	}
	if st.capacity <= 0 {
		st.capacity = 256
	}
	if st.maxActive <= 0 {
		st.maxActive = 1024
	}
	if st.rand == nil {
		st.rand = randFloat
	}
	if st.now == nil {
		st.now = time.Now
	}
	return st
}

// RecordSpan implements SpanSink: it files the span under its trace and
// finalizes the trace when the root span ends.
func (st *TraceStore) RecordSpan(ev SpanEvent) {
	if ev.Trace.IsZero() {
		return
	}
	now := st.now()
	st.mu.Lock()
	defer st.mu.Unlock()
	if kt, ok := st.byID[ev.Trace]; ok {
		// Late span for an already-kept trace: the root can finalize the
		// trace before every child is recorded (a server handler span ends
		// only after its response has already unblocked the client's root).
		// Merge instead of starting a phantom second trace.
		kt.spans = append(kt.spans, ev)
		for _, l := range ev.Links {
			if !kt.hasLink(l.Trace) && l.Trace != kt.id {
				kt.links = append(kt.links, l.Trace)
				st.linkedBy[l.Trace] = append(st.linkedBy[l.Trace], kt)
			}
		}
		return
	}
	at := st.active[ev.Trace]
	if at == nil {
		if len(st.active) >= st.maxActive {
			st.evictIdlestLocked()
		}
		at = &activeTrace{}
		st.active[ev.Trace] = at
	}
	at.spans = append(at.spans, ev)
	at.lastSeen = now
	if ev.Parent.IsZero() {
		st.finalizeLocked(ev.Trace, at)
	}
	if now.Sub(st.lastSweep) >= storeIdleCutoff {
		st.lastSweep = now
		for id, a := range st.active {
			if now.Sub(a.lastSeen) >= storeIdleCutoff {
				st.finalizeLocked(id, a)
			}
		}
	}
}

// Sweep finalizes traces idle for at least the idle cutoff (and, with
// force, all active traces). Tests call it to flush boundary traces
// deterministically.
func (st *TraceStore) Sweep(force bool) {
	now := st.now()
	st.mu.Lock()
	defer st.mu.Unlock()
	for id, a := range st.active {
		if force || now.Sub(a.lastSeen) >= storeIdleCutoff {
			st.finalizeLocked(id, a)
		}
	}
}

// evictIdlestLocked finalizes the active trace with the oldest lastSeen.
func (st *TraceStore) evictIdlestLocked() {
	var victim TraceID
	var vt *activeTrace
	for id, a := range st.active {
		if vt == nil || a.lastSeen.Before(vt.lastSeen) {
			victim, vt = id, a
		}
	}
	if vt != nil {
		st.finalizeLocked(victim, vt)
	}
}

func (st *TraceStore) finalizeLocked(id TraceID, at *activeTrace) {
	delete(st.active, id)
	spans := at.spans
	if len(spans) == 0 {
		return
	}
	root := rootOf(spans)
	st.rootDur.Observe(root.DurUS)
	reason := st.decide(spans, root)
	if reason == "" {
		obsTraceDropped.Inc()
		return
	}
	if c := obsTraceKept[reason]; c != nil {
		c.Inc()
	}
	kt := &keptTrace{
		id:      id,
		spans:   spans,
		reason:  reason,
		root:    root.Name,
		startUS: root.StartUS,
		durUS:   root.DurUS,
	}
	seen := map[TraceID]bool{id: true}
	for i := range spans {
		for _, l := range spans[i].Links {
			if !seen[l.Trace] {
				seen[l.Trace] = true
				kt.links = append(kt.links, l.Trace)
			}
		}
	}
	// Insert into the FIFO ring, evicting the oldest kept trace when full.
	if len(st.ring) < st.capacity {
		st.ring = append(st.ring, kt)
	} else {
		st.removeIndexLocked(st.ring[st.head])
		st.ring[st.head] = kt
		st.head++
		if st.head == st.capacity {
			st.head = 0
		}
	}
	st.byID[id] = kt
	for _, l := range kt.links {
		st.linkedBy[l] = append(st.linkedBy[l], kt)
	}
}

func (st *TraceStore) removeIndexLocked(old *keptTrace) {
	delete(st.byID, old.id)
	for _, l := range old.links {
		refs := st.linkedBy[l]
		for i, kt := range refs {
			if kt == old {
				refs = append(refs[:i], refs[i+1:]...)
				break
			}
		}
		if len(refs) == 0 {
			delete(st.linkedBy, l)
		} else {
			st.linkedBy[l] = refs
		}
	}
}

// rootOf picks the trace's root span: the zero-parent span if present,
// otherwise the earliest-starting span (a boundary trace whose true root
// lives in another process).
func rootOf(spans []SpanEvent) *SpanEvent {
	root := &spans[0]
	for i := range spans {
		e := &spans[i]
		if e.Parent.IsZero() {
			return e
		}
		if e.StartUS < root.StartUS {
			root = e
		}
	}
	return root
}

// decide returns the keep reason, or "" to drop.
func (st *TraceStore) decide(spans []SpanEvent, root *SpanEvent) string {
	for _, key := range keepKeys {
		for i := range spans {
			if _, ok := spans[i].Arg(key); ok {
				return key
			}
		}
	}
	if st.slowUS > 0 && root.DurUS >= st.slowUS {
		return "slow"
	}
	if st.rootDur.Count() >= 100 {
		if p99 := st.rootDur.Quantile(0.99); root.DurUS >= p99 {
			return "slow"
		}
	}
	if st.rand() < storeSampleRate {
		return "sampled"
	}
	return ""
}

// Trace returns every span of the kept trace id, plus the spans of other
// kept traces that link into it (coalescer folds), sorted by start time.
func (st *TraceStore) Trace(id TraceID) ([]SpanEvent, bool) {
	st.mu.Lock()
	kt, ok := st.byID[id]
	var spans []SpanEvent
	if ok {
		spans = append(spans, kt.spans...)
	}
	for _, linker := range st.linkedBy[id] {
		for i := range linker.spans {
			for _, l := range linker.spans[i].Links {
				if l.Trace == id {
					spans = append(spans, linker.spans[i])
					break
				}
			}
		}
	}
	st.mu.Unlock()
	if len(spans) == 0 {
		return nil, false
	}
	sort.SliceStable(spans, func(i, j int) bool { return spans[i].StartUS < spans[j].StartUS })
	return spans, true
}

// TraceSummary is one kept trace's directory entry.
type TraceSummary struct {
	TraceID string  `json:"trace_id"`
	Root    string  `json:"root"`
	Reason  string  `json:"reason"`
	Spans   int     `json:"spans"`
	StartUS float64 `json:"start_us"`
	DurUS   float64 `json:"dur_us"`
	Links   int     `json:"links"`
}

// Summaries lists kept traces, oldest first.
func (st *TraceStore) Summaries() []TraceSummary {
	st.mu.Lock()
	defer st.mu.Unlock()
	out := make([]TraceSummary, 0, len(st.ring))
	emit := func(kt *keptTrace) {
		out = append(out, TraceSummary{
			TraceID: kt.id.String(),
			Root:    kt.root,
			Reason:  kt.reason,
			Spans:   len(kt.spans),
			StartUS: kt.startUS,
			DurUS:   kt.durUS,
			Links:   len(kt.links),
		})
	}
	if len(st.ring) < st.capacity {
		for _, kt := range st.ring {
			emit(kt)
		}
		return out
	}
	for _, kt := range st.ring[st.head:] {
		emit(kt)
	}
	for _, kt := range st.ring[:st.head] {
		emit(kt)
	}
	return out
}

// Len returns the number of kept traces.
func (st *TraceStore) Len() int {
	st.mu.Lock()
	defer st.mu.Unlock()
	return len(st.ring)
}

// Handler serves the debug plane: a JSON directory of kept traces, and
// ?id=<32 hex> for one trace as Chrome trace_event JSON (the same schema
// WriteChromeTrace emits, so the file drops straight into Perfetto).
func (st *TraceStore) Handler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.Method != http.MethodGet {
			w.Header().Set("Allow", http.MethodGet)
			http.Error(w, "method not allowed", http.StatusMethodNotAllowed)
			return
		}
		if idStr := r.URL.Query().Get("id"); idStr != "" {
			id, err := ParseTraceID(idStr)
			if err != nil {
				http.Error(w, err.Error(), http.StatusBadRequest)
				return
			}
			spans, ok := st.Trace(id)
			if !ok {
				http.Error(w, "trace not found", http.StatusNotFound)
				return
			}
			w.Header().Set("Content-Type", "application/json")
			json.NewEncoder(w).Encode(chromeFrom(spans))
			return
		}
		sums := st.Summaries()
		w.Header().Set("Content-Type", "application/json")
		json.NewEncoder(w).Encode(struct {
			Kept   int            `json:"kept"`
			Traces []TraceSummary `json:"traces"`
		}{Kept: len(sums), Traces: sums})
	})
}
