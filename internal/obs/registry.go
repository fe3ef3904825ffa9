// Package obs is the stdlib-only observability toolkit: a concurrency-safe
// metrics registry (counters, gauges, fixed-bucket histograms), lightweight
// span tracing exportable as Chrome trace_event JSON, Prometheus text
// exposition, and runtime-sourced process gauges.
//
// Design constraints, in order:
//
//  1. Hot-path instrumentation must be allocation-free. Callers obtain metric
//     handles once (package-level vars) and then only touch atomics: Counter
//     and Gauge are a single atomic word, Histogram.Observe is one bucket
//     increment plus a count/sum update over preallocated buckets.
//  2. No third-party dependencies: exposition speaks the Prometheus text
//     format directly and traces serialize to the Chrome trace_event schema,
//     so standard tooling (Prometheus, chrome://tracing, Perfetto) consumes
//     the output without any client library.
//  3. Instrumentation never changes results. Metrics are write-only from the
//     pipeline's perspective; spans are disabled unless a collector opts in.
package obs

import (
	"fmt"
	"io"
	"math"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
)

// Label is one metric label pair, rendered as key="value" in exposition.
type Label struct {
	Key   string
	Value string
}

// L is shorthand for constructing a Label.
func L(key, value string) Label { return Label{Key: key, Value: value} }

// Counter is a monotonically increasing uint64. The zero value is ready to
// use, but counters are normally obtained from a Registry so they export.
type Counter struct {
	v atomic.Uint64
}

// Inc adds one.
func (c *Counter) Inc() { c.v.Add(1) }

// Add adds n.
func (c *Counter) Add(n uint64) { c.v.Add(n) }

// Value returns the current count.
func (c *Counter) Value() uint64 { return c.v.Load() }

// Histogram is a fixed-bucket histogram: observations land in the first
// bucket whose upper bound is >= the value, with an implicit +Inf overflow
// bucket. Bounds are fixed at registration so Observe never allocates.
type Histogram struct {
	bounds  []float64 // ascending upper bounds, excluding +Inf
	buckets []atomic.Uint64
	inf     atomic.Uint64
	count   atomic.Uint64
	sumBits atomic.Uint64
	ex      []atomic.Pointer[exemplar] // per-bucket exemplars; last slot is +Inf
}

func newHistogram(bounds []float64) *Histogram {
	bs := append([]float64(nil), bounds...)
	sort.Float64s(bs)
	return &Histogram{
		bounds:  bs,
		buckets: make([]atomic.Uint64, len(bs)),
		ex:      make([]atomic.Pointer[exemplar], len(bs)+1),
	}
}

// Observe records one value.
func (h *Histogram) Observe(v float64) {
	if math.IsNaN(v) {
		return
	}
	// Linear scan: bucket counts are small (≤ ~20) and the branch history is
	// stable for a steady workload, so this beats binary search in practice
	// and keeps the function trivially allocation-free.
	placed := false
	for i, b := range h.bounds {
		if v <= b {
			h.buckets[i].Add(1)
			placed = true
			break
		}
	}
	if !placed {
		h.inf.Add(1)
	}
	h.count.Add(1)
	for {
		old := h.sumBits.Load()
		nw := math.Float64bits(math.Float64frombits(old) + v)
		if h.sumBits.CompareAndSwap(old, nw) {
			return
		}
	}
}

// Count returns the number of observations.
func (h *Histogram) Count() uint64 { return h.count.Load() }

// Sum returns the sum of observations.
func (h *Histogram) Sum() float64 { return math.Float64frombits(h.sumBits.Load()) }

// Quantile estimates the q-th quantile (0 < q <= 1) by linear interpolation
// inside the bucket where the cumulative count crosses q. Observations are
// assumed non-negative (the first bucket interpolates from 0); values in the
// +Inf bucket clamp to the largest finite bound. Returns NaN when empty.
func (h *Histogram) Quantile(q float64) float64 {
	total := h.count.Load()
	if total == 0 || math.IsNaN(q) || q <= 0 || q > 1 {
		return math.NaN()
	}
	target := q * float64(total)
	var cum float64
	for i := range h.buckets {
		n := float64(h.buckets[i].Load())
		if cum+n >= target && n > 0 {
			lo := 0.0
			if i > 0 {
				lo = h.bounds[i-1]
			}
			hi := h.bounds[i]
			return lo + (hi-lo)*(target-cum)/n
		}
		cum += n
	}
	if len(h.bounds) == 0 {
		return math.NaN()
	}
	return h.bounds[len(h.bounds)-1]
}

// LatencyBuckets spans 0.1 ms .. 10 s, suited to both per-stage pipeline
// timings and HTTP request latencies.
var LatencyBuckets = []float64{
	0.0001, 0.00025, 0.0005, 0.001, 0.0025, 0.005, 0.01, 0.025,
	0.05, 0.1, 0.25, 0.5, 1, 2.5, 5, 10,
}

// NISBuckets covers normalized innovation squared values: a consistent filter
// sits near 1, the default gate rejects at 25.
var NISBuckets = []float64{0.1, 0.25, 0.5, 1, 2, 4, 8, 16, 25, 50, 100}

// kind discriminates registry entries.
type kind int

const (
	kindCounter kind = iota
	kindGaugeFunc
	kindHistogram
)

func (k kind) String() string {
	switch k {
	case kindCounter:
		return "counter"
	case kindGaugeFunc:
		return "gauge"
	case kindHistogram:
		return "histogram"
	}
	return "unknown"
}

// entry is one registered metric series.
type entry struct {
	name   string // base metric name
	labels string // rendered `key="value",...` or ""
	kind   kind

	c  *Counter
	gf func() float64
	h  *Histogram
}

// Registry holds metric series and renders them in the Prometheus text
// format. Get-or-create methods are safe for concurrent use; handles should
// be fetched once and cached by hot paths.
type Registry struct {
	mu    sync.Mutex
	byKey map[string]*entry
	help  map[string]string // metric family name -> HELP text
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{byKey: make(map[string]*entry), help: make(map[string]string)}
}

// SetHelp attaches HELP text to a metric family, emitted as a `# HELP` line
// immediately before the family's `# TYPE` line.
func (r *Registry) SetHelp(name, text string) {
	r.mu.Lock()
	r.help[name] = text
	r.mu.Unlock()
}

// Default is the process-wide registry all built-in instrumentation uses.
var Default = NewRegistry()

// renderLabels builds the canonical `k="v",...` form, sorted by key so the
// same label set always maps to the same series.
func renderLabels(labels []Label) string {
	if len(labels) == 0 {
		return ""
	}
	ls := append([]Label(nil), labels...)
	sort.Slice(ls, func(i, j int) bool { return ls[i].Key < ls[j].Key })
	var b strings.Builder
	for i, l := range ls {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(l.Key)
		b.WriteString(`="`)
		b.WriteString(escapeLabel(l.Value))
		b.WriteString(`"`)
	}
	return b.String()
}

// escapeLabel escapes a label value per the Prometheus text format.
func escapeLabel(v string) string {
	if !strings.ContainsAny(v, "\\\"\n") {
		return v
	}
	r := strings.NewReplacer(`\`, `\\`, `"`, `\"`, "\n", `\n`)
	return r.Replace(v)
}

// get returns the entry for (name, labels), creating it with mk on first use.
// Registering the same series with a different kind panics: that is a
// programmer error, and silently returning a mismatched handle would corrupt
// both series.
func (r *Registry) get(name string, labels []Label, k kind, mk func() *entry) *entry {
	key := name + "\x00" + renderLabels(labels)
	r.mu.Lock()
	defer r.mu.Unlock()
	if e, ok := r.byKey[key]; ok {
		if e.kind != k {
			panic(fmt.Sprintf("obs: metric %q re-registered as %v (was %v)", name, k, e.kind))
		}
		return e
	}
	e := mk()
	e.name = name
	e.labels = renderLabels(labels)
	e.kind = k
	r.byKey[key] = e
	return e
}

// Counter returns the counter series (name, labels), creating it on first
// use.
func (r *Registry) Counter(name string, labels ...Label) *Counter {
	return r.get(name, labels, kindCounter, func() *entry { return &entry{c: &Counter{}} }).c
}

// GaugeFunc registers a gauge whose value is computed by fn at exposition
// time (e.g. runtime stats). Re-registering replaces the function.
func (r *Registry) GaugeFunc(name string, fn func() float64, labels ...Label) {
	e := r.get(name, labels, kindGaugeFunc, func() *entry { return &entry{} })
	r.mu.Lock()
	e.gf = fn
	r.mu.Unlock()
}

// Histogram returns the histogram series (name, labels) with the given
// bucket upper bounds, creating it on first use. The first registration's
// buckets win; later calls return the existing histogram.
func (r *Registry) Histogram(name string, buckets []float64, labels ...Label) *Histogram {
	return r.get(name, labels, kindHistogram, func() *entry { return &entry{h: newHistogram(buckets)} }).h
}

// WritePrometheus renders every registered series in the Prometheus text
// exposition format, sorted by name then labels, with one # TYPE line per
// metric family.
func (r *Registry) WritePrometheus(w io.Writer) error {
	r.mu.Lock()
	entries := make([]*entry, 0, len(r.byKey))
	for _, e := range r.byKey {
		entries = append(entries, e)
	}
	help := make(map[string]string, len(r.help))
	for k, v := range r.help {
		help[k] = v
	}
	r.mu.Unlock()
	sort.Slice(entries, func(i, j int) bool {
		if entries[i].name != entries[j].name {
			return entries[i].name < entries[j].name
		}
		return entries[i].labels < entries[j].labels
	})
	var b strings.Builder
	lastName := ""
	for _, e := range entries {
		if e.name != lastName {
			if h, ok := help[e.name]; ok {
				fmt.Fprintf(&b, "# HELP %s %s\n", e.name, escapeHelp(h))
			}
			fmt.Fprintf(&b, "# TYPE %s %s\n", e.name, e.kind)
			lastName = e.name
		}
		switch e.kind {
		case kindCounter:
			fmt.Fprintf(&b, "%s %d\n", series(e.name, e.labels), e.c.Value())
		case kindGaugeFunc:
			v := math.NaN()
			if e.gf != nil {
				v = e.gf()
			}
			fmt.Fprintf(&b, "%s %s\n", series(e.name, e.labels), formatFloat(v))
		case kindHistogram:
			writeHistogram(&b, e)
		}
	}
	_, err := io.WriteString(w, b.String())
	return err
}

// series renders name{labels} (or the bare name).
func series(name, labels string) string {
	if labels == "" {
		return name
	}
	return name + "{" + labels + "}"
}

// seriesLe renders name_bucket with the le label appended after any series
// labels, matching Prometheus convention.
func seriesLe(name, labels, le string) string {
	if labels == "" {
		return fmt.Sprintf(`%s_bucket{le="%s"}`, name, le)
	}
	return fmt.Sprintf(`%s_bucket{%s,le="%s"}`, name, labels, le)
}

func writeHistogram(b *strings.Builder, e *entry) {
	h := e.h
	var cum uint64
	for i, bound := range h.bounds {
		cum += h.buckets[i].Load()
		fmt.Fprintf(b, "%s %d", seriesLe(e.name, e.labels, formatFloat(bound)), cum)
		appendExemplar(b, h.exemplarAt(i))
		b.WriteByte('\n')
	}
	cum += h.inf.Load()
	fmt.Fprintf(b, "%s %d", seriesLe(e.name, e.labels, "+Inf"), cum)
	appendExemplar(b, h.exemplarAt(len(h.bounds)))
	b.WriteByte('\n')
	fmt.Fprintf(b, "%s %s\n", series(e.name+"_sum", e.labels), formatFloat(h.Sum()))
	fmt.Fprintf(b, "%s %d\n", series(e.name+"_count", e.labels), h.Count())
}

// escapeHelp escapes HELP text per the Prometheus text format.
func escapeHelp(v string) string {
	if !strings.ContainsAny(v, "\\\n") {
		return v
	}
	r := strings.NewReplacer(`\`, `\\`, "\n", `\n`)
	return r.Replace(v)
}

func formatFloat(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }
