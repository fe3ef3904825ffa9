package obs

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// Tracer collects spans and exports them as Chrome trace_event JSON
// (chrome://tracing, Perfetto, `perfetto.dev/#!/viewer`). It is disabled by
// default: Start on a disabled (or nil) tracer returns a nil no-op Span
// without allocating, so always-on instrumentation costs one atomic load per
// call site until a collector opts in with Enable.
//
// Completed spans land in a fixed-capacity ring (DefaultSpanCapacity unless
// SetCapacity overrides it); once full, the oldest span is overwritten and
// tracer_spans_dropped_total is incremented, so a long -metrics run cannot
// grow memory without bound. An optional SpanSink (SetSink) additionally
// receives every completed span — that is how the tail-sampling TraceStore
// subscribes without coupling the ring to trace assembly.
type Tracer struct {
	enabled    atomic.Bool
	sampleBits atomic.Uint64 // head-sample rate, float bits + 1 (0 = unset = 1.0)

	mu       sync.Mutex
	base     time.Time
	ring     []SpanEvent
	head     int // next overwrite position once len(ring) == capacity
	capacity int

	sink atomic.Pointer[sinkBox]
}

// sinkBox wraps the interface so atomic.Pointer can hold it.
type sinkBox struct{ s SpanSink }

// SpanSink receives every completed span. Implementations must be safe for
// concurrent use; RecordSpan is called outside the tracer's lock.
type SpanSink interface {
	RecordSpan(ev SpanEvent)
}

// DefaultSpanCapacity bounds the span ring when SetCapacity was not called.
const DefaultSpanCapacity = 16384

// obsSpansDropped counts spans overwritten in the ring before export.
var obsSpansDropped = Default.Counter("tracer_spans_dropped_total")

// SpanEvent is one completed span.
type SpanEvent struct {
	// Name identifies the operation, Cat its subsystem (pipeline, fusion,
	// cloud, experiment) for trace-viewer filtering.
	Name string
	Cat  string
	// StartUS/DurUS are microseconds relative to Enable.
	StartUS float64
	DurUS   float64
	// Args are optional key/value annotations.
	Args []Label
	// Trace/ID/Parent place the span in a distributed trace. Parent is zero
	// for root spans. All three are zero for spans recorded before tracing
	// identity existed (never the case for spans from Start/StartCtx).
	Trace  TraceID
	ID     SpanID
	Parent SpanID
	// Links reference causally related spans in other traces — e.g. a
	// coalescer fold span links to the handler spans whose submissions it
	// folded across the async queue boundary.
	Links []SpanContext
}

// Arg returns the value of the named annotation, if present.
func (e *SpanEvent) Arg(key string) (string, bool) {
	for _, a := range e.Args {
		if a.Key == key {
			return a.Value, true
		}
	}
	return "", false
}

// DefaultTracer is the process-wide tracer all built-in spans report to: the
// pipeline, the cloud server/coalescer, and the cloud client all default to
// it, so one `gradebench -tracefile` run captures pipeline and cloud spans
// in a single file.
var DefaultTracer = &Tracer{}

// Enable starts collection, resetting the clock and any prior events.
func (t *Tracer) Enable() {
	t.mu.Lock()
	t.base = time.Now()
	t.ring = t.ring[:0]
	t.head = 0
	t.mu.Unlock()
	t.enabled.Store(true)
}

// Disable stops collection; already-recorded events remain exportable.
func (t *Tracer) Disable() { t.enabled.Store(false) }

// Enabled reports whether spans are being collected.
func (t *Tracer) Enabled() bool { return t != nil && t.enabled.Load() }

// SetCapacity bounds the span ring to n events (min 16). It resets any
// buffered events and takes effect immediately.
func (t *Tracer) SetCapacity(n int) {
	if n < 16 {
		n = 16
	}
	t.mu.Lock()
	t.capacity = n
	t.ring = nil
	t.head = 0
	t.mu.Unlock()
}

// SetSink registers sink to receive every completed span (nil unregisters).
func (t *Tracer) SetSink(sink SpanSink) {
	if sink == nil {
		t.sink.Store(nil)
		return
	}
	t.sink.Store(&sinkBox{s: sink})
}

// Span is an in-flight operation; End records it. A nil Span (from a
// disabled tracer) is a no-op for every method.
type Span struct {
	t      *Tracer
	name   string
	cat    string
	start  time.Time
	args   []Label
	sc     SpanContext
	parent SpanID
	links  []SpanContext
	// argbuf backs args for the common few-annotation span, so starting and
	// annotating a span costs one allocation (the Span itself), not one per
	// label slice growth step. args spills to the heap past its capacity.
	argbuf [4]Label
}

// Start opens a root span in a fresh trace. args annotate the span in the
// exported trace; they are only materialized when the tracer is enabled.
func (t *Tracer) Start(name, cat string, args ...Label) *Span {
	if !t.Enabled() {
		return nil
	}
	return t.newSpan(name, cat, SpanContext{}, args)
}

// StartCtx opens a span as a child of the span context carried by ctx (a
// root span of a fresh trace when ctx carries none) and returns a derived
// context carrying the new span's identity for further propagation. On a
// disabled tracer it returns (ctx, nil) unchanged.
func (t *Tracer) StartCtx(ctx context.Context, name, cat string, args ...Label) (context.Context, *Span) {
	if !t.Enabled() {
		return ctx, nil
	}
	parent, _ := SpanContextFrom(ctx)
	s := t.newSpan(name, cat, parent, args)
	return ContextWithSpan(ctx, s.sc), s
}

// StartChildCtx opens a span as a child of an explicitly supplied parent
// context (e.g. one parsed from an inbound traceparent header) and returns a
// derived context carrying the new span's identity. Equivalent to stashing
// parent in ctx and calling StartCtx, minus the intermediate context
// allocation — this is the server middleware's per-request path.
func (t *Tracer) StartChildCtx(ctx context.Context, parent SpanContext, name, cat string, args ...Label) (context.Context, *Span) {
	if !t.Enabled() {
		return ctx, nil
	}
	s := t.newSpan(name, cat, parent, args)
	return ContextWithSpan(ctx, s.sc), s
}

func (t *Tracer) newSpan(name, cat string, parent SpanContext, args []Label) *Span {
	s := &Span{t: t, name: name, cat: cat, start: time.Now()}
	s.args = append(s.argbuf[:0], args...)
	if parent.IsValid() {
		s.sc = SpanContext{Trace: parent.Trace, Span: NewSpanID(), Sampled: parent.Sampled}
		s.parent = parent.Span
	} else {
		s.sc = SpanContext{Trace: NewTraceID(), Span: NewSpanID(), Sampled: true}
	}
	return s
}

// Context returns the span's context for propagation (e.g. as a traceparent
// header) or linking. The zero SpanContext on a nil span is invalid.
func (s *Span) Context() SpanContext {
	if s == nil {
		return SpanContext{}
	}
	return s.sc
}

// Annotate attaches a key/value argument to the span.
func (s *Span) Annotate(key, value string) {
	if s == nil {
		return
	}
	s.args = append(s.args, Label{Key: key, Value: value})
}

// Link records a causal reference to a span in another trace (the span-link
// model: fold spans link back to the handler spans they folded for).
// Invalid contexts are ignored.
func (s *Span) Link(sc SpanContext) {
	if s == nil || !sc.IsValid() {
		return
	}
	s.links = append(s.links, sc)
}

// End completes the span and records it.
func (s *Span) End() {
	if s == nil || s.t == nil {
		return
	}
	end := time.Now()
	t := s.t
	t.mu.Lock()
	ev := SpanEvent{
		Name:    s.name,
		Cat:     s.cat,
		StartUS: float64(s.start.Sub(t.base)) / float64(time.Microsecond),
		DurUS:   float64(end.Sub(s.start)) / float64(time.Microsecond),
		Args:    s.args,
		Trace:   s.sc.Trace,
		ID:      s.sc.Span,
		Parent:  s.parent,
		Links:   s.links,
	}
	capacity := t.capacity
	if capacity <= 0 {
		capacity = DefaultSpanCapacity
	}
	if len(t.ring) < capacity {
		t.ring = append(t.ring, ev)
	} else {
		t.ring[t.head] = ev
		t.head++
		if t.head == capacity {
			t.head = 0
		}
		obsSpansDropped.Inc()
	}
	t.mu.Unlock()
	if box := t.sink.Load(); box != nil {
		box.s.RecordSpan(ev)
	}
}

// Events returns a snapshot of the buffered spans, oldest first. When the
// ring has wrapped, only the most recent SetCapacity (or
// DefaultSpanCapacity) spans remain; tracer_spans_dropped_total counts the
// overwritten remainder.
func (t *Tracer) Events() []SpanEvent {
	t.mu.Lock()
	defer t.mu.Unlock()
	capacity := t.capacity
	if capacity <= 0 {
		capacity = DefaultSpanCapacity
	}
	if len(t.ring) < capacity {
		return append([]SpanEvent(nil), t.ring...)
	}
	out := make([]SpanEvent, 0, len(t.ring))
	out = append(out, t.ring[t.head:]...)
	out = append(out, t.ring[:t.head]...)
	return out
}

// chromeEvent is the trace_event wire form: a complete ("ph":"X") event with
// microsecond timestamps, as consumed by chrome://tracing and Perfetto.
type chromeEvent struct {
	Name string            `json:"name"`
	Cat  string            `json:"cat,omitempty"`
	Ph   string            `json:"ph"`
	TS   float64           `json:"ts"`
	Dur  float64           `json:"dur"`
	PID  int               `json:"pid"`
	TID  int               `json:"tid"`
	Args map[string]string `json:"args,omitempty"`
}

// chromeTrace is the JSON-object container form of the format.
type chromeTrace struct {
	TraceEvents []chromeEvent `json:"traceEvents"`
	DisplayUnit string        `json:"displayTimeUnit,omitempty"`
}

// chromeFrom converts completed spans to the trace_event container form.
// Trace identity and links ride in Args (trace_id/span_id/parent_id/links)
// so the schema stays exactly what WriteChromeTrace has always produced.
func chromeFrom(events []SpanEvent) chromeTrace {
	out := chromeTrace{TraceEvents: make([]chromeEvent, 0, len(events)), DisplayUnit: "ms"}
	for i := range events {
		e := &events[i]
		ce := chromeEvent{
			Name: e.Name, Cat: e.Cat, Ph: "X",
			TS: e.StartUS, Dur: e.DurUS, PID: 1, TID: 1,
		}
		n := len(e.Args)
		if !e.Trace.IsZero() {
			n += 3
		}
		if len(e.Links) > 0 {
			n++
		}
		if n > 0 {
			ce.Args = make(map[string]string, n)
			for _, a := range e.Args {
				ce.Args[a.Key] = a.Value
			}
			if !e.Trace.IsZero() {
				ce.Args["trace_id"] = e.Trace.String()
				ce.Args["span_id"] = e.ID.String()
				if !e.Parent.IsZero() {
					ce.Args["parent_id"] = e.Parent.String()
				}
			}
			if len(e.Links) > 0 {
				var sb strings.Builder
				for j, l := range e.Links {
					if j > 0 {
						sb.WriteByte(' ')
					}
					sb.WriteString(l.Trace.String())
					sb.WriteByte(':')
					sb.WriteString(l.Span.String())
				}
				ce.Args["links"] = sb.String()
			}
		}
		out.TraceEvents = append(out.TraceEvents, ce)
	}
	return out
}

// WriteChromeTrace exports the recorded spans as Chrome trace_event JSON. An
// empty trace is valid and yields an empty traceEvents array; a nil tracer is
// a programmer error.
func (t *Tracer) WriteChromeTrace(w io.Writer) error {
	if t == nil {
		return fmt.Errorf("obs: nil tracer")
	}
	enc := json.NewEncoder(w)
	if err := enc.Encode(chromeFrom(t.Events())); err != nil {
		return fmt.Errorf("obs: encoding trace: %w", err)
	}
	return nil
}
