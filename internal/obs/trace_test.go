package obs

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestTraceparentRoundTrip: format → parse is the identity for valid
// contexts, with the sampled flag preserved both ways.
func TestTraceparentRoundTrip(t *testing.T) {
	for _, sampled := range []bool{true, false} {
		sc := SpanContext{Trace: NewTraceID(), Span: NewSpanID(), Sampled: sampled}
		h := sc.Traceparent()
		if len(h) != 55 || !strings.HasPrefix(h, "00-") {
			t.Fatalf("traceparent %q: bad shape", h)
		}
		got, ok := ParseTraceparent(h)
		if !ok {
			t.Fatalf("ParseTraceparent(%q) failed", h)
		}
		if got != sc {
			t.Errorf("round trip %+v != %+v", got, sc)
		}
	}
}

// TestParseTraceparentRejects: malformed headers must not produce a context.
func TestParseTraceparentRejects(t *testing.T) {
	valid := SpanContext{Trace: NewTraceID(), Span: NewSpanID(), Sampled: true}.Traceparent()
	bad := []string{
		"",
		"00",
		valid[:54],       // truncated
		valid + "x",      // version 00 with trailing garbage
		"ff" + valid[2:], // invalid version
		strings.Replace(valid, "-", "_", 1),
		"00-" + strings.Repeat("0", 32) + valid[35:],      // zero trace id
		"00-" + strings.Repeat("g", 32) + valid[35:],      // non-hex trace id
		valid[:36] + strings.Repeat("0", 16) + valid[52:], // zero span id
		strings.ToUpper(valid),                            // uppercase hex
		valid + "-extra",                                  // version 00 with a further field
		"zz" + valid[2:],                                  // non-hex version
		"0g" + valid[2:],                                  // half-hex version
	}
	for _, v := range bad {
		if _, ok := ParseTraceparent(v); ok {
			t.Errorf("ParseTraceparent(%q) accepted", v)
		}
	}
	// Forward compat: a future version with extra fields parses.
	future := "42" + valid[2:] + "-extrastate"
	if _, ok := ParseTraceparent(future); !ok {
		t.Errorf("future version %q rejected", future)
	}
}

// traceparentCases are ParseTraceparent inputs and whether each must be
// accepted. They are FuzzParseTraceparent's seed corpus too:
// testdata/fuzz/FuzzParseTraceparent holds one file per case, named after it
// (TestParseTraceparentCorpus keeps the two in step).
var traceparentCases = []struct {
	name  string
	input string
	ok    bool
}{
	{"sampled", "00-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-01", true},
	{"unsampled", "00-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-00", true},
	{"unknown-flags", "00-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-ff", true},
	{"future-version", "cc-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-01", true},
	{"future-version-extra", "cc-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-01-what-the-future-holds", true},
	{"uppercase-trace-id", "00-4BF92F3577B34DA6A3CE929D0E0E4736-00f067aa0ba902b7-01", false},
	{"uppercase-flags", "00-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-0A", false},
	{"v00-extra", "00-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-01-extra", false},
	{"future-version-no-dash", "cc-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-01x", false},
	{"non-hex-version", "zz-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-01", false},
	{"half-hex-version", "0g-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-01", false},
	{"version-ff", "ff-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-01", false},
	{"zero-trace-id", "00-00000000000000000000000000000000-00f067aa0ba902b7-01", false},
	{"zero-span-id", "00-4bf92f3577b34da6a3ce929d0e0e4736-0000000000000000-01", false},
	{"truncated", "00-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-0", false},
	{"empty", "", false},
}

// checkTraceparent parses v and checks what every answer must hold: an
// accepted header has a lowercase-hex version other than ff, lowercase-hex
// flags and non-zero ids; a version-00 header is exactly 55 bytes; and
// formatting the parsed context gives back the input's first 55 bytes, as
// version 00 and with the flags reduced to the sampled bit. It returns
// whether v was accepted.
func checkTraceparent(t *testing.T, v string) bool {
	t.Helper()
	sc, ok := ParseTraceparent(v)
	if !ok {
		return false
	}
	lowerHex := func(s string) bool {
		return strings.Trim(s, "0123456789abcdef") == ""
	}
	if !lowerHex(v[:2]) || v[:2] == "ff" || !lowerHex(v[53:55]) {
		t.Fatalf("accepted %q: version %q, flags %q", v, v[:2], v[53:55])
	}
	if sc.Trace.IsZero() || sc.Span.IsZero() {
		t.Fatalf("accepted %q with a zero id", v)
	}
	if v[:2] == "00" && len(v) != 55 {
		t.Fatalf("accepted version-00 %q of %d bytes", v, len(v))
	}
	sampled := "0"
	if strings.IndexByte("13579bdf", v[54]) >= 0 {
		sampled = "1"
	}
	if want := "00" + v[2:53] + "0" + sampled; sc.Traceparent() != want {
		t.Fatalf("accepted %q formats as %q, want %q", v, sc.Traceparent(), want)
	}
	return true
}

// TestParseTraceparentCases runs the seed table through checkTraceparent.
func TestParseTraceparentCases(t *testing.T) {
	for _, tc := range traceparentCases {
		t.Run(tc.name, func(t *testing.T) {
			if ok := checkTraceparent(t, tc.input); ok != tc.ok {
				t.Errorf("ParseTraceparent(%q) accepted %v, want %v", tc.input, ok, tc.ok)
			}
		})
	}
}

// TestParseTraceparentCorpus checks every seed case has its corpus file, in
// the go test fuzz v1 encoding of its input.
func TestParseTraceparentCorpus(t *testing.T) {
	for _, tc := range traceparentCases {
		want := fmt.Sprintf("go test fuzz v1\nstring(%q)\n", tc.input)
		got, err := os.ReadFile(filepath.Join("testdata", "fuzz", "FuzzParseTraceparent", tc.name))
		if err != nil || string(got) != want {
			t.Errorf("seed %s: corpus file %q (%v), want %q", tc.name, got, err, want)
		}
	}
}

// FuzzParseTraceparent drives arbitrary header values through
// ParseTraceparent.
func FuzzParseTraceparent(f *testing.F) {
	f.Fuzz(func(t *testing.T, v string) {
		checkTraceparent(t, v)
	})
}

// TestStartCtxPropagation: StartCtx chains parent → child IDs through the
// context and keeps the whole chain in one trace.
func TestStartCtxPropagation(t *testing.T) {
	tr := &Tracer{}
	tr.Enable()
	defer tr.Disable()

	ctx, root := tr.StartCtx(context.Background(), "root", "test")
	ctx2, child := tr.StartCtx(ctx, "child", "test")
	_, grand := tr.StartCtx(ctx2, "grandchild", "test")
	grand.End()
	child.End()
	root.End()

	evs := tr.Events()
	if len(evs) != 3 {
		t.Fatalf("got %d events, want 3", len(evs))
	}
	// Completion order: grandchild, child, root.
	g, c, r := evs[0], evs[1], evs[2]
	if r.Trace != c.Trace || c.Trace != g.Trace {
		t.Fatal("spans not in one trace")
	}
	if !r.Parent.IsZero() {
		t.Errorf("root has parent %v", r.Parent)
	}
	if c.Parent != r.ID || g.Parent != c.ID {
		t.Errorf("parent chain broken: %v<-%v<-%v", r.ID, c.Parent, g.Parent)
	}
	// Remote parent: a context seeded from a parsed traceparent continues
	// the remote trace.
	remote := SpanContext{Trace: NewTraceID(), Span: NewSpanID(), Sampled: true}
	_, srv := tr.StartCtx(ContextWithSpan(context.Background(), remote), "server", "test")
	srv.End()
	ev := tr.Events()[3]
	if ev.Trace != remote.Trace || ev.Parent != remote.Span {
		t.Errorf("remote continuation: trace %v parent %v, want %v/%v",
			ev.Trace, ev.Parent, remote.Trace, remote.Span)
	}
}

// TestTracerRingCap: a saturated tracer stays within its capacity and
// accounts for overwritten spans in tracer_spans_dropped_total, keeping the
// most recent spans.
func TestTracerRingCap(t *testing.T) {
	tr := &Tracer{}
	tr.SetCapacity(64)
	tr.Enable()
	defer tr.Disable()

	before := obsSpansDropped.Value()
	for i := 0; i < 1000; i++ {
		sp := tr.Start("work", "test", L("i", string(rune('0'+i%10))))
		sp.End()
	}
	evs := tr.Events()
	if len(evs) != 64 {
		t.Fatalf("saturated tracer holds %d events, want capacity 64", len(evs))
	}
	if got := obsSpansDropped.Value() - before; got != 1000-64 {
		t.Errorf("dropped counter advanced by %d, want %d", got, 1000-64)
	}
	// Oldest-first order is preserved across the wrap: the last event
	// recorded must be the last returned.
	last, _ := evs[63].Arg("i")
	if last != string(rune('0'+999%10)) {
		t.Errorf("newest event arg = %q", last)
	}
}

// TestTracerSampling: SetSampleRate pins the head-sampling decision at the
// extremes and defaults to always-sample.
func TestTracerSampling(t *testing.T) {
	tr := &Tracer{}
	if !tr.ShouldSample() {
		t.Error("unset rate must sample")
	}
	if tr.SampleRate() != 1 {
		t.Errorf("default rate = %v", tr.SampleRate())
	}
	tr.SetSampleRate(0)
	for i := 0; i < 100; i++ {
		if tr.ShouldSample() {
			t.Fatal("rate 0 sampled")
		}
	}
	tr.SetSampleRate(1)
	for i := 0; i < 100; i++ {
		if !tr.ShouldSample() {
			t.Fatal("rate 1 skipped")
		}
	}
	tr.SetSampleRate(2.5) // clamped
	if tr.SampleRate() != 1 {
		t.Errorf("rate clamped to %v, want 1", tr.SampleRate())
	}
}

// TestSpanLinksExported: links show up in the Chrome export args so the
// queue-boundary hop is visible in Perfetto.
func TestSpanLinksExported(t *testing.T) {
	tr := &Tracer{}
	tr.Enable()
	defer tr.Disable()
	target := SpanContext{Trace: NewTraceID(), Span: NewSpanID(), Sampled: true}
	sp := tr.Start("fold", "cloud")
	sp.Link(target)
	sp.Link(SpanContext{}) // invalid: ignored
	sp.End()

	evs := tr.Events()
	if len(evs[0].Links) != 1 || evs[0].Links[0] != target {
		t.Fatalf("links = %+v", evs[0].Links)
	}
	var sb strings.Builder
	if err := tr.WriteChromeTrace(&sb); err != nil {
		t.Fatal(err)
	}
	want := target.Trace.String() + ":" + target.Span.String()
	if !strings.Contains(sb.String(), want) {
		t.Errorf("chrome export missing link %q", want)
	}
}
