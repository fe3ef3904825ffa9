package obs

import (
	"context"
	crand "crypto/rand"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"math"
	"sync/atomic"
)

// Trace identity follows the W3C Trace Context model: a 16-byte trace ID
// shared by every span of one distributed operation, and an 8-byte span ID
// per operation segment. IDs travel between processes in the `traceparent`
// HTTP header and inside a process via context.Context, so a phone's report
// can be followed from the client retry loop through a 429 shed, the
// Retry-After retry, the accepting handler, and (via span links) the async
// coalescer fold that finally lands it.

// TraceID is a 16-byte W3C trace identifier.
type TraceID [16]byte

// SpanID is an 8-byte W3C span identifier.
type SpanID [8]byte

// IsZero reports whether the ID is the invalid all-zero value.
func (id TraceID) IsZero() bool { return id == TraceID{} }

// IsZero reports whether the ID is the invalid all-zero value.
func (id SpanID) IsZero() bool { return id == SpanID{} }

// String renders the ID as 32 lowercase hex digits.
func (id TraceID) String() string { return hex.EncodeToString(id[:]) }

// String renders the ID as 16 lowercase hex digits.
func (id SpanID) String() string { return hex.EncodeToString(id[:]) }

// ParseTraceID parses a 32-hex-digit trace ID.
func ParseTraceID(s string) (TraceID, error) {
	var id TraceID
	if len(s) != 32 {
		return id, fmt.Errorf("obs: trace id %q: want 32 hex digits", s)
	}
	if _, err := hex.Decode(id[:], []byte(s)); err != nil {
		return TraceID{}, fmt.Errorf("obs: trace id %q: %w", s, err)
	}
	if id.IsZero() {
		return id, fmt.Errorf("obs: trace id %q: all-zero is invalid", s)
	}
	return id, nil
}

// SpanContext identifies one span within one trace, plus the sampling
// decision that downstream hops must honor.
type SpanContext struct {
	Trace   TraceID
	Span    SpanID
	Sampled bool
}

// IsValid reports whether both IDs are non-zero.
func (sc SpanContext) IsValid() bool { return !sc.Trace.IsZero() && !sc.Span.IsZero() }

// TraceparentHeader is the W3C Trace Context header name (lowercase per
// spec; Go's http.Header canonicalizes on set/get either way).
const TraceparentHeader = "traceparent"

// Traceparent renders the context as a version-00 traceparent value:
// 00-<32 hex trace-id>-<16 hex span-id>-<2 hex flags>. Built in one
// allocation — it runs once per outbound request on the traced hot path.
func (sc SpanContext) Traceparent() string {
	var b [55]byte
	b[0], b[1], b[2] = '0', '0', '-'
	hex.Encode(b[3:35], sc.Trace[:])
	b[35] = '-'
	hex.Encode(b[36:52], sc.Span[:])
	b[52], b[53] = '-', '0'
	b[54] = '0'
	if sc.Sampled {
		b[54] = '1'
	}
	return string(b[:])
}

// ParseTraceparent parses a traceparent header value as W3C Trace Context
// says a version-00 parser must: every field is lowercase hex, the version
// is not the invalid "ff", and neither id is all zeros. A version-00 value
// is exactly 55 bytes. A future version is parsed by its version-00 prefix
// and may carry further fields after a dash, per the spec's
// forward-compatibility rule.
func ParseTraceparent(v string) (SpanContext, bool) {
	// Layout: vv-tttttttttttttttttttttttttttttttt-ssssssssssssssss-ff
	if len(v) < 55 || v[2] != '-' || v[35] != '-' || v[52] != '-' {
		return SpanContext{}, false
	}
	var version, flags [1]byte
	if !decodeLowerHex(version[:], v[:2]) || version[0] == 0xff {
		return SpanContext{}, false
	}
	if len(v) > 55 && (version[0] == 0 || v[55] != '-') {
		return SpanContext{}, false
	}
	var sc SpanContext
	if !decodeLowerHex(sc.Trace[:], v[3:35]) || !decodeLowerHex(sc.Span[:], v[36:52]) ||
		!decodeLowerHex(flags[:], v[53:55]) || !sc.IsValid() {
		return SpanContext{}, false
	}
	sc.Sampled = flags[0]&0x01 != 0
	return sc, true
}

// decodeLowerHex decodes s, 2·len(dst) hex digits, into dst and reports
// whether every digit was lowercase hex: encoding/hex alone would take
// uppercase digits too, which a traceparent header must not carry.
func decodeLowerHex(dst []byte, s string) bool {
	for i := 0; i < len(s); i++ {
		if c := s[i]; (c < '0' || c > '9') && (c < 'a' || c > 'f') {
			return false
		}
	}
	_, err := hex.Decode(dst, []byte(s))
	return err == nil
}

// ctxKey keys the active SpanContext in a context.Context.
type ctxKey struct{}

// ContextWithSpan returns ctx carrying sc as the active span context.
func ContextWithSpan(ctx context.Context, sc SpanContext) context.Context {
	return context.WithValue(ctx, ctxKey{}, sc)
}

// SpanContextFrom extracts the active span context, if any.
func SpanContextFrom(ctx context.Context) (SpanContext, bool) {
	if ctx == nil {
		return SpanContext{}, false
	}
	sc, ok := ctx.Value(ctxKey{}).(SpanContext)
	return sc, ok && sc.IsValid()
}

// ID generation: a splitmix64 stream seeded once from crypto/rand. One
// atomic add per 8 bytes of ID, no locks, and distinct across processes
// with overwhelming probability.
var idState atomic.Uint64

func init() {
	var seed [8]byte
	if _, err := crand.Read(seed[:]); err == nil {
		idState.Store(binary.LittleEndian.Uint64(seed[:]))
	} else {
		// crypto/rand failing is effectively fatal elsewhere; here a fixed
		// seed only risks cross-process ID collisions, so degrade quietly.
		idState.Store(0x9E3779B97F4A7C15)
	}
}

func nextRand64() uint64 {
	z := idState.Add(0x9E3779B97F4A7C15)
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return z ^ (z >> 31)
}

// NewTraceID returns a fresh non-zero trace ID.
func NewTraceID() TraceID {
	var id TraceID
	for {
		binary.BigEndian.PutUint64(id[:8], nextRand64())
		binary.BigEndian.PutUint64(id[8:], nextRand64())
		if !id.IsZero() {
			return id
		}
	}
}

// NewSpanID returns a fresh non-zero span ID.
func NewSpanID() SpanID {
	var id SpanID
	for {
		binary.BigEndian.PutUint64(id[:], nextRand64())
		if !id.IsZero() {
			return id
		}
	}
}

// randFloat returns a uniform float64 in [0, 1) from the ID stream; used for
// head-sampling decisions so samplers need no extra state.
func randFloat() float64 {
	return float64(nextRand64()>>11) / float64(1<<53)
}

// SetSampleRate sets the head-sampling probability in [0, 1] applied by
// ShouldSample to new root traces. The default (unset) is 1: every root
// sampled. Inbound requests carrying a sampled traceparent bypass head
// sampling — the upstream decision wins.
func (t *Tracer) SetSampleRate(rate float64) {
	if math.IsNaN(rate) || rate < 0 {
		rate = 0
	}
	if rate > 1 {
		rate = 1
	}
	// Stored as bits+1 so the zero value distinguishes "unset" (rate 1).
	t.sampleBits.Store(math.Float64bits(rate) + 1)
}

// SampleRate returns the configured head-sampling probability.
func (t *Tracer) SampleRate() float64 {
	b := t.sampleBits.Load()
	if b == 0 {
		return 1
	}
	return math.Float64frombits(b - 1)
}

// ShouldSample draws one head-sampling decision for a new root trace.
func (t *Tracer) ShouldSample() bool {
	b := t.sampleBits.Load()
	if b == 0 {
		return true
	}
	rate := math.Float64frombits(b - 1)
	if rate >= 1 {
		return true
	}
	if rate <= 0 {
		return false
	}
	return randFloat() < rate
}
