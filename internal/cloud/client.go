package cloud

import (
	"bytes"
	"compress/gzip"
	"context"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net"
	"net/http"
	"net/url"
	"slices"
	"strconv"
	"sync"
	"time"

	"roadgrade/internal/emission"
	"roadgrade/internal/fusion"
	"roadgrade/internal/obs"
)

// Client-side instrumentation: retry pressure is the early-warning signal of
// a struggling fusion service (or flaky phone uplink).
var (
	obsCliRetries  = obs.Default.Counter("cloud_client_retries_total")
	obsCliFailures = obs.Default.Counter("cloud_client_request_failures_total")
	obsCliBackoff  = obs.Default.Histogram("cloud_client_backoff_sleep_seconds", obs.LatencyBuckets)
)

// Client talks to a fusion Server over HTTP. Requests that fail with a
// transport error or a 5xx are retried with exponential backoff plus jitter;
// submissions carry a content-derived Idempotency-Key so a retry after an
// ambiguous failure (request delivered, response lost) cannot double-count a
// profile.
type Client struct {
	base string
	hc   *http.Client

	maxAttempts   int
	baseBackoff   time.Duration
	maxBackoff    time.Duration
	perTryTimeout time.Duration

	// useGzip compresses request bodies and explicitly negotiates gzip
	// responses (see WithGzip for the transport subtlety this implies).
	useGzip bool
	// binaryBatch selects the compact binary codec for SubmitBatch.
	binaryBatch bool

	// sleep waits out a retry pause, returning ctx's error early once ctx
	// is done; sleep and jitter are injectable for tests.
	sleep  func(ctx context.Context, d time.Duration) error
	jitter func() float64

	// tracer emits client spans; nil shares obs.DefaultTracer.
	tracer *obs.Tracer

	// emis holds the last emission table fetched per (vehicle class,
	// snapped speed), at most 12, patched in place under emisMu;
	// FetchEmissions asks the server only for the rows changed since.
	emisMu sync.Mutex
	emis   map[emisKey]*EmissionTableDTO
}

// tr returns the client's span tracer (the process default unless WithTracer
// overrode it).
func (c *Client) tr() *obs.Tracer {
	if c.tracer != nil {
		return c.tracer
	}
	return obs.DefaultTracer
}

// startRoot opens a client root span subject to the tracer's head-sampling
// rate; a context already carrying a span always continues its trace. The
// attempt spans and the traceparent header follow the root's decision, so an
// unsampled operation costs one atomic load and sends no header.
func (c *Client) startRoot(ctx context.Context, name string, args ...obs.Label) (context.Context, *obs.Span) {
	tr := c.tr()
	if _, ok := obs.SpanContextFrom(ctx); !ok && !tr.ShouldSample() {
		return ctx, nil
	}
	return tr.StartCtx(ctx, name, "cloud", args...)
}

// Option customizes a Client.
type Option func(*Client)

// WithRetry sets the total attempt budget (including the first try) and the
// backoff window. attempts < 1 disables retries.
func WithRetry(attempts int, base, max time.Duration) Option {
	return func(c *Client) {
		c.maxAttempts = attempts
		c.baseBackoff = base
		c.maxBackoff = max
	}
}

// WithPerTryTimeout bounds each individual attempt (0 disables; the caller's
// context still applies to the whole call).
func WithPerTryTimeout(d time.Duration) Option {
	return func(c *Client) { c.perTryTimeout = d }
}

// WithGzip turns on explicit gzip negotiation: request bodies are
// compressed with Content-Encoding: gzip, and responses are requested with
// an explicit Accept-Encoding: gzip header. Setting Accept-Encoding by hand
// disables net/http's transparent decompression — the transport then hands
// back the raw compressed body — so the client decompresses itself and
// drains the underlying stream for connection reuse. (Without this option
// the transport still negotiates gzip invisibly; the option exists so
// payload sizes on the wire are observable and the request direction is
// compressed too.)
func WithGzip(on bool) Option {
	return func(c *Client) { c.useGzip = on }
}

// WithBinaryBatch makes SubmitBatch use the compact binary wire codec
// (ContentTypeBinary) instead of JSON.
func WithBinaryBatch(on bool) Option {
	return func(c *Client) { c.binaryBatch = on }
}

// WithTracer routes the client's spans to tr instead of obs.DefaultTracer.
func WithTracer(tr *obs.Tracer) Option {
	return func(c *Client) { c.tracer = tr }
}

// NewClient returns a client for the service at base (e.g.
// "http://localhost:8080"). hc defaults to http.DefaultClient. The default
// policy is 4 attempts, 100 ms base backoff capped at 2 s, 10 s per attempt.
func NewClient(base string, hc *http.Client, opts ...Option) (*Client, error) {
	if base == "" {
		return nil, errors.New("cloud: empty base URL")
	}
	if hc == nil {
		hc = http.DefaultClient
	}
	c := &Client{
		base:          base,
		hc:            hc,
		maxAttempts:   4,
		baseBackoff:   100 * time.Millisecond,
		maxBackoff:    2 * time.Second,
		perTryTimeout: 10 * time.Second,
		sleep:         sleepCtx,
		jitter:        rand.Float64,
	}
	for _, opt := range opts {
		opt(c)
	}
	if c.maxAttempts < 1 {
		c.maxAttempts = 1
	}
	return c, nil
}

// NewTransport returns an *http.Transport tuned for sustained traffic
// against a single fusion service, sized for maxConcurrent in-flight
// requests. http.DefaultTransport keeps only 2 idle connections per host
// (DefaultMaxIdleConnsPerHost), so any client running more than 2 concurrent
// requests churns a TCP (and possibly TLS) handshake per request once the
// burst subsides — a load harness with default settings measures connection
// setup, not the server. The knobs, and why each is set (see DESIGN.md §8):
//
//   - MaxIdleConnsPerHost = maxConcurrent: every worker's connection
//     survives between requests, so steady-state traffic is handshake-free.
//   - MaxIdleConns scales with it (the pool is effectively single-host).
//   - IdleConnTimeout 90 s: idle sockets outlive normal think-time gaps but
//     don't pin server FDs forever.
//   - Dialer KeepAlive 30 s: TCP keep-alives detect half-open connections
//     (e.g. a crashed server) instead of stalling a future request.
//   - MaxConnsPerHost is left 0 (unlimited): admission control belongs to
//     the caller's worker count, and a hard cap here would queue requests
//     invisibly and distort latency measurements.
func NewTransport(maxConcurrent int) *http.Transport {
	if maxConcurrent <= 0 {
		maxConcurrent = 64
	}
	return &http.Transport{
		Proxy: http.ProxyFromEnvironment,
		DialContext: (&net.Dialer{
			Timeout:   10 * time.Second,
			KeepAlive: 30 * time.Second,
		}).DialContext,
		MaxIdleConns:          maxConcurrent,
		MaxIdleConnsPerHost:   maxConcurrent,
		IdleConnTimeout:       90 * time.Second,
		TLSHandshakeTimeout:   10 * time.Second,
		ExpectContinueTimeout: time.Second,
	}
}

// maxErrorBodyBytes caps how much of an error response is read; a
// misbehaving server cannot balloon client memory.
const maxErrorBodyBytes = 4096

// maxResponseBodyBytes caps decoded success responses (a full network
// profile is well under 1 MiB).
const maxResponseBodyBytes = 8 << 20

// maxEmissionsBodyBytes caps the emission table, which grows with the
// network: the car table at 40 km/h measured 25.7 MiB on the 100× country
// network, and the cap leaves 2.5× headroom over that.
const maxEmissionsBodyBytes = 64 << 20

// decodeCapped decodes one JSON value from r into v, reading at most limit
// bytes. A body that reaches the cap fails with an error naming the cap,
// not with the decoder's bare "unexpected EOF" on the truncated value.
func decodeCapped(r io.Reader, limit int64, v any) error {
	lr := &io.LimitedReader{R: r, N: limit}
	err := json.NewDecoder(lr).Decode(v)
	if lr.N <= 0 {
		return fmt.Errorf("response body reached the client's %d MiB cap", limit>>20)
	}
	return err
}

// drainClose discards at most maxErrorBodyBytes of the remaining body and
// closes it, on every path, so the transport can reuse the connection and a
// hostile body cannot grow without bound.
func drainClose(resp *http.Response) {
	if resp == nil || resp.Body == nil {
		return
	}
	_, _ = io.Copy(io.Discard, io.LimitReader(resp.Body, maxErrorBodyBytes))
	_ = resp.Body.Close()
}

// retryable reports whether an attempt outcome warrants another try.
func retryable(resp *http.Response, err error) bool {
	if err != nil {
		return true // transport-level failure
	}
	return resp.StatusCode >= 500
}

// backoffFor computes the pre-attempt delay: exponential in the retry count,
// capped, with ±50% jitter so a fleet of phones retrying a recovering server
// does not synchronize.
func (c *Client) backoffFor(retry int) time.Duration {
	d := c.baseBackoff << uint(retry)
	if d > c.maxBackoff || d <= 0 {
		d = c.maxBackoff
	}
	return time.Duration(float64(d) * (0.5 + c.jitter()))
}

// sleepCtx waits d, or until ctx is done, and then returns ctx's error. A
// server's Retry-After can ask for years; the caller's context still bounds
// the wait.
func sleepCtx(ctx context.Context, d time.Duration) error {
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// do runs one request with the retry policy. build must return a fresh
// request each call (bodies are consumed by failed attempts). The returned
// response body is the caller's to close.
//
// The first attempt propagates the caller's span context (the method root)
// directly in the traceparent header — the common single-attempt request
// costs exactly one client span. Retry attempts each get their own child
// span, so when a request DID retry, the trace shows every attempt
// separately rather than one blurred request; an attempt span in a trace is
// itself the signal that the request was retried.
func (c *Client) do(ctx context.Context, build func(ctx context.Context) (*http.Request, error)) (*http.Response, error) {
	var lastErr error
	for attempt := 0; attempt < c.maxAttempts; attempt++ {
		if attempt > 0 {
			wait := c.backoffFor(attempt - 1)
			err := ctx.Err()
			if err == nil {
				obsCliRetries.Inc()
				obsCliBackoff.Observe(wait.Seconds())
				err = c.sleep(ctx, wait)
			}
			if err != nil {
				return nil, fmt.Errorf("cloud: giving up after %d attempts: %w", attempt, err)
			}
		}
		tryCtx := ctx
		var cancel context.CancelFunc = func() {}
		if c.perTryTimeout > 0 {
			tryCtx, cancel = context.WithTimeout(ctx, c.perTryTimeout)
		}
		var asp *obs.Span
		if attempt > 0 {
			if _, ok := obs.SpanContextFrom(tryCtx); ok || c.tr().ShouldSample() {
				tryCtx, asp = c.tr().StartCtx(tryCtx, "client:attempt", "cloud",
					obs.L("attempt", strconv.Itoa(attempt)))
			}
		}
		req, err := build(tryCtx)
		if err != nil {
			asp.End()
			cancel()
			return nil, fmt.Errorf("cloud: building request: %w", err)
		}
		if sc, ok := obs.SpanContextFrom(tryCtx); ok {
			req.Header.Set(obs.TraceparentHeader, sc.Traceparent())
		}
		resp, err := c.hc.Do(req)
		if asp != nil {
			if err != nil {
				asp.Annotate("error", err.Error())
			} else {
				asp.Annotate("status", strconv.Itoa(resp.StatusCode))
			}
			asp.End()
		}
		if !retryable(resp, err) {
			// Success or a non-retryable (4xx) response: hand it to the
			// caller. The cancel must outlive the body read, so tie it to
			// the body's Close.
			resp.Body = &cancelOnClose{rc: resp.Body, cancel: cancel}
			return resp, nil
		}
		if err != nil {
			lastErr = err
		} else {
			lastErr = fmt.Errorf("%s", readError(resp))
			drainClose(resp)
		}
		cancel()
		if ctx.Err() != nil {
			break
		}
	}
	obsCliFailures.Inc()
	return nil, fmt.Errorf("cloud: request failed after %d attempts: %w", c.maxAttempts, lastErr)
}

// cancelOnClose releases an attempt's timeout when the caller finishes
// reading the response.
type cancelOnClose struct {
	rc     io.ReadCloser
	cancel context.CancelFunc
}

func (c *cancelOnClose) Read(p []byte) (int, error) { return c.rc.Read(p) }

func (c *cancelOnClose) Close() error {
	err := c.rc.Close()
	c.cancel()
	return err
}

// gzipBytes compresses b (used for request bodies when WithGzip is on).
func gzipBytes(b []byte) ([]byte, error) {
	var buf bytes.Buffer
	gz := gzip.NewWriter(&buf)
	if _, err := gz.Write(b); err != nil {
		return nil, err
	}
	if err := gz.Close(); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// responseBody returns the reader success-path decoders should consume:
// when the server answered with Content-Encoding: gzip (which only happens
// once the client explicitly negotiated it), the body is wrapped in a gzip
// reader. Draining for connection reuse still happens on the raw resp.Body
// via drainClose, which is exactly what the transport needs to see at EOF.
func responseBody(resp *http.Response) (io.Reader, error) {
	switch enc := resp.Header.Get("Content-Encoding"); enc {
	case "", "identity":
		return resp.Body, nil
	case "gzip":
		gz, err := gzip.NewReader(resp.Body)
		if err != nil {
			return nil, fmt.Errorf("cloud: gzip response: %w", err)
		}
		return gz, nil
	default:
		return nil, fmt.Errorf("cloud: unsupported response Content-Encoding %q", enc)
	}
}

// prepareBody applies the client's request compression policy, returning
// the on-wire bytes and the Content-Encoding header value ("" for none).
func (c *Client) prepareBody(body []byte) ([]byte, string, error) {
	if !c.useGzip {
		return body, "", nil
	}
	zipped, err := gzipBytes(body)
	if err != nil {
		return nil, "", fmt.Errorf("cloud: compressing body: %w", err)
	}
	return zipped, "gzip", nil
}

// SubmitProfile uploads one vehicle's fused profile for a road. Retries are
// idempotent: the request carries a key derived from the road and payload, so
// the server stores at most one copy no matter how many attempts land.
func (c *Client) SubmitProfile(ctx context.Context, roadID string, p *fusion.Profile) error {
	if p == nil || p.Len() == 0 {
		return errors.New("cloud: empty profile")
	}
	ctx, root := c.startRoot(ctx, "client:submit", obs.L("road", roadID))
	defer root.End()
	body, err := json.Marshal(FromProfile(p))
	if err != nil {
		return fmt.Errorf("cloud: encoding profile: %w", err)
	}
	sum := sha256.Sum256(append([]byte(roadID+"\x00"), body...))
	key := hex.EncodeToString(sum[:])
	wire, contentEnc, err := c.prepareBody(body)
	if err != nil {
		return err
	}
	u := c.base + "/v1/roads/" + url.PathEscape(roadID) + "/profiles"
	resp, err := c.do(ctx, func(ctx context.Context) (*http.Request, error) {
		req, err := http.NewRequestWithContext(ctx, http.MethodPost, u, bytes.NewReader(wire))
		if err != nil {
			return nil, err
		}
		req.Header.Set("Content-Type", "application/json")
		req.Header.Set("Idempotency-Key", key)
		if contentEnc != "" {
			req.Header.Set("Content-Encoding", contentEnc)
		}
		return req, nil
	})
	if err != nil {
		return fmt.Errorf("cloud: submitting profile: %w", err)
	}
	defer drainClose(resp)
	if resp.StatusCode != http.StatusAccepted {
		return fmt.Errorf("cloud: submit failed: %s", readError(resp))
	}
	return nil
}

// FetchProfile downloads the fused profile for a road.
func (c *Client) FetchProfile(ctx context.Context, roadID string) (*fusion.Profile, error) {
	ctx, root := c.startRoot(ctx, "client:fetch", obs.L("road", roadID))
	defer root.End()
	u := c.base + "/v1/roads/" + url.PathEscape(roadID) + "/profile"
	resp, err := c.do(ctx, func(ctx context.Context) (*http.Request, error) {
		req, err := http.NewRequestWithContext(ctx, http.MethodGet, u, nil)
		if err != nil {
			return nil, err
		}
		if c.useGzip {
			req.Header.Set("Accept-Encoding", "gzip")
		}
		return req, nil
	})
	if err != nil {
		return nil, fmt.Errorf("cloud: fetching profile: %w", err)
	}
	defer drainClose(resp)
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("cloud: fetch failed: %s", readError(resp))
	}
	body, err := responseBody(resp)
	if err != nil {
		return nil, err
	}
	var dto ProfileDTO
	if err := decodeCapped(body, maxResponseBodyBytes, &dto); err != nil {
		return nil, fmt.Errorf("cloud: decoding profile: %w", err)
	}
	return dto.toProfile()
}

// Route asks GET /v1/route for an eco-route between two network nodes under
// the given objective ("" = the server default) and cruise speed (0 = the
// server default). The server must have routing enabled.
func (c *Client) Route(ctx context.Context, from, to int, objective string, speedKmh float64) (RouteDTO, error) {
	ctx, root := c.startRoot(ctx, "client:route", obs.L("objective", objective))
	defer root.End()
	q := url.Values{"from": {strconv.Itoa(from)}, "to": {strconv.Itoa(to)}}
	if objective != "" {
		q.Set("objective", objective)
	}
	if speedKmh > 0 {
		q.Set("speed_kmh", strconv.FormatFloat(speedKmh, 'g', -1, 64))
	}
	u := c.base + "/v1/route?" + q.Encode()
	var dto RouteDTO
	resp, err := c.do(ctx, func(ctx context.Context) (*http.Request, error) {
		return http.NewRequestWithContext(ctx, http.MethodGet, u, nil)
	})
	if err != nil {
		return dto, fmt.Errorf("cloud: routing: %w", err)
	}
	defer drainClose(resp)
	if resp.StatusCode != http.StatusOK {
		return dto, fmt.Errorf("cloud: route failed: %s", readError(resp))
	}
	if err := decodeCapped(resp.Body, maxResponseBodyBytes, &dto); err != nil {
		return dto, fmt.Errorf("cloud: decoding route: %w", err)
	}
	return dto, nil
}

// FetchEmissions asks GET /v1/emissions for the city-wide per-road emission
// table of one vehicle class ("" = car) at a cruise speed (0 = the server
// default). The server must have emissions enabled.
//
// The client keeps the last table it fetched per vehicle class and snapped
// speed, and asks for the rows changed since it; a delta answer is merged
// into a copy, so the table returned is the caller's to keep and equals a
// full fetch at its generation. A server without delta responses always
// answers with the full table.
func (c *Client) FetchEmissions(ctx context.Context, vehicle string, speedKmh float64) (EmissionTableDTO, error) {
	ctx, root := c.startRoot(ctx, "client:emissions", obs.L("vehicle", vehicle))
	defer root.End()
	q := url.Values{}
	if vehicle != "" {
		q.Set("vehicle", vehicle)
	}
	if speedKmh > 0 {
		q.Set("speed_kmh", strconv.FormatFloat(speedKmh, 'g', -1, 64))
	}
	key, keyed := clientEmissionKey(vehicle, speedKmh)
	var held *EmissionTableDTO
	if keyed {
		c.emisMu.Lock()
		if held = c.emis[key]; held != nil && held.Epoch != "" {
			q.Set("since", strconv.FormatUint(held.Generation, 10))
			q.Set("epoch", held.Epoch)
		}
		c.emisMu.Unlock()
	}
	u := c.base + "/v1/emissions"
	if len(q) > 0 {
		u += "?" + q.Encode()
	}
	resp, err := c.do(ctx, func(ctx context.Context) (*http.Request, error) {
		return http.NewRequestWithContext(ctx, http.MethodGet, u, nil)
	})
	if err != nil {
		return EmissionTableDTO{}, fmt.Errorf("cloud: fetching emissions: %w", err)
	}
	defer drainClose(resp)
	if resp.StatusCode != http.StatusOK {
		return EmissionTableDTO{}, fmt.Errorf("cloud: emissions fetch failed: %s", readError(resp))
	}
	var wire emissionResponseDTO
	if err := decodeCapped(resp.Body, maxEmissionsBodyBytes, &wire); err != nil {
		return EmissionTableDTO{}, fmt.Errorf("cloud: decoding emissions: %w", err)
	}
	if !keyed {
		if wire.Base != nil {
			return EmissionTableDTO{}, errEmissionDelta
		}
		return wire.EmissionTableDTO, nil
	}
	return c.keepEmissions(key, held, &wire)
}

// clientEmissionKey names the server table a FetchEmissions request reads,
// snapping the speed the way the server does. ok is false for a request
// the server will refuse.
func clientEmissionKey(vehicle string, speedKmh float64) (emisKey, bool) {
	class, err := emission.ParseVehicleClass(vehicle)
	if err != nil {
		return emisKey{}, false
	}
	if !(speedKmh > 0) {
		speedKmh = defaultEmissionSpeedKmh
	}
	key, err := emissionKey(class, speedKmh)
	return key, err == nil
}

// errEmissionDelta reports a delta that does not fit the held table.
var errEmissionDelta = errors.New("cloud: emission delta does not apply to the held table")

// keepEmissions folds resp into the key's held table and returns the
// caller's copy of the result; asked is the held table the request named,
// if any.
//
// A full table replaces the held one unless a concurrent fetch already
// holds a newer one: generations order tables from one server instance, and
// a table from another instance replaces only the table its own request was
// made against. A delta is patched into the held table in place. That is
// right for any held generation from the delta's base to its own, since the
// rows it leaves out did not change in between; a held table already past
// the delta, or from another instance, is returned as it is.
func (c *Client) keepEmissions(key emisKey, asked *EmissionTableDTO, resp *emissionResponseDTO) (EmissionTableDTO, error) {
	got := resp.EmissionTableDTO
	c.emisMu.Lock()
	defer c.emisMu.Unlock()
	cur := c.emis[key]
	if resp.Base == nil {
		newer := cur == nil || cur.Epoch == got.Epoch && cur.Generation < got.Generation ||
			cur.Epoch != got.Epoch && cur == asked
		if !newer || got.Vehicle != key.vehicle.String() || got.SpeedKmh != key.speed {
			return got, nil
		}
		if c.emis == nil {
			c.emis = make(map[emisKey]*EmissionTableDTO)
		}
		kept := got
		c.emis[key] = &kept
	} else {
		if cur == nil || cur.Epoch == got.Epoch && *resp.Base > cur.Generation {
			return EmissionTableDTO{}, errEmissionDelta
		}
		if cur.Epoch == got.Epoch && cur.Generation < got.Generation {
			if got.Vehicle != cur.Vehicle || got.SpeedKmh != cur.SpeedKmh || len(resp.Index) != len(got.Roads) {
				return EmissionTableDTO{}, errEmissionDelta
			}
			for _, i := range resp.Index {
				if i < 0 || i >= len(cur.Roads) {
					return EmissionTableDTO{}, fmt.Errorf("cloud: emission delta row %d outside the %d-row table", i, len(cur.Roads))
				}
			}
			for k, i := range resp.Index {
				cur.Roads[i] = got.Roads[k]
			}
			cur.Generation = got.Generation
		}
		got = *cur
	}
	got.Roads = slices.Clone(got.Roads)
	return got, nil
}

// ListRoads fetches the submission summary.
func (c *Client) ListRoads(ctx context.Context) ([]RoadStatus, error) {
	resp, err := c.do(ctx, func(ctx context.Context) (*http.Request, error) {
		return http.NewRequestWithContext(ctx, http.MethodGet, c.base+"/v1/roads", nil)
	})
	if err != nil {
		return nil, fmt.Errorf("cloud: listing roads: %w", err)
	}
	defer drainClose(resp)
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("cloud: list failed: %s", readError(resp))
	}
	var out []RoadStatus
	if err := decodeCapped(resp.Body, maxResponseBodyBytes, &out); err != nil {
		return nil, fmt.Errorf("cloud: decoding road list: %w", err)
	}
	return out, nil
}

// ProfileKey derives a content-based idempotency key for one submission:
// sha256 over the road id and the profile's raw float bits. Fleets that
// already track per-device sequence numbers should pass their own cheaper
// keys instead.
func ProfileKey(roadID string, p *fusion.Profile) string {
	h := sha256.New()
	h.Write([]byte(roadID))
	h.Write([]byte{0})
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], math.Float64bits(p.SpacingM))
	h.Write(b[:])
	for _, g := range p.GradeRad {
		binary.LittleEndian.PutUint64(b[:], math.Float64bits(g))
		h.Write(b[:])
	}
	for _, v := range p.Var {
		binary.LittleEndian.PutUint64(b[:], math.Float64bits(v))
		h.Write(b[:])
	}
	return hex.EncodeToString(h.Sum(nil))
}

// encodeBatch builds the wire body for the configured codec.
func (c *Client) encodeBatch(items []BatchItem) (body []byte, contentType string, err error) {
	if c.binaryBatch {
		body, err = EncodeBatchBinary(items)
		return body, ContentTypeBinary, err
	}
	dto := batchRequestDTO{Items: make([]batchItemDTO, len(items))}
	for i := range items {
		dto.Items[i] = batchItemDTO{
			RoadID:  items[i].RoadID,
			Key:     items[i].Key,
			Device:  items[i].Device,
			Profile: FromProfile(items[i].Profile),
		}
	}
	body, err = json.Marshal(dto)
	return body, ContentTypeJSON, err
}

// SubmitBatch uploads many submissions in one request and returns per-item
// outcomes aligned with items. Items without a Key get a content-derived
// one, so every retry path is idempotent. Transport errors and 5xx are
// retried by the usual backoff machinery; shed items (server admission
// control, HTTP 429) are re-submitted — just the shed subset — after the
// server's Retry-After hint (or the backoff, whichever is longer) until the
// attempt budget runs out. A nil error means the protocol ran to
// completion; callers must still inspect the per-item statuses ("accepted",
// "duplicate", "rejected", "shed").
func (c *Client) SubmitBatch(ctx context.Context, items []BatchItem) ([]BatchItemResult, error) {
	if len(items) == 0 {
		return nil, errors.New("cloud: empty batch")
	}
	for i := range items {
		if items[i].Profile == nil || items[i].Profile.Len() == 0 {
			return nil, fmt.Errorf("cloud: batch item %d: empty profile", i)
		}
		if items[i].Key == "" {
			items[i].Key = ProfileKey(items[i].RoadID, items[i].Profile)
		}
	}
	// One root span covers the whole batched submission: the first send,
	// every shed-subset retry, and (through the traceparent each attempt
	// carries) the server's handler spans and the coalescer's fold span —
	// one trace id, end to end.
	ctx, root := c.startRoot(ctx, "client:submit_batch",
		obs.L("items", strconv.Itoa(len(items))))
	defer root.End()
	results := make([]BatchItemResult, len(items))
	// pending maps the current wire batch's positions onto results indices.
	pending := make([]int, len(items))
	for i := range pending {
		pending[i] = i
	}
	batch := items
	for attempt := 0; ; attempt++ {
		// The first send rides the root span; each shed-subset retry gets its
		// own attempt span (mirroring do's per-attempt policy), so a trace
		// containing client:attempt spans is precisely one that retried.
		sendCtx := ctx
		var asp *obs.Span
		if attempt > 0 {
			if _, ok := obs.SpanContextFrom(ctx); ok {
				sendCtx, asp = c.tr().StartCtx(ctx, "client:attempt", "cloud",
					obs.L("attempt", strconv.Itoa(attempt)),
					obs.L("items", strconv.Itoa(len(batch))))
			}
		}
		res, retryAfter, err := c.submitBatchOnce(sendCtx, batch)
		asp.End()
		if err != nil {
			root.Annotate("error", err.Error())
			return nil, err
		}
		if len(res) != len(batch) {
			return nil, fmt.Errorf("cloud: batch response has %d results for %d items", len(res), len(batch))
		}
		var shedIdx []int
		for i, r := range res {
			results[pending[i]] = r
			if r.Status == statusShed {
				shedIdx = append(shedIdx, pending[i])
			}
		}
		if len(shedIdx) == 0 || attempt+1 >= c.maxAttempts {
			return results, nil
		}
		root.Annotate("shed_retry", strconv.Itoa(len(shedIdx)))
		wait := c.backoffFor(attempt)
		if retryAfter > wait {
			wait = retryAfter
		}
		if ctx.Err() != nil {
			return results, nil
		}
		obsCliRetries.Inc()
		obsCliBackoff.Observe(wait.Seconds())
		if c.sleep(ctx, wait) != nil {
			return results, nil
		}
		batch = make([]BatchItem, len(shedIdx))
		for i, idx := range shedIdx {
			batch[i] = items[idx]
		}
		pending = shedIdx
	}
}

// submitBatchOnce runs one batch request (with transport-level retries) and
// decodes the per-item results plus any Retry-After hint.
func (c *Client) submitBatchOnce(ctx context.Context, batch []BatchItem) ([]BatchItemResult, time.Duration, error) {
	body, contentType, err := c.encodeBatch(batch)
	if err != nil {
		return nil, 0, fmt.Errorf("cloud: encoding batch: %w", err)
	}
	wire, contentEnc, err := c.prepareBody(body)
	if err != nil {
		return nil, 0, err
	}
	resp, err := c.do(ctx, func(ctx context.Context) (*http.Request, error) {
		req, err := http.NewRequestWithContext(ctx, http.MethodPost, c.base+"/v1/submit-batch", bytes.NewReader(wire))
		if err != nil {
			return nil, err
		}
		req.Header.Set("Content-Type", contentType)
		if contentEnc != "" {
			req.Header.Set("Content-Encoding", contentEnc)
		}
		if c.useGzip {
			req.Header.Set("Accept-Encoding", "gzip")
		}
		return req, nil
	})
	if err != nil {
		return nil, 0, fmt.Errorf("cloud: submitting batch: %w", err)
	}
	defer drainClose(resp)
	if resp.StatusCode != http.StatusOK && resp.StatusCode != http.StatusTooManyRequests {
		return nil, 0, fmt.Errorf("cloud: batch submit failed: %s", readError(resp))
	}
	retryAfter := parseRetryAfter(resp.Header.Get("Retry-After"), time.Now())
	rb, err := responseBody(resp)
	if err != nil {
		return nil, 0, err
	}
	var dto batchResponseDTO
	if err := decodeCapped(rb, maxResponseBodyBytes, &dto); err != nil {
		return nil, 0, fmt.Errorf("cloud: decoding batch response: %w", err)
	}
	return dto.Results, retryAfter, nil
}

// parseRetryAfter interprets a Retry-After value per RFC 9110 §10.2.3:
// either non-negative delta-seconds or an HTTP-date (IMF-fixdate, obsolete
// RFC 850, or ANSI C asctime — http.ParseTime accepts all three). now
// anchors the date form. An absent, malformed, zero, or already-elapsed
// value yields 0 (no server hint; the client falls back to its own backoff).
// Delta-seconds beyond the longest time.Duration saturate at it.
func parseRetryAfter(v string, now time.Time) time.Duration {
	if v == "" {
		return 0
	}
	if secs, err := strconv.ParseInt(v, 10, 64); err == nil || errors.Is(err, strconv.ErrRange) {
		switch {
		case secs <= 0:
			return 0
		case secs > math.MaxInt64/int64(time.Second):
			return math.MaxInt64
		}
		return time.Duration(secs) * time.Second
	}
	if t, err := http.ParseTime(v); err == nil {
		if d := t.Sub(now); d > 0 {
			return d
		}
	}
	return 0
}

func readError(resp *http.Response) string {
	var body errorBody
	data, err := io.ReadAll(io.LimitReader(resp.Body, maxErrorBodyBytes))
	if err == nil && json.Unmarshal(data, &body) == nil && body.Error != "" {
		return fmt.Sprintf("%s (HTTP %d)", body.Error, resp.StatusCode)
	}
	return fmt.Sprintf("HTTP %d", resp.StatusCode)
}
