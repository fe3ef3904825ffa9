package main

import (
	"context"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"hash"
	"math"
	"math/rand"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"runtime/metrics"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"
	"unsafe"

	"roadgrade/internal/cloud"
	"roadgrade/internal/ecoroute"
	"roadgrade/internal/fusion"
	"roadgrade/internal/obs"
	"roadgrade/internal/road"
)

// networkSeed generates the paper's 164.8 km city (road.Charlottesville) and
// its country-scale blow-ups. The network is fixed; --seed varies everything
// driven over it.
const networkSeed = 1827

// loadConns is the client side's whole footprint: at most two load
// goroutines, each with one request in flight, over at most two connections.
const loadConns = 2

// sizes is how much work one run does. Production sizes follow --seconds;
// the smoke test shrinks them.
type sizes struct {
	// A run sets up at least setups times, and more, up to maxSetups, until
	// the set-ups have taken setupTime, half before the measured phase and
	// half after it; setup_s reports their median.
	setups    int
	setupTime time.Duration
	seconds   float64 // length of the open-loop schedules
	drives    int     // crowdloop-city fleet drives
	batches   int     // ingest-fleet batches per client
	scale     float64 // route-country network, × the paper's 164.8 km
}

// maxSetups caps the set-ups of one run.
const maxSetups = 80

// sizesFor sizes a run so its measured phase lasts about the given seconds
// on a 2-core host. The city fleet's batches are due on a fixed schedule;
// the ingest clients are closed-loop and get through ~60 rounds of two
// batches a second.
func sizesFor(seconds int) sizes {
	s := float64(seconds)
	return sizes{
		setups:    5,
		setupTime: 2 * time.Second,
		seconds:   s,
		drives:    drivesPerBatch * int(s*float64(time.Second)/float64(cityBatchPeriod)),
		batches:   int(60 * s),
		scale:     25,
	}
}

// metric is one reported value with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// endToEnd lists the metrics an untraced run reports, with their units.
// Every workload defines each one; README.md gives the per-workload meaning.
//
// The tails are not among them: they go to the run record's tails_ms,
// without a bound. A request percentile sits where the reader starts to
// meet a refresh or a probe, and a city freshness percentile where probes
// start to meet a garbage collection, so each moves with how many meet one:
// over ten seeds of unchanged code their 95th percentiles spread up to 0.41
// and 0.30 of their medians, beyond any bound a regression check may use
// (README.md).
var endToEnd = map[string]string{
	"setup_s":          "s",
	"peak_heap_mb":     "MB",
	"request_p50_ms":   "ms",
	"freshness_p50_ms": "ms",
	"unit_cost_ms":     "ms",
	"map_mae_deg":      "deg",
}

// setTails sets the percentiles the run record reports beside the
// end-to-end metrics: of the request latencies (n = 3,000 to 5,000) and of
// the freshness probes (n = 250 to 3,000, so no higher than the 95th).
func (h *harness) setTails(request, fresh []float64) {
	h.tails = map[string]float64{
		"request_p95":   quantile(request, 0.95),
		"request_p99":   quantile(request, 0.99),
		"freshness_p95": quantile(fresh, 0.95),
	}
}

// harness is one workload run: its inputs, its accounting and its results.
type harness struct {
	seed int64
	size sizes
	// tr collects the harness spans of a traced run. It is nil otherwise,
	// which makes every span call a no-op.
	tr     *obs.Tracer
	tamper bool // see options.tamper

	inputs  *digest // fingerprint of every generated input
	digests map[string]string
	counts  map[string]int64

	ops    atomic.Int64 // operations and checks attempted
	failed atomic.Int64 // operations that errored and checks that failed

	mu       sync.Mutex
	problems []string

	// Harness-side tallies behind the per-layer metrics.
	km         float64       // km driven through the phone pipeline
	records    int           // sensor records pushed through core.Streaming
	gen        time.Duration // input generation inside the measured phase
	lateness   []float64     // open-loop send lateness, ms
	cchFrac    []float64     // arcs recomputed / total after each probe
	codecItems int
	codecBytes int

	stackCfg    stackConfig // what every set-up builds
	setupS      []float64
	phase       *phase
	start       time.Time          // harness creation
	phaseEnd    time.Time          // end of the measured phase
	stages      map[string]float64 // wall seconds per stage of the run
	e2e         map[string]float64
	tails       map[string]float64 // request and freshness percentiles, ms; see endToEnd
	layers      map[string]float64
	droppedBase uint64
}

func newHarness(opt options, size sizes) *harness {
	h := &harness{
		seed:    opt.seed,
		size:    size,
		tamper:  opt.tamper,
		inputs:  newDigest(),
		digests: make(map[string]string),
		counts:  make(map[string]int64),
		e2e:     make(map[string]float64),
		start:   time.Now(),
		stages:  make(map[string]float64),
	}
	if opt.trace {
		h.tr = &obs.Tracer{}
		h.tr.SetCapacity(1 << 18)
		h.tr.Enable()
		h.droppedBase = obs.Default.Counter("tracer_spans_dropped_total").Value()
	}
	return h
}

// rng returns a generator for one input stream of this run.
func (h *harness) rng(stream int64) *rand.Rand {
	return rand.New(rand.NewSource(h.seed*1_000_003 + stream))
}

// op accounts one operation against the system; err marks it failed.
func (h *harness) op(what string, err error) bool {
	h.ops.Add(1)
	if err == nil {
		return true
	}
	h.failed.Add(1)
	h.problem("%s: %v", what, err)
	return false
}

// check accounts one correctness check.
func (h *harness) check(ok bool, format string, args ...any) {
	h.ops.Add(1)
	if !ok {
		h.failed.Add(1)
		h.problem(format, args...)
	}
}

func (h *harness) problem(format string, args ...any) {
	h.mu.Lock()
	defer h.mu.Unlock()
	if len(h.problems) < 20 {
		h.problems = append(h.problems, fmt.Sprintf(format, args...))
	}
}

// stackConfig is the system under test for one workload.
type stackConfig struct {
	netCfg    road.NetworkConfig
	policy    fusion.FusionPolicy
	algorithm string // routing engine; "" leaves routing off
	emissions bool
	// prefill holds rounds of one anonymous profile per network edge,
	// submitted before serving.
	prefill [][]*fusion.Profile
	// warm runs queries that fill the lazy caches before timing starts.
	warm func(*stack) error
}

// stack is a running system: network, fusion server with the cloudfuse
// defaults (32 shards, write coalescing with BatchMax 256), optional routing
// and emission endpoints, all behind a loopback HTTP listener.
type stack struct {
	network *road.Network
	srv     *cloud.Server
	eng     *ecoroute.Engine
	hs      *http.Server
	served  chan struct{}
	base    string
	tr      *http.Transport
	hc      *http.Client
}

func startStack(cfg stackConfig) (*stack, error) {
	network, err := road.GenerateNetwork(networkSeed, cfg.netCfg)
	if err != nil {
		return nil, fmt.Errorf("generating network: %w", err)
	}
	srv := cloud.NewServer()
	srv.Policy = cfg.policy
	srv.EnableCoalescing(cloud.CoalesceConfig{BatchMax: 256})
	st := &stack{network: network, srv: srv, served: make(chan struct{})}
	if cfg.algorithm != "" {
		eng, err := ecoroute.NewEngine(network, ecoroute.CloudSource{Store: srv}, ecoroute.Config{Algorithm: cfg.algorithm})
		if err != nil {
			srv.Close()
			return nil, fmt.Errorf("building routing engine: %w", err)
		}
		srv.EnableRouting(eng)
		st.eng = eng
	}
	if cfg.emissions {
		if err := srv.EnableEmissions(network); err != nil {
			srv.Close()
			return nil, err
		}
	}
	if err := prefill(srv, network, cfg.prefill); err != nil {
		srv.Close()
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		srv.Close()
		return nil, fmt.Errorf("listening: %w", err)
	}
	st.hs = &http.Server{Handler: srv.Handler(), ReadHeaderTimeout: 5 * time.Second}
	go func() {
		defer close(st.served)
		_ = st.hs.Serve(ln)
	}()
	st.base = "http://" + ln.Addr().String()
	st.tr = cloud.NewTransport(loadConns)
	st.tr.MaxConnsPerHost = loadConns
	st.hc = &http.Client{Transport: st.tr}
	if cfg.warm != nil {
		if err := cfg.warm(st); err != nil {
			st.close()
			return nil, fmt.Errorf("warming up: %w", err)
		}
	}
	return st, nil
}

// prefill submits rounds of one anonymous profile per network edge.
func prefill(srv *cloud.Server, nw *road.Network, rounds [][]*fusion.Profile) error {
	for _, round := range rounds {
		for i, p := range round {
			if err := srv.Submit(nw.Edges[i].Road.ID(), p); err != nil {
				return fmt.Errorf("prefilling road %d: %w", i, err)
			}
		}
	}
	return nil
}

// client returns a client for one load goroutine: binary batches, the
// cloudload retry policy.
func (st *stack) client() *cloud.Client {
	c, err := cloud.NewClient(st.base, st.hc,
		cloud.WithBinaryBatch(true),
		cloud.WithRetry(4, 50*time.Millisecond, time.Second),
		cloud.WithPerTryTimeout(30*time.Second))
	if err != nil {
		panic(err) // NewClient fails only on an empty base URL
	}
	return c
}

// close stops the listener, waits for it, and drains the coalescer.
func (st *stack) close() {
	_ = st.hs.Close()
	<-st.served
	st.srv.Close()
	st.tr.CloseIdleConnections()
}

// setUp runs the first half of the run's set-ups and keeps the last stack
// for the measured phase; setUpAgain runs the second half after the phase.
//
// A city or ingest set-up takes 15 to 50 ms, and the host's two CPUs each
// switch, every few seconds, between a fast state and one about 1.6× slower
// (another tenant on the same physical core). Set-ups made back to back fall
// within one or two such states, so their median jumped between the two
// from run to run while the measured phase averaged over many. Split around the
// phase, set-ups sample the host over the same span the phase metrics do.
func (h *harness) setUp(cfg stackConfig) (*stack, error) {
	h.stages["inputs"] = time.Since(h.start).Seconds()
	h.stackCfg = cfg
	begin := time.Now()
	defer func() { h.stages["setups"] = time.Since(begin).Seconds() }()
	return h.setUps((h.size.setups+1)/2, true)
}

// setUpAgain runs the rest of the run's set-ups once the workload and its
// checks are done.
func (h *harness) setUpAgain() error {
	begin := time.Now()
	defer func() { h.stages["setups_after"] = time.Since(begin).Seconds() }()
	_, err := h.setUps(h.size.setups/2, false)
	return err
}

// setUps builds the stack at least n times, and more, up to maxSetups/2,
// until the builds have taken half of setupTime, timing each build. It
// closes every stack but, when keep is set, the last, which it returns.
func (h *harness) setUps(n int, keep bool) (*stack, error) {
	var st *stack
	var spent time.Duration
	for i := 0; i < n || (spent < h.size.setupTime/2 && i < maxSetups/2); i++ {
		if st != nil {
			st.close()
			st = nil
		}
		runtime.GC()
		t0 := time.Now()
		s, err := startStack(h.stackCfg)
		if err != nil {
			return nil, err
		}
		d := time.Since(t0)
		spent += d
		h.setupS = append(h.setupS, d.Seconds())
		st = s
	}
	if !keep && st != nil {
		st.close()
		st = nil
	}
	return st, nil
}

// phase is what the harness observed around the measured part of a run.
type phase struct {
	wall     time.Duration
	cpu      time.Duration // process user+system time
	peakHeap uint64        // max sampled heap-in-use bytes
	maxQueue int           // max sampled coalescer queue depth
	reg      map[string]float64
	gcCycles uint32
	gcPause  time.Duration
	alloc    uint64
}

// measure runs body as the measured phase, sampling heap and coalescer queue
// depth every 10 ms and taking obs.Default and runtime deltas around it.
func (h *harness) measure(srv *cloud.Server, body func()) *phase {
	runtime.GC()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	reg0 := readRegistry()
	cpu0 := cpuTime()
	p := &phase{}
	stop := make(chan struct{})
	sampled := make(chan struct{})
	go func() {
		defer close(sampled)
		samples := []metrics.Sample{
			{Name: "/memory/classes/heap/objects:bytes"},
			{Name: "/memory/classes/heap/unused:bytes"},
		}
		tick := time.NewTicker(10 * time.Millisecond)
		defer tick.Stop()
		for {
			metrics.Read(samples)
			if inUse := samples[0].Value.Uint64() + samples[1].Value.Uint64(); inUse > p.peakHeap {
				p.peakHeap = inUse
			}
			if _, queued, _ := srv.CoalesceStats(); queued > p.maxQueue {
				p.maxQueue = queued
			}
			select {
			case <-stop:
				return
			case <-tick.C:
			}
		}
	}()
	t0 := time.Now()
	body()
	h.phaseEnd = time.Now()
	p.wall = h.phaseEnd.Sub(t0)
	h.stages["phase"] = p.wall.Seconds()
	close(stop)
	<-sampled
	p.cpu = cpuTime() - cpu0
	reg1 := readRegistry()
	runtime.ReadMemStats(&m1)
	p.reg = make(map[string]float64, len(reg1))
	for k, v := range reg1 {
		p.reg[k] = v - reg0[k]
	}
	p.gcCycles = m1.NumGC - m0.NumGC
	p.gcPause = time.Duration(m1.PauseTotalNs - m0.PauseTotalNs)
	p.alloc = m1.TotalAlloc - m0.TotalAlloc
	return p
}

// cpuTime is the process's user plus system CPU time.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// threadCPU is the calling OS thread's CPU time. The caller must hold its
// thread with runtime.LockOSThread for deltas to mean anything.
func threadCPU() time.Duration {
	const clockThreadCPUTimeID = 3
	var ts syscall.Timespec
	if _, _, errno := syscall.Syscall(syscall.SYS_CLOCK_GETTIME, clockThreadCPUTimeID, uintptr(unsafe.Pointer(&ts)), 0); errno != 0 {
		return 0
	}
	return time.Duration(ts.Nano())
}

// finish keeps the measured phase and fills the phase metrics every
// workload shares; run adds setup_s once the last set-up is done.
func (h *harness) finish(p *phase) {
	h.phase = p
	h.e2e["peak_heap_mb"] = float64(p.peakHeap) / (1 << 20)
}

// traceDone derives the per-layer metrics once the workload, including its
// untimed post-phase codec pass, has run, and exports the spans.
func (h *harness) traceDone(path string) error {
	h.layers = h.perLayer(h.phase)
	if d := obs.Default.Counter("tracer_spans_dropped_total").Value() - h.droppedBase; d > 0 {
		h.check(false, "trace ring dropped %d spans", d)
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := h.tr.WriteChromeTrace(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// openLoop issues n operations on a fixed schedule, one every period, one at
// a time. Each latency runs from the scheduled send time, so a stall is
// charged to the operations queued behind it too; lateness is how far behind
// schedule each send went out. Both are in milliseconds.
func openLoop(n int, period time.Duration, do func(i int)) (lat, late []float64) {
	lat = make([]float64, 0, n)
	late = make([]float64, 0, n)
	start := time.Now()
	for i := 0; i < n; i++ {
		due := start.Add(time.Duration(i) * period)
		if d := time.Until(due); d > 0 {
			time.Sleep(d)
		}
		late = append(late, ms(time.Since(due)))
		do(i)
		lat = append(lat, ms(time.Since(due)))
	}
	return lat, late
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// quantile returns the q-quantile of xs by linear interpolation (0 when
// empty).
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(pos)
	if lo >= len(s)-1 {
		return s[len(s)-1]
	}
	return s[lo] + (pos-float64(lo))*(s[lo+1]-s[lo])
}

// query is one generated route request.
type query struct {
	from, to int
	routeKind
}

// routeKind is one objective asked at one cruise speed.
type routeKind struct {
	obj ecoroute.Objective
	kmh float64
}

// genQueries draws n route requests between nodes of the largest strongly
// connected component, so every pair has a path, each of a kind drawn
// uniformly from kinds.
func (h *harness) genQueries(rng *rand.Rand, nw *road.Network, n int, kinds []routeKind) []query {
	nodes := largestSCC(nw)
	qs := make([]query, n)
	for i := range qs {
		from := nodes[rng.Intn(len(nodes))]
		to := nodes[rng.Intn(len(nodes))]
		for to == from {
			to = nodes[rng.Intn(len(nodes))]
		}
		qs[i] = query{from: from, to: to, routeKind: kinds[rng.Intn(len(kinds))]}
		h.inputs.ints(from, to)
		h.inputs.str(qs[i].obj.String())
		h.inputs.floats(qs[i].kmh)
	}
	return qs
}

// warmRoutes runs one route of each kind, which fills the engine's lazy
// cost tables, landmarks or customizations before timing.
func warmRoutes(st *stack, q query, kinds []routeKind) error {
	cl := st.client()
	for _, k := range kinds {
		if _, err := cl.Route(context.Background(), q.from, q.to, k.obj.String(), k.kmh); err != nil {
			return err
		}
	}
	return nil
}

// readRoutes runs the open-loop route reader over qs at rate queries per
// second and returns the latencies from scheduled send time.
func (h *harness) readRoutes(cl *cloud.Client, qs []query, rate float64) []float64 {
	ctx := context.Background()
	lat, late := openLoop(len(qs), time.Duration(float64(time.Second)/rate), func(i int) {
		q := qs[i]
		_, sp := h.tr.StartCtx(ctx, "cloud.client.route", "cloud", obs.L("objective", q.obj.String()))
		_, err := cl.Route(ctx, q.from, q.to, q.obj.String(), q.kmh)
		sp.End()
		h.op("route", err)
	})
	h.mu.Lock()
	h.lateness = append(h.lateness, late...)
	h.mu.Unlock()
	return lat
}

// largestSCC returns the node IDs of the network's largest strongly
// connected component, in node order (Kosaraju, iterative).
func largestSCC(nw *road.Network) []int {
	n := len(nw.Nodes)
	idx := make(map[int]int, n)
	for i, nd := range nw.Nodes {
		idx[nd.ID] = i
	}
	seen := make([]bool, n)
	order := make([]int, 0, n)
	type frame struct{ v, next int }
	var stack []frame
	for s := 0; s < n; s++ {
		if seen[s] {
			continue
		}
		seen[s] = true
		stack = append(stack, frame{v: s})
		for len(stack) > 0 {
			top := &stack[len(stack)-1]
			out := nw.Outgoing(nw.Nodes[top.v].ID)
			if top.next < len(out) {
				w := idx[out[top.next].To]
				top.next++
				if !seen[w] {
					seen[w] = true
					stack = append(stack, frame{v: w})
				}
				continue
			}
			order = append(order, top.v)
			stack = stack[:len(stack)-1]
		}
	}
	comp := make([]int, n)
	for i := range comp {
		comp[i] = -1
	}
	var size []int
	var todo []int
	for k := n - 1; k >= 0; k-- {
		s := order[k]
		if comp[s] >= 0 {
			continue
		}
		c := len(size)
		size = append(size, 0)
		comp[s] = c
		todo = append(todo[:0], s)
		for len(todo) > 0 {
			v := todo[len(todo)-1]
			todo = todo[:len(todo)-1]
			size[c]++
			for _, e := range nw.Incoming(nw.Nodes[v].ID) {
				if u := idx[e.From]; comp[u] < 0 {
					comp[u] = c
					todo = append(todo, u)
				}
			}
		}
	}
	best := 0
	for c := range size {
		if size[c] > size[best] {
			best = c
		}
	}
	var ids []int
	for v, c := range comp {
		if c == best {
			ids = append(ids, nw.Nodes[v].ID)
		}
	}
	return ids
}

// truthProfile returns a road's ground-truth grade on the 5 m fusion grid
// plus independent noise of the given sigma (radians), reporting sigma² as
// its variance — a phone estimate with a known error level.
func truthProfile(r *road.Road, sigma float64, rng *rand.Rand) *fusion.Profile {
	n := int(r.Length()/5) + 1
	p := &fusion.Profile{SpacingM: 5, S: make([]float64, n), GradeRad: make([]float64, n), Var: make([]float64, n)}
	for i := range p.S {
		p.S[i] = float64(i) * 5
		p.GradeRad[i] = r.GradeAt(math.Min(p.S[i], r.Length())) + sigma*rng.NormFloat64()
		p.Var[i] = sigma * sigma
	}
	return p
}

// profileErr returns a profile's summed absolute grade error against the
// road's ground truth, in degrees, and the number of cells compared.
func profileErr(r *road.Road, p *fusion.Profile) (float64, int) {
	var sum float64
	n := 0
	for i, s := range p.S {
		if s > r.Length() {
			break
		}
		sum += math.Abs(p.GradeRad[i] - r.GradeAt(s))
		n++
	}
	return sum * 180 / math.Pi, n
}

// mapState digests a server's fused map road by road in network order and
// measures its mean absolute error against ground truth (degrees).
func mapState(srv *cloud.Server, nw *road.Network) (string, float64) {
	d := newDigest()
	var sum float64
	cells := 0
	for _, e := range nw.Edges {
		p, err := srv.Fused(e.Road.ID())
		if err != nil {
			d.str("-")
			continue
		}
		d.profile(p)
		s, n := profileErr(e.Road, p)
		sum += s
		cells += n
	}
	if cells == 0 {
		return d.sum(), 0
	}
	return d.sum(), sum / float64(cells)
}

// probe is one freshness probe's routes, kept for the reference check.
type probe struct {
	after    int // index of the batch the probe followed
	from, to int
	kinds    []routeKind
	cost     []float64 // served route costs, aligned with kinds
}

// probeRoutes routes one query of each kind along one road, reporting
// whether every query succeeded.
func (h *harness) probeRoutes(ctx context.Context, cl *cloud.Client, after int, e *road.Edge, kinds []routeKind) (probe, bool) {
	p := probe{after: after, from: e.From, to: e.To, kinds: kinds}
	for _, k := range kinds {
		obj := k.obj.String()
		_, sp := h.tr.StartCtx(ctx, "cloud.client.route", "cloud", obs.L("objective", obj))
		r, err := cl.Route(ctx, e.From, e.To, obj, k.kmh)
		sp.End()
		if !h.op("probe "+obj+" route", err) {
			return p, false
		}
		p.cost = append(p.cost, r.Cost)
	}
	return p, true
}

// verifyReplay is the routing workloads' reference check, run after the
// measured phase. It replays the prefill rounds and every sent batch, as the
// server decoded it, into a second server that folds them directly, and
// routes every step-th probe's query with Dijkstra on exactly the store that
// probe saw: the served costs must match bit for bit. The replayed map must
// also digest to served, the served map's digest.
func (h *harness) verifyReplay(nw *road.Network, rounds [][]*fusion.Profile, batches [][]cloud.BatchItem, probes []probe, step int, served string) error {
	srv := cloud.NewServer()
	if err := prefill(srv, nw, rounds); err != nil {
		return err
	}
	eng, err := ecoroute.NewEngine(nw, ecoroute.CloudSource{Store: srv}, ecoroute.Config{})
	if err != nil {
		return err
	}
	next := 0
	for k, batch := range batches {
		items, err := h.roundTrip(batch)
		if err != nil {
			return fmt.Errorf("re-encoding batch %d: %w", k, err)
		}
		for _, it := range items {
			if err := srv.SubmitDevice(it.RoadID, it.Device, it.Profile); err != nil {
				return fmt.Errorf("replaying batch %d: %w", k, err)
			}
		}
		for ; next < len(probes) && probes[next].after == k; next++ {
			if next%step == 0 {
				h.verifyProbe(eng, probes[next])
			}
		}
	}
	replayed, _ := mapState(srv, nw)
	h.check(replayed == served, "fused map %s differs from a direct replay of the same submissions (%s)", served, replayed)
	return nil
}

func (h *harness) verifyProbe(eng *ecoroute.Engine, p probe) {
	for i, k := range p.kinds {
		ref, err := eng.RouteDijkstra(k.obj, k.kmh, p.from, p.to)
		if err != nil {
			h.check(false, "reference %v route %d->%d at %v km/h: %v", k.obj, p.from, p.to, k.kmh, err)
			continue
		}
		h.check(math.Float64bits(ref.Cost) == math.Float64bits(p.cost[i]),
			"probe after batch %d: served %v cost at %v km/h %v, Dijkstra %v", p.after, k.obj, k.kmh, p.cost[i], ref.Cost)
	}
}

// roundTrip re-encodes and decodes one sent batch with the binary codec,
// which yields the profiles exactly as the server decoded them.
func (h *harness) roundTrip(items []cloud.BatchItem) ([]cloud.BatchItem, error) {
	ctx := context.Background()
	_, sp := h.tr.StartCtx(ctx, "cloud.codec.encode", "codec")
	wire, err := cloud.EncodeBatchBinary(items)
	sp.End()
	if err != nil {
		return nil, err
	}
	_, sp = h.tr.StartCtx(ctx, "cloud.codec.decode", "codec")
	out, err := cloud.DecodeBatchBinary(wire)
	sp.End()
	h.codecItems += len(items)
	h.codecBytes += len(wire)
	return out, err
}

// digest is a SHA-256 over values by their exact bits.
type digest struct {
	h   hash.Hash
	buf []byte
}

func newDigest() *digest { return &digest{h: sha256.New()} }

func (d *digest) flush() {
	d.h.Write(d.buf)
	d.buf = d.buf[:0]
}

func (d *digest) floats(xs ...float64) {
	for _, x := range xs {
		d.buf = binary.LittleEndian.AppendUint64(d.buf, math.Float64bits(x))
	}
	if len(d.buf) > 4096 {
		d.flush()
	}
}

func (d *digest) ints(xs ...int) {
	for _, x := range xs {
		d.buf = binary.LittleEndian.AppendUint64(d.buf, uint64(x))
	}
	if len(d.buf) > 4096 {
		d.flush()
	}
}

func (d *digest) str(s string) {
	d.ints(len(s))
	d.buf = append(d.buf, s...)
}

func (d *digest) profile(p *fusion.Profile) {
	d.floats(p.SpacingM)
	d.ints(len(p.S))
	d.floats(p.S...)
	d.floats(p.GradeRad...)
	d.floats(p.Var...)
}

func (d *digest) sum() string {
	d.flush()
	return hex.EncodeToString(d.h.Sum(nil))
}

// record is the run's provenance line: where and on what it ran, what it
// fed the system and what the system produced.
type record struct {
	Workload  string             `json:"workload"`
	Seed      int64              `json:"seed"`
	Seconds   int                `json:"seconds"`
	Traced    bool               `json:"traced"`
	Host      map[string]any     `json:"host"`
	Build     map[string]string  `json:"build"`
	Inputs    string             `json:"inputs_sha256"`
	Digests   map[string]string  `json:"digests"`
	Counts    map[string]int64   `json:"counts"`
	SetupS    []float64          `json:"setup_runs_s"`
	StagesS   map[string]float64 `json:"stages_s"`
	EndToEnd  map[string]metric  `json:"end_to_end"`
	Tails     map[string]float64 `json:"tails_ms"`
	Problems  []string           `json:"problems,omitempty"`
	TraceFile string             `json:"trace_file,omitempty"`
}

func (h *harness) record(opt options) *record {
	build := map[string]string{"go": runtime.Version(), "vcs.revision": "unknown", "vcs.modified": "unknown"}
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" || s.Key == "vcs.modified" {
				build[s.Key] = s.Value
			}
		}
	}
	rec := &record{
		Workload: opt.workload,
		Seed:     opt.seed,
		Seconds:  opt.seconds,
		Traced:   opt.trace,
		Host: map[string]any{
			"cpu":        cpuModel(),
			"num_cpu":    runtime.NumCPU(),
			"gomaxprocs": runtime.GOMAXPROCS(0),
		},
		Build:    build,
		Inputs:   h.inputs.sum(),
		Digests:  h.digests,
		Counts:   h.counts,
		SetupS:   h.setupS,
		StagesS:  h.stages,
		EndToEnd: withUnits(h.e2e, endToEnd),
		Tails:    h.tails,
		Problems: h.problems,
	}
	if opt.trace {
		rec.TraceFile = opt.traceOut
	}
	return rec
}

func cpuModel() string {
	b, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(b), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// result is the benchmark's last output line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func (h *harness) result() *result {
	ms := withUnits(h.e2e, endToEnd)
	if h.tr != nil {
		ms = withUnits(h.layers, perLayerUnits)
	}
	return &result{
		Correct:   h.failed.Load() == 0,
		Attempted: max(h.ops.Load(), 1),
		Failed:    h.failed.Load(),
		Metrics:   ms,
	}
}

// withUnits pairs the values that were set with their units.
func withUnits(vals map[string]float64, units map[string]string) map[string]metric {
	out := make(map[string]metric, len(vals))
	for name, v := range vals {
		if unit, ok := units[name]; ok {
			out[name] = metric{Value: v, Unit: unit}
		}
	}
	return out
}
