// Command cloudload is the serving load harness for the cloud fusion
// service: it drives a configurable mix of concurrent profile submissions
// and fused-profile fetches against either an in-process server (the
// default; measures the serving architecture itself) or a remote deployment
// (-addr), and reports throughput plus p50/p95/p99 latency per operation
// from internal/obs histograms.
//
// Usage:
//
//	cloudload                                # in-process, 8 clients, 90% reads
//	cloudload -clients 32 -read-frac 0.5     # heavier, balanced mix
//	cloudload -addr http://host:8080         # drive a remote cloudfuse
//	cloudload -roads 64 -prefill 64 -ops 100000 -metrics
//	cloudload -read-frac 0.6 -route-frac 0.3 -route-km 164.8
//	                                         # mixed fetch/submit/route workload
//
// The workload is deterministic per -seed: every worker derives its own RNG,
// so two runs issue the same operation sequence (timings differ, of course).
// Each road is prefilled with -prefill submissions before measurement, so
// fetches exercise the steady-state window the acceptance experiments use
// (64 submissions/road by default).
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"math/rand"
	"net"
	"net/http"
	"os"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"roadgrade/internal/cloud"
	"roadgrade/internal/ecoroute"
	"roadgrade/internal/fusion"
	"roadgrade/internal/obs"
	"roadgrade/internal/road"
)

func main() {
	cfg, metricsDump, err := parseFlags(os.Args[1:])
	if err != nil {
		fmt.Fprintf(os.Stderr, "cloudload: %v\n", err)
		os.Exit(2)
	}
	var out fmt.Stringer
	var registry *obs.Registry
	if cfg.fleet {
		rep, err := runFleet(cfg)
		if err != nil {
			fmt.Fprintf(os.Stderr, "cloudload: %v\n", err)
			os.Exit(1)
		}
		out, registry = rep, rep.registry
	} else {
		rep, err := run(cfg)
		if err != nil {
			fmt.Fprintf(os.Stderr, "cloudload: %v\n", err)
			os.Exit(1)
		}
		out, registry = rep, rep.registry
	}
	fmt.Print(out.String())
	if metricsDump {
		fmt.Fprintln(os.Stderr, "== metrics ==")
		_ = registry.WritePrometheus(os.Stderr)
	}
}

// config is one load run's shape.
type config struct {
	addr     string  // remote base URL; empty runs an in-process server
	clients  int     // concurrent workers
	roads    int     // distinct road ids in play
	cells    int     // cells per submitted profile
	prefill  int     // submissions per road before measurement
	readFrac float64 // fraction of measured ops that are fetches
	ops      int     // total measured operations (ignored if duration > 0)

	// Route mix (per-op mode): a -route-frac slice of measured ops are
	// GET /v1/route queries over a network generated from -route-km and
	// -route-seed. In-process runs enable routing on the server themselves;
	// remote runs require the target cloudfuse to be started with the same
	// -route-km/-route-seed.
	routeFrac      float64
	routeKM        float64
	routeSeed      int64
	routeObjective string        // objective the route mix queries (fuel, nox, ...)
	duration       time.Duration // measure for a fixed wall time instead
	seed           int64
	conns          int // transport MaxIdleConnsPerHost (0: clients)
	shards         int // in-process server shard count
	retries        int // client attempt budget (1 = no retries, measure the server)

	// Fleet mode (see fleet.go).
	fleet      bool
	phones     int
	rounds     int
	batch      int           // submissions per batched request
	binary     bool          // use the compact binary batch codec
	gzipOn     bool          // gzip request/response bodies
	mix        string        // vehicle class mix, e.g. "car:0.7,truck:0.25,bus:0.05"
	stagger    time.Duration // spread each round's start across workers
	queueDepth int           // in-process coalescer queue depth per shard (0: default)
	batchMax   int           // in-process coalescer fold batch cap (0: default)
	badFrac    float64       // fraction of devices running the adversary
	badClass   string        // adversary class name (internal/faultinject)
	policy     string        // in-process server fusion policy (naive/huber/trimmed)

	// Observability of the run itself (in-process server only).
	traceSample float64 // head-sample rate; > 0 enables tracing + keep-count summary
	slo         string  // SLO objective spec (see cloudfuse -slo); "" disables
}

func parseFlags(args []string) (config, bool, error) {
	fs := flag.NewFlagSet("cloudload", flag.ContinueOnError)
	cfg := config{}
	fs.StringVar(&cfg.addr, "addr", "", "base URL of a running service (empty: in-process server)")
	fs.IntVar(&cfg.clients, "clients", 8, "concurrent client workers")
	fs.IntVar(&cfg.roads, "roads", 16, "distinct roads")
	fs.IntVar(&cfg.cells, "cells", 200, "cells per submitted profile (200 = 1 km at 5 m)")
	fs.IntVar(&cfg.prefill, "prefill", 64, "submissions per road before measurement")
	fs.Float64Var(&cfg.readFrac, "read-frac", 0.9, "fraction of measured ops that are fetches")
	fs.IntVar(&cfg.ops, "ops", 20000, "total measured operations")
	fs.DurationVar(&cfg.duration, "duration", 0, "measure for a fixed duration instead of -ops")
	fs.Int64Var(&cfg.seed, "seed", 1, "workload seed (operation mix is deterministic per seed)")
	fs.Float64Var(&cfg.routeFrac, "route-frac", 0, "fraction of measured ops that are GET /v1/route queries (needs -route-km)")
	fs.Float64Var(&cfg.routeKM, "route-km", 0, "street-km of the routing network backing -route-frac (must match the server's for -addr)")
	fs.Int64Var(&cfg.routeSeed, "route-seed", 1827, "routing network generator seed (must match the server's for -addr)")
	fs.StringVar(&cfg.routeObjective, "route-objective", "fuel", "objective the route mix queries (distance | time | fuel | co2 | nox | co | hc | pm)")
	fs.IntVar(&cfg.conns, "conns", 0, "transport MaxIdleConnsPerHost (0: match -clients)")
	fs.IntVar(&cfg.shards, "shards", 0, "in-process server shards (0: default)")
	fs.IntVar(&cfg.retries, "retries", 1, "client attempt budget (1 disables retries so latency is the server's)")
	metrics := fs.Bool("metrics", false, "dump the harness metrics registry (Prometheus text) to stderr")
	fs.BoolVar(&cfg.fleet, "fleet", false, "fleet mode: simulate -phones devices batch-submitting estimates")
	fs.IntVar(&cfg.phones, "phones", 10000, "fleet: synthetic devices")
	fs.IntVar(&cfg.rounds, "rounds", 1, "fleet: submission rounds (each phone submits once per round)")
	fs.IntVar(&cfg.batch, "batch", 256, "fleet: submissions per batched request")
	fs.BoolVar(&cfg.binary, "binary", true, "fleet: use the compact binary batch codec")
	fs.BoolVar(&cfg.gzipOn, "gzip", false, "fleet: gzip request/response bodies")
	fs.StringVar(&cfg.mix, "mix", "car:0.7,truck:0.25,bus:0.05", "fleet: vehicle class mix (name:fraction,...)")
	fs.DurationVar(&cfg.stagger, "stagger", 0, "fleet: spread each round's start across workers")
	fs.IntVar(&cfg.queueDepth, "queue-depth", 0, "fleet: in-process coalescer queue depth per shard (0: default)")
	fs.IntVar(&cfg.batchMax, "batch-max", 0, "fleet: in-process coalescer fold batch cap (0: default)")
	fs.Float64Var(&cfg.badFrac, "bad-frac", 0, "fleet: fraction of devices running the -bad-class adversary")
	fs.StringVar(&cfg.badClass, "bad-class", "const-bias", "fleet: adversary class (const-bias, drift-bias, collude, overconfident)")
	fs.StringVar(&cfg.policy, "fusion-policy", "", "fleet: in-process server fusion policy (naive, huber, trimmed; empty = naive)")
	fs.Float64Var(&cfg.traceSample, "trace-sample", 0, "in-process: trace the run at this head-sample rate and summarize kept traces (0 disables)")
	fs.StringVar(&cfg.slo, "slo", "", `in-process: evaluate SLO objectives over the run ("default" or a spec; see cloudfuse -slo)`)
	if err := fs.Parse(args); err != nil {
		return cfg, false, err
	}
	if err := checkFlagConflicts(fs, cfg.fleet); err != nil {
		fs.Usage()
		return cfg, false, err
	}
	return cfg, *metrics, nil
}

// Flags valid only with -fleet, and per-op harness flags that conflict with
// it. Shared knobs (clients, roads, cells, seed, conns, shards, retries,
// addr, metrics) are fine in either mode.
var (
	fleetOnlyFlags    = []string{"phones", "rounds", "batch", "binary", "gzip", "mix", "stagger", "queue-depth", "batch-max", "bad-frac", "bad-class", "fusion-policy"}
	perOpHarnessFlags = []string{"read-frac", "ops", "prefill", "duration", "route-frac", "route-km", "route-seed", "route-objective"}
)

// checkFlagConflicts rejects flag combinations that would silently do
// something other than what the user asked for: fleet-only flags without
// -fleet, and per-op workload flags alongside -fleet.
func checkFlagConflicts(fs *flag.FlagSet, fleet bool) error {
	set := map[string]bool{}
	fs.Visit(func(f *flag.Flag) { set[f.Name] = true })
	var offending []string
	check, context := fleetOnlyFlags, "-%s requires -fleet"
	if fleet {
		check, context = perOpHarnessFlags, "-%s conflicts with -fleet (per-op workload flag)"
	}
	for _, name := range check {
		if set[name] {
			offending = append(offending, fmt.Sprintf(context, name))
		}
	}
	if len(offending) > 0 {
		return errors.New(strings.Join(offending, "; "))
	}
	return nil
}

// opStats summarizes one operation type's latency histogram.
type opStats struct {
	Count         uint64
	P50, P95, P99 float64 // seconds
}

// report is the result of one load run.
type report struct {
	Config     config
	Ops        int
	Errors     int
	Wall       time.Duration
	Throughput float64 // ops/s
	Fetch      opStats
	Submit     opStats
	Route      opStats
	Obs        *obsSummary

	registry *obs.Registry
}

func (r *report) String() string {
	mode := "in-process"
	if r.Config.addr != "" {
		mode = r.Config.addr
	}
	f := func(s opStats) string {
		return fmt.Sprintf("p50 %7.3fms  p95 %7.3fms  p99 %7.3fms  (n=%d)",
			s.P50*1e3, s.P95*1e3, s.P99*1e3, s.Count)
	}
	out := fmt.Sprintf(
		"cloudload: %s · %d clients · %d roads · %d prefill · %.0f%% reads · seed %d\n"+
			"  ops         %d  (errors %d)\n"+
			"  wall        %v\n"+
			"  throughput  %.0f ops/s\n"+
			"  fetch       %s\n"+
			"  submit      %s\n",
		mode, r.Config.clients, r.Config.roads, r.Config.prefill, r.Config.readFrac*100, r.Config.seed,
		r.Ops, r.Errors, r.Wall.Round(time.Millisecond), r.Throughput,
		f(r.Fetch), f(r.Submit))
	if r.Config.routeFrac > 0 {
		out += fmt.Sprintf("  route       %s  [%s objective]\n", f(r.Route), r.Config.routeObjective)
	}
	return out + r.Obs.String()
}

// validate fills defaults and rejects nonsense.
func (cfg *config) validate() error {
	if cfg.clients < 1 || cfg.roads < 1 || cfg.cells < 1 {
		return errors.New("clients, roads and cells must be >= 1")
	}
	if cfg.readFrac < 0 || cfg.readFrac > 1 {
		return errors.New("read-frac must be in [0, 1]")
	}
	if cfg.routeFrac < 0 || cfg.routeFrac > 1 {
		return errors.New("route-frac must be in [0, 1]")
	}
	if cfg.readFrac+cfg.routeFrac > 1 {
		return errors.New("read-frac + route-frac must not exceed 1")
	}
	if cfg.routeFrac > 0 && cfg.routeKM <= 0 {
		return errors.New("-route-frac needs -route-km > 0")
	}
	if cfg.routeObjective == "" {
		cfg.routeObjective = "fuel"
	}
	if _, err := ecoroute.ParseObjective(cfg.routeObjective); err != nil {
		return fmt.Errorf("-route-objective: %w", err)
	}
	if cfg.ops < 1 && cfg.duration <= 0 {
		return errors.New("need -ops >= 1 or -duration > 0")
	}
	if cfg.conns <= 0 {
		cfg.conns = cfg.clients
	}
	if cfg.retries < 1 {
		cfg.retries = 1
	}
	return cfg.validateObs()
}

// validateObs gates the run-observability knobs shared by both modes.
func (cfg *config) validateObs() error {
	if cfg.traceSample < 0 || cfg.traceSample > 1 {
		return errors.New("-trace-sample must be in [0, 1]")
	}
	if cfg.addr != "" && (cfg.traceSample > 0 || cfg.slo != "") {
		return errors.New("-trace-sample and -slo instrument the in-process server; not valid with -addr")
	}
	return nil
}

// enableObs turns on tracing and the SLO engine on the in-process server per
// the config. The returned cleanup disables the shared process tracer so one
// run does not leak sampling into the next (tests run several).
func enableObs(cfg config, srv *cloud.Server) (func(), error) {
	cleanup := func() {}
	if cfg.traceSample > 0 {
		srv.EnableTracing(obs.StoreConfig{})
		obs.DefaultTracer.SetSampleRate(cfg.traceSample)
		cleanup = func() {
			obs.DefaultTracer.Disable()
			obs.DefaultTracer.SetSampleRate(1)
		}
	}
	if cfg.slo != "" {
		objectives, err := cloud.ParseObjectives(cfg.slo)
		if err != nil {
			return cleanup, err
		}
		if err := srv.EnableSLO(objectives); err != nil {
			return cleanup, err
		}
	}
	return cleanup, nil
}

// obsSummary is the optional tracing/SLO tail of a run report.
type obsSummary struct {
	kept    int
	reasons map[string]int
	slo     *obs.SLOReport
}

// collectObs snapshots the server's trace store and SLO engine after a run.
// Returns nil when neither was enabled (remote runs, default config).
func collectObs(srv *cloud.Server) *obsSummary {
	if srv == nil {
		return nil
	}
	var o obsSummary
	if st := srv.TraceStore(); st != nil {
		o.reasons = map[string]int{}
		for _, s := range st.Summaries() {
			o.kept++
			o.reasons[s.Reason]++
		}
	}
	if rep, ok := srv.SLOReport(); ok {
		o.slo = &rep
	}
	if o.reasons == nil && o.slo == nil {
		return nil
	}
	return &o
}

func (o *obsSummary) String() string {
	if o == nil {
		return ""
	}
	var b strings.Builder
	if o.reasons != nil {
		fmt.Fprintf(&b, "  traces      %d kept", o.kept)
		keys := make([]string, 0, len(o.reasons))
		for k := range o.reasons {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		for i, k := range keys {
			sep := " ("
			if i > 0 {
				sep = ", "
			}
			fmt.Fprintf(&b, "%s%s %d", sep, k, o.reasons[k])
		}
		if len(keys) > 0 {
			b.WriteString(")")
		}
		b.WriteString("\n")
	}
	if o.slo != nil {
		fmt.Fprintf(&b, "  slo         %s", o.slo.Status)
		for _, obj := range o.slo.Objectives {
			fmt.Fprintf(&b, " · %s %s (budget %.2f)", obj.Name, obj.Status, obj.BudgetRemaining)
		}
		b.WriteString("\n")
	}
	return b.String()
}

// makeProfile builds one deterministic submission payload.
func makeProfile(rng *rand.Rand, cells int) *fusion.Profile {
	p := &fusion.Profile{
		SpacingM: 5,
		S:        make([]float64, cells),
		GradeRad: make([]float64, cells),
		Var:      make([]float64, cells),
	}
	for i := 0; i < cells; i++ {
		p.S[i] = float64(i) * 5
		p.GradeRad[i] = 0.05 * (rng.Float64() - 0.5)
		p.Var[i] = 1e-5 + 1e-4*rng.Float64()
	}
	return p
}

func roadID(i int) string { return fmt.Sprintf("road-%03d", i) }

// run executes one load run and returns the report.
func run(cfg config) (*report, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}

	// The route mix needs the node-ID universe of the routing network; for
	// in-process runs the same network also backs the server's engine.
	var routeNet *road.Network
	if cfg.routeFrac > 0 {
		var err error
		routeNet, err = road.GenerateNetwork(cfg.routeSeed, road.NetworkConfig{TargetStreetKM: cfg.routeKM})
		if err != nil {
			return nil, fmt.Errorf("generating routing network: %w", err)
		}
	}

	base := cfg.addr
	var srv *cloud.Server
	if base == "" {
		// In-process mode: a real loopback listener so the harness
		// exercises the full HTTP serving path, not just the store.
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return nil, fmt.Errorf("listening: %w", err)
		}
		if cfg.shards > 0 {
			srv = cloud.NewServerWithShards(cfg.shards)
		} else {
			srv = cloud.NewServer()
		}
		if cfg.prefill > 0 {
			srv.MaxSubmissionsPerRoad = cfg.prefill
		}
		if routeNet != nil {
			eng, err := ecoroute.NewEngine(routeNet, ecoroute.CloudSource{Store: srv}, ecoroute.Config{})
			if err != nil {
				return nil, fmt.Errorf("building routing engine: %w", err)
			}
			srv.EnableRouting(eng)
		}
		cleanup, err := enableObs(cfg, srv)
		defer cleanup()
		if err != nil {
			return nil, err
		}
		hs := &http.Server{Handler: srv.Handler()}
		go func() { _ = hs.Serve(ln) }()
		defer hs.Close()
		base = "http://" + ln.Addr().String()
	}

	hc := &http.Client{Transport: cloud.NewTransport(cfg.conns)}
	defer hc.CloseIdleConnections()
	newClient := func() (*cloud.Client, error) {
		return cloud.NewClient(base, hc,
			cloud.WithRetry(cfg.retries, 50*time.Millisecond, time.Second),
			cloud.WithPerTryTimeout(30*time.Second))
	}

	// Prefill every road to the steady-state window.
	ctx := context.Background()
	if cfg.prefill > 0 {
		var wg sync.WaitGroup
		errCh := make(chan error, cfg.roads)
		sem := make(chan struct{}, cfg.clients)
		for r := 0; r < cfg.roads; r++ {
			wg.Add(1)
			sem <- struct{}{}
			go func(r int) {
				defer wg.Done()
				defer func() { <-sem }()
				c, err := newClient()
				if err != nil {
					errCh <- err
					return
				}
				rng := rand.New(rand.NewSource(cfg.seed + int64(1000+r)))
				for i := 0; i < cfg.prefill; i++ {
					if err := c.SubmitProfile(ctx, roadID(r), makeProfile(rng, cfg.cells)); err != nil {
						errCh <- fmt.Errorf("prefill road %d: %w", r, err)
						return
					}
				}
			}(r)
		}
		wg.Wait()
		close(errCh)
		if err := <-errCh; err != nil {
			return nil, err
		}
	}

	// Measured phase. Latency lands in obs histograms; quantiles come from
	// the same interpolation /metrics consumers see.
	reg := obs.NewRegistry()
	fetchHist := reg.Histogram("cloudload_fetch_seconds", obs.LatencyBuckets)
	submitHist := reg.Histogram("cloudload_submit_seconds", obs.LatencyBuckets)
	routeHist := reg.Histogram("cloudload_route_seconds", obs.LatencyBuckets)
	var opCount, errCount atomic.Int64

	perWorker := make([]int, cfg.clients)
	if cfg.duration <= 0 {
		for i := 0; i < cfg.ops; i++ {
			perWorker[i%cfg.clients]++
		}
	}
	deadline := time.Now().Add(cfg.duration)

	var wg sync.WaitGroup
	workerErr := make(chan error, cfg.clients)
	start := time.Now()
	for w := 0; w < cfg.clients; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			c, err := newClient()
			if err != nil {
				workerErr <- err
				return
			}
			rng := rand.New(rand.NewSource(cfg.seed + int64(w)))
			for i := 0; ; i++ {
				if cfg.duration > 0 {
					if time.Now().After(deadline) {
						return
					}
				} else if i >= perWorker[w] {
					return
				}
				road := roadID(rng.Intn(cfg.roads))
				switch op := rng.Float64(); {
				case op < cfg.readFrac:
					t0 := time.Now()
					_, err = c.FetchProfile(ctx, road)
					fetchHist.Observe(time.Since(t0).Seconds())
				case op < cfg.readFrac+cfg.routeFrac:
					from := routeNet.Nodes[rng.Intn(len(routeNet.Nodes))].ID
					to := routeNet.Nodes[rng.Intn(len(routeNet.Nodes))].ID
					t0 := time.Now()
					_, err = c.Route(ctx, from, to, cfg.routeObjective, 40)
					routeHist.Observe(time.Since(t0).Seconds())
				default:
					p := makeProfile(rng, cfg.cells)
					t0 := time.Now()
					err = c.SubmitProfile(ctx, road, p)
					submitHist.Observe(time.Since(t0).Seconds())
				}
				opCount.Add(1)
				if err != nil {
					errCount.Add(1)
				}
			}
		}(w)
	}
	wg.Wait()
	wall := time.Since(start)
	close(workerErr)
	if err := <-workerErr; err != nil {
		return nil, err
	}

	stats := func(h *obs.Histogram) opStats {
		return opStats{
			Count: h.Count(),
			P50:   h.Quantile(0.50),
			P95:   h.Quantile(0.95),
			P99:   h.Quantile(0.99),
		}
	}
	rep := &report{
		Config:     cfg,
		Ops:        int(opCount.Load()),
		Errors:     int(errCount.Load()),
		Wall:       wall,
		Throughput: float64(opCount.Load()) / wall.Seconds(),
		Fetch:      stats(fetchHist),
		Submit:     stats(submitHist),
		Route:      stats(routeHist),
		Obs:        collectObs(srv),
		registry:   reg,
	}
	if rep.Errors > rep.Ops/2 {
		return rep, fmt.Errorf("%d of %d operations failed", rep.Errors, rep.Ops)
	}
	return rep, nil
}
