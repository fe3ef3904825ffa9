// Command cloudfuse runs the cloud track-fusion service (§III-C3): vehicles
// POST per-road gradient profiles; the service fuses submissions and serves
// the network's profile.
//
// Usage:
//
//	cloudfuse -addr :8080 -drain 10s -debug-addr 127.0.0.1:6060 -log-format text -shards 32
//
// API:
//
//	POST /v1/roads/{id}/profiles   {"spacing_m":5,"grade_rad":[...],"var":[...]}
//	POST /v1/submit-batch          many submissions per request (JSON or the
//	                               binary codec; gzip supported both ways),
//	                               folded through the write coalescer
//	GET  /v1/roads/{id}/profile
//	GET  /v1/roads
//	GET  /v1/devices/{id}          per-device trust state (reputation, learned
//	                               bias) under a robust -fusion-policy
//	GET  /v1/route                 eco-routing over the fused map (needs -route-km)
//	GET  /v1/emissions             city-wide per-road pollutant intensity table
//	                               over the fused map (needs -route-km -emissions);
//	                               ?since=&epoch= of a held table gets only the
//	                               rows changed since
//	GET  /v1/debug/traces          tail-sampled trace directory; ?id= renders
//	                               one trace as Chrome trace_event JSON
//	                               (needs -trace-sample > 0)
//
// Observability (on -debug-addr, kept off the public listener; empty
// disables):
//
//	GET /metrics        Prometheus text exposition (pipeline, fusion,
//	                    kalman, cloud, and runtime metrics) with trace
//	                    exemplars on the latency histograms
//	GET /healthz        liveness probe with build info, road/submission/
//	                    device counts, fleet reputation quantiles, coalescer
//	                    queue depth / shed totals, and — when -slo is set —
//	                    the burn-rate report (overall status degrades on a
//	                    fast burn)
//	GET /debug/pprof/   net/http/pprof profiles
//
// Distributed tracing is enabled with -trace-sample (W3C traceparent in,
// head-sampled roots otherwise); the tail-sampling store behind
// /v1/debug/traces always keeps errors, sheds, quarantines, and p99-slow
// traces and holds -trace-buffer of them.
//
// Requests are logged one structured line each (-log-format text|json) with
// method, route, status, bytes, duration, and the propagated X-Request-Id.
// On SIGINT/SIGTERM the server stops accepting connections and drains
// in-flight requests for up to the -drain timeout before exiting.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"log/slog"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"runtime"
	"runtime/debug"
	"syscall"
	"time"

	"roadgrade/internal/cloud"
	"roadgrade/internal/ecoroute"
	"roadgrade/internal/fusion"
	"roadgrade/internal/obs"
	"roadgrade/internal/road"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintf(os.Stderr, "cloudfuse: %v\n", err)
		os.Exit(1)
	}
}

// newLogger builds the process logger for the chosen -log-format.
func newLogger(format string) (*slog.Logger, error) {
	switch format {
	case "text":
		return slog.New(slog.NewTextHandler(os.Stderr, nil)), nil
	case "json":
		return slog.New(slog.NewJSONHandler(os.Stderr, nil)), nil
	default:
		return nil, fmt.Errorf("unknown -log-format %q (want text | json)", format)
	}
}

// buildInfo reports what binary is answering the probe: the Go runtime and,
// when the binary was built inside a git checkout, the VCS revision stamp.
func buildInfo() map[string]any {
	out := map[string]any{"go_version": runtime.Version()}
	if bi, ok := debug.ReadBuildInfo(); ok {
		out["module"] = bi.Main.Path
		for _, s := range bi.Settings {
			switch s.Key {
			case "vcs.revision", "vcs.time", "vcs.modified":
				out[s.Key] = s.Value
			}
		}
	}
	return out
}

// debugHandler builds the operational endpoint mux: metrics, health, pprof.
func debugHandler(srv *cloud.Server, start time.Time) http.Handler {
	mux := http.NewServeMux()
	mux.Handle("/metrics", obs.MetricsHandler(obs.Default))
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, r *http.Request) {
		roads := srv.Roads()
		submissions := 0
		for _, rs := range roads {
			submissions += rs.Submissions
		}
		enabled, queued, shed := srv.CoalesceStats()
		p10, p50, p90 := srv.ReputationQuantiles()
		// Without an SLO engine the probe is pure liveness ("ok"); with one,
		// its status is the worst objective's burn-rate verdict, so a
		// fast-burning error budget flips the probe before the budget is gone.
		status := "ok"
		body := map[string]any{
			"uptime_seconds": time.Since(start).Seconds(),
			"build":          buildInfo(),
			"roads":          len(roads),
			"submissions":    submissions,
			"devices": map[string]any{
				"count":          srv.Devices(),
				"reputation_p10": p10,
				"reputation_p50": p50,
				"reputation_p90": p90,
			},
			"coalescer": map[string]any{
				"enabled":     enabled,
				"queue_depth": queued,
				"shed_total":  shed,
			},
		}
		if rep, ok := srv.SLOReport(); ok {
			status = rep.Status
			body["slo"] = rep
		}
		if st := srv.TraceStore(); st != nil {
			body["traces"] = map[string]any{"kept": st.Len()}
		}
		body["status"] = status
		w.Header().Set("Content-Type", "application/json")
		_ = json.NewEncoder(w).Encode(body)
	})
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	return mux
}

func run() error {
	addr := flag.String("addr", ":8080", "listen address")
	drain := flag.Duration("drain", 10*time.Second, "graceful-shutdown drain timeout")
	debugAddr := flag.String("debug-addr", "127.0.0.1:6060", "debug listen address for /metrics, /healthz and /debug/pprof (empty disables)")
	logFormat := flag.String("log-format", "text", "log output format: text | json")
	shards := flag.Int("shards", 0, "store shard count, rounded up to a power of two (0: default 32)")
	routeKM := flag.Float64("route-km", 0, "enable GET /v1/route over a generated network of this many street-km (0 disables; 164.8 is the paper's area)")
	routeSeed := flag.Int64("route-seed", 1827, "network generator seed for -route-km")
	emissions := flag.Bool("emissions", false, "enable GET /v1/emissions (city-wide per-road pollutant table over the fused map; needs -route-km)")
	queueDepth := flag.Int("queue-depth", 1024, "coalescer queue depth per shard (backpressure threshold)")
	batchMax := flag.Int("batch-max", 256, "max submissions folded per shard-lock acquisition")
	policyName := flag.String("fusion-policy", "naive", "per-road fusion policy: naive | huber | trimmed (robust policies weight submissions by device trust)")
	traceSample := flag.Float64("trace-sample", 0, "head-sampling probability in [0,1] for distributed tracing (0 disables; inbound traceparent headers are always honored)")
	traceBuffer := flag.Int("trace-buffer", 256, "tail-sampled trace store capacity for GET /v1/debug/traces")
	sloSpec := flag.String("slo", "", `SLO objectives: "default", or comma-separated name:route:avail:<target> | name:route:latency:<target>:<threshold_s> (empty disables)`)
	flag.Parse()

	policy, err := fusion.ParsePolicy(*policyName)
	if err != nil {
		return err
	}

	logger, err := newLogger(*logFormat)
	if err != nil {
		return err
	}
	start := time.Now()
	var fusionSrv *cloud.Server
	if *shards > 0 {
		fusionSrv = cloud.NewServerWithShards(*shards)
	} else {
		fusionSrv = cloud.NewServer()
	}
	fusionSrv.Logger = logger
	fusionSrv.Policy = policy
	if policy.Robust() {
		logger.Info("robust fusion enabled", "policy", string(policy.Policy))
	}
	fusionSrv.EnableCoalescing(cloud.CoalesceConfig{
		QueueDepth: *queueDepth,
		BatchMax:   *batchMax,
	})
	logger.Info("write coalescing enabled", "queue_depth", *queueDepth, "batch_max", *batchMax)
	if *routeKM > 0 {
		// Eco-routing over this server's own fused store: routes follow the
		// crowd-sourced gradient map as submissions land, falling back to
		// flat for roads nobody has driven yet.
		net, err := road.GenerateNetwork(*routeSeed, road.NetworkConfig{TargetStreetKM: *routeKM})
		if err != nil {
			return fmt.Errorf("generating routing network: %w", err)
		}
		eng, err := ecoroute.NewEngine(net, ecoroute.CloudSource{Store: fusionSrv}, ecoroute.Config{})
		if err != nil {
			return fmt.Errorf("building routing engine: %w", err)
		}
		fusionSrv.EnableRouting(eng)
		logger.Info("routing enabled", "street_km", net.TotalLengthM()/1000, "nodes", len(net.Nodes), "edges", len(net.Edges))
		if *emissions {
			if err := fusionSrv.EnableEmissions(net); err != nil {
				return fmt.Errorf("enabling emissions: %w", err)
			}
			logger.Info("emission maps enabled", "roads", len(net.Edges))
		}
	} else if *emissions {
		return errors.New("-emissions needs -route-km (the emission table is computed over the routing network)")
	}
	if *traceSample > 0 {
		fusionSrv.EnableTracing(obs.StoreConfig{Capacity: *traceBuffer})
		obs.DefaultTracer.SetSampleRate(*traceSample)
		logger.Info("tracing enabled", "sample_rate", *traceSample, "trace_buffer", *traceBuffer)
	}
	if *sloSpec != "" {
		objectives, err := cloud.ParseObjectives(*sloSpec)
		if err != nil {
			return err
		}
		if err := fusionSrv.EnableSLO(objectives); err != nil {
			return err
		}
		logger.Info("slo engine enabled", "objectives", len(objectives))
	}
	obs.RegisterRuntimeGauges(obs.Default)

	srv := &http.Server{
		Addr:              *addr,
		Handler:           fusionSrv.Handler(),
		ReadHeaderTimeout: 5 * time.Second,
		ReadTimeout:       15 * time.Second,
		WriteTimeout:      30 * time.Second,
		IdleTimeout:       2 * time.Minute,
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	errCh := make(chan error, 1)
	go func() {
		logger.Info("listening", "addr", *addr)
		errCh <- srv.ListenAndServe()
	}()

	var dbgSrv *http.Server
	if *debugAddr != "" {
		// pprof exposes heap contents and the health endpoint is
		// unauthenticated, so the debug listener stays separate from the
		// public API (bind it to loopback or a private interface).
		dbgSrv = &http.Server{
			Addr:              *debugAddr,
			Handler:           debugHandler(fusionSrv, start),
			ReadHeaderTimeout: 5 * time.Second,
		}
		go func() {
			logger.Info("debug listening", "addr", *debugAddr)
			if err := dbgSrv.ListenAndServe(); err != nil && !errors.Is(err, http.ErrServerClosed) {
				logger.Error("debug server", "err", err)
			}
		}()
	}

	shutdownDebug := func(ctx context.Context) {
		if dbgSrv != nil {
			_ = dbgSrv.Shutdown(ctx)
		}
	}

	select {
	case err := <-errCh:
		shutCtx, cancel := context.WithTimeout(context.Background(), time.Second)
		defer cancel()
		shutdownDebug(shutCtx)
		fusionSrv.Close()
		if err != nil && !errors.Is(err, http.ErrServerClosed) {
			return err
		}
		return nil
	case <-ctx.Done():
		stop() // restore default signal handling: a second signal kills hard
		logger.Info("shutting down, draining in-flight requests", "drain", *drain)
		shutCtx, cancel := context.WithTimeout(context.Background(), *drain)
		defer cancel()
		shutdownDebug(shutCtx)
		if err := srv.Shutdown(shutCtx); err != nil {
			return fmt.Errorf("graceful shutdown: %w", err)
		}
		// With no more requests in flight, fold what the coalescer still has
		// queued before exiting: accepted items must not be lost.
		fusionSrv.Close()
		logger.Info("stopped", "uptime", time.Since(start))
		return nil
	}
}
