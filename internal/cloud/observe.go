package cloud

// The server's observability plane: tail-sampled trace retention behind
// GET /v1/debug/traces, and the SLO engine that turns per-route request
// outcomes into burn rates for /healthz. Both are opt-in — a server without
// EnableTracing/EnableSLO pays only the disabled-tracer atomic load per
// request — and both hang off the same *obs.Tracer the rest of the process
// uses, so one gradebench -tracefile run sees pipeline, client, server, and
// coalescer spans together.

import (
	"errors"
	"fmt"
	"net/http"
	"strconv"
	"strings"

	"roadgrade/internal/obs"
)

// tracer returns the server's span tracer: the explicitly configured one, or
// the process-wide default so server spans land in the same ring as pipeline
// and client spans.
func (s *Server) tracer() *obs.Tracer {
	if s.Tracer != nil {
		return s.Tracer
	}
	return obs.DefaultTracer
}

// EnableTracing turns on distributed tracing: the server's tracer is enabled,
// a tail-sampling TraceStore subscribes to its completed spans, and
// GET /v1/debug/traces starts serving the kept traces. Returns the store so
// callers (tests, the CLI) can inspect it directly. Calling again is a no-op
// returning the existing store.
func (s *Server) EnableTracing(cfg obs.StoreConfig) *obs.TraceStore {
	if s.traces != nil {
		return s.traces
	}
	st := obs.NewTraceStore(cfg)
	s.traces = st
	tr := s.tracer()
	tr.SetSink(st)
	tr.Enable()
	return st
}

// TraceStore returns the trace store, or nil when tracing is not enabled.
func (s *Server) TraceStore() *obs.TraceStore { return s.traces }

// EnableSLO installs the burn-rate engine over the given objectives; request
// outcomes feed it from the instrument middleware and /healthz surfaces its
// status. Burn-rate gauges are registered on the default registry. Calling
// again replaces the objectives.
func (s *Server) EnableSLO(objectives []obs.Objective) error {
	e, err := obs.NewSLOEngine(obs.SLOConfig{Objectives: objectives})
	if err != nil {
		return err
	}
	e.RegisterGauges(obs.Default)
	s.slo = e
	return nil
}

// SLOReport returns the current SLO evaluation and whether an engine is
// installed. The report snapshots the engine's counters itself, as the
// scrape-time burn gauges do, so callers need no background goroutine for a
// fresh report.
func (s *Server) SLOReport() (obs.SLOReport, bool) {
	if s.slo == nil {
		return obs.SLOReport{}, false
	}
	return s.slo.Report(), true
}

// handleTraces serves the debug trace plane (see obs.TraceStore.Handler).
func (s *Server) handleTraces(w http.ResponseWriter, r *http.Request) {
	if s.traces == nil {
		httpError(w, http.StatusNotFound, errors.New("cloud: tracing not enabled"))
		return
	}
	s.traces.Handler().ServeHTTP(w, r)
}

// DefaultObjectives are the service-level objectives the paper's serving
// story implies: batched ingest must stay available (phones buffer only so
// much), and fused reads must stay fast enough for interactive route planning.
func DefaultObjectives() []obs.Objective {
	return []obs.Objective{
		{Name: "submit-batch-availability", Route: routeBatch, Kind: obs.SLOAvailability, Target: 0.999},
		{Name: "fused-read-p99", Route: routeFused, Kind: obs.SLOLatency, Target: 0.99, ThresholdS: 0.001},
	}
}

// ParseObjectives parses a comma-separated objective spec for CLI flags:
//
//	name:route:avail:<target>
//	name:route:latency:<target>:<threshold_seconds>
//
// e.g. "ingest:submit_batch:avail:0.999,read:fused:latency:0.99:0.001".
// The literal spec "default" yields DefaultObjectives.
func ParseObjectives(spec string) ([]obs.Objective, error) {
	if spec == "default" {
		return DefaultObjectives(), nil
	}
	var out []obs.Objective
	for _, part := range strings.Split(spec, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		f := strings.Split(part, ":")
		if len(f) < 4 {
			return nil, fmt.Errorf("cloud: objective %q: want name:route:kind:target[:threshold]", part)
		}
		o := obs.Objective{Name: f[0], Route: f[1]}
		target, err := strconv.ParseFloat(f[3], 64)
		if err != nil {
			return nil, fmt.Errorf("cloud: objective %q: bad target: %w", part, err)
		}
		o.Target = target
		switch f[2] {
		case "avail", "availability":
			if len(f) != 4 {
				return nil, fmt.Errorf("cloud: objective %q: availability takes no threshold", part)
			}
			o.Kind = obs.SLOAvailability
		case "latency":
			if len(f) != 5 {
				return nil, fmt.Errorf("cloud: objective %q: latency needs a threshold", part)
			}
			thr, err := strconv.ParseFloat(f[4], 64)
			if err != nil {
				return nil, fmt.Errorf("cloud: objective %q: bad threshold: %w", part, err)
			}
			o.Kind, o.ThresholdS = obs.SLOLatency, thr
		default:
			return nil, fmt.Errorf("cloud: objective %q: unknown kind %q", part, f[2])
		}
		out = append(out, o)
	}
	if len(out) == 0 {
		return nil, errors.New("cloud: empty objective spec")
	}
	return out, nil
}
