// Command bench is the crowd-loop benchmark. It drives the system the way
// its users do — phones estimating road grade with the EKF, a fleet
// uploading binary batches, readers asking for eco-routes and emission maps —
// through the public APIs of core, fusion, cloud, ecoroute and road, and
// reports end-to-end and per-layer metrics.
//
//	bash bench/run.sh --workload crowdloop-city --seed 1 --seconds 15 --trace 0
//
// Standard output ends with two JSON lines: the run record (host, build,
// input fingerprint, output digests, op counts) and, last, the result object
// with the keys correct, attempted, failed and metrics. --trace 0 reports the
// end-to-end metrics; --trace 1 wraps every public call in harness spans,
// writes them as a Chrome trace and reports the per-layer metrics instead.
// The command exits non-zero when a correctness check fails. See README.md.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"
)

// workloads maps each workload name to the function that runs it.
var workloads = map[string]func(*harness) error{
	"crowdloop-city": runCrowdloop,
	"ingest-fleet":   runIngest,
	"route-country":  runCountry,
}

type options struct {
	workload string
	seed     int64
	seconds  int
	trace    bool
	traceOut string
	// tamper corrupts one recorded output after the measured phase, so the
	// run's correctness checks must fail. Only tests set it.
	tamper bool
}

func workloadNames() string {
	names := make([]string, 0, len(workloads))
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return strings.Join(names, " | ")
}

func parseFlags(args []string) (options, error) {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	var o options
	var trace int
	fs.StringVar(&o.workload, "workload", "", "workload: "+workloadNames())
	fs.Int64Var(&o.seed, "seed", 1, "seed every generated input derives from")
	fs.IntVar(&o.seconds, "seconds", 25, "length of the measured phase in seconds (sizes the work)")
	fs.IntVar(&trace, "trace", 0, "1 traces the harness calls and reports per-layer metrics; 0 reports end-to-end metrics")
	fs.StringVar(&o.traceOut, "trace-out", "", "Chrome trace file for --trace 1 (default .bench_build/trace-<workload>-<seed>.json)")
	if err := fs.Parse(args); err != nil {
		return o, err
	}
	if fs.NArg() > 0 {
		return o, fmt.Errorf("unexpected arguments %q", fs.Args())
	}
	if _, ok := workloads[o.workload]; !ok {
		return o, fmt.Errorf("unknown workload %q (want %s)", o.workload, workloadNames())
	}
	if o.seconds < 1 || o.seconds > 60 {
		return o, fmt.Errorf("--seconds %d out of range [1, 60]", o.seconds)
	}
	if trace != 0 && trace != 1 {
		return o, fmt.Errorf("--trace %d: want 0 or 1", trace)
	}
	o.trace = trace == 1
	if o.trace && o.traceOut == "" {
		o.traceOut = filepath.Join(".bench_build", fmt.Sprintf("trace-%s-%d.json", o.workload, o.seed))
	}
	return o, nil
}

func main() {
	opt, err := parseFlags(os.Args[1:])
	if err != nil {
		if !errors.Is(err, flag.ErrHelp) {
			fmt.Fprintln(os.Stderr, "bench:", err)
		}
		os.Exit(2)
	}
	rec, res, err := run(opt, sizesFor(opt.seconds))
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
	enc := json.NewEncoder(os.Stdout)
	if err := enc.Encode(rec); err != nil {
		fmt.Fprintln(os.Stderr, "bench: writing record:", err)
		os.Exit(1)
	}
	if err := enc.Encode(res); err != nil {
		fmt.Fprintln(os.Stderr, "bench: writing result:", err)
		os.Exit(1)
	}
	if !res.Correct {
		for _, p := range rec.Problems {
			fmt.Fprintln(os.Stderr, "bench: check failed:", p)
		}
		os.Exit(1)
	}
}

// run executes one workload and assembles its record and result.
func run(opt options, size sizes) (*record, *result, error) {
	h := newHarness(opt, size)
	if err := workloads[opt.workload](h); err != nil {
		return nil, nil, fmt.Errorf("%s: %w", opt.workload, err)
	}
	h.stages["checks"] = time.Since(h.phaseEnd).Seconds()
	if err := h.setUpAgain(); err != nil {
		return nil, nil, fmt.Errorf("%s: setting up after the phase: %w", opt.workload, err)
	}
	h.e2e["setup_s"] = quantile(h.setupS, 0.5)
	if opt.trace {
		if err := h.traceDone(opt.traceOut); err != nil {
			return nil, nil, err
		}
	}
	return h.record(opt), h.result(), nil
}
