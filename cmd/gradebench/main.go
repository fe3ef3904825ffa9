// Command gradebench regenerates the paper's evaluation tables and figures
// on the simulated substrate.
//
// Usage:
//
//	gradebench -exp all             # run every experiment (full workloads)
//	gradebench -exp fig8a -seed 7   # one experiment, custom seed
//	gradebench -list                # list experiment IDs
//	gradebench -exp fig9b -quick    # shrunken workload (seconds, not minutes)
//	gradebench -exp fig9a -metrics  # dump the metrics registry after the run
//	gradebench -exp fig9a -tracefile t.json  # span timeline for chrome://tracing
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"strings"

	"roadgrade/internal/experiment"
	"roadgrade/internal/obs"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintf(os.Stderr, "gradebench: %v\n", err)
		os.Exit(1)
	}
}

// listText renders the experiment IDs exactly as `-list` prints them.
func listText() string {
	return strings.Join(experiment.Names(), "\n")
}

// unknownExpError builds the error for an unrecognized -exp value: the
// message carries the full valid-ID list, so the CLI exits non-zero with the
// same catalogue `-list` prints.
func unknownExpError(name string) error {
	return fmt.Errorf("unknown experiment %q; valid experiment IDs:\n%s", name, listText())
}

func run() error {
	var (
		expName    = flag.String("exp", "all", "experiment ID or 'all'")
		seed       = flag.Int64("seed", 1, "random seed (runs are deterministic per seed)")
		quick      = flag.Bool("quick", false, "use shrunken workloads")
		list       = flag.Bool("list", false, "list experiment IDs and exit")
		format     = flag.String("format", "text", "output format: text | json")
		cpuProfile = flag.String("cpuprofile", "", "write a CPU profile to this file")
		memProfile = flag.String("memprofile", "", "write a heap profile to this file on exit")
		metrics    = flag.Bool("metrics", false, "dump the metrics registry (Prometheus text) to stderr after the run")
		traceFile  = flag.String("tracefile", "", "write the span timeline as Chrome trace-event JSON to this file (open in chrome://tracing or Perfetto)")
	)
	flag.Parse()

	if *list {
		fmt.Println(listText())
		return nil
	}
	if *expName != "all" {
		if _, ok := experiment.Registry()[*expName]; !ok {
			return unknownExpError(*expName)
		}
	}
	if *cpuProfile != "" {
		f, err := os.Create(*cpuProfile)
		if err != nil {
			return fmt.Errorf("creating CPU profile: %w", err)
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			return fmt.Errorf("starting CPU profile: %w", err)
		}
		defer pprof.StopCPUProfile()
	}
	if *memProfile != "" {
		f, err := os.Create(*memProfile)
		if err != nil {
			return fmt.Errorf("creating heap profile: %w", err)
		}
		defer func() {
			runtime.GC() // settle allocations so the profile reflects live heap
			if err := pprof.WriteHeapProfile(f); err != nil {
				fmt.Fprintf(os.Stderr, "gradebench: writing heap profile: %v\n", err)
			}
			f.Close()
		}()
	}
	if *format != "text" && *format != "json" {
		return fmt.Errorf("unknown format %q (want text | json)", *format)
	}
	if *traceFile != "" {
		obs.DefaultTracer.Enable()
	}
	if *metrics {
		obs.RegisterRuntimeGauges(obs.Default)
	}
	opt := experiment.Options{Seed: *seed, Quick: *quick}
	var tables []experiment.Table
	if *expName == "all" {
		all, err := experiment.All(opt)
		if err != nil {
			return err
		}
		tables = all
	} else {
		t, err := experiment.Run(*expName, opt)
		if err != nil {
			return err
		}
		tables = []experiment.Table{t}
	}
	if *traceFile != "" {
		obs.DefaultTracer.Disable()
		f, err := os.Create(*traceFile)
		if err != nil {
			return fmt.Errorf("creating trace file: %w", err)
		}
		if err := obs.DefaultTracer.WriteChromeTrace(f); err != nil {
			f.Close()
			return err
		}
		if err := f.Close(); err != nil {
			return fmt.Errorf("closing trace file: %w", err)
		}
	}
	// The metrics dump goes to stderr so table output on stdout stays
	// byte-identical (and diffable) with or without -metrics.
	if *metrics {
		defer func() {
			fmt.Fprintln(os.Stderr, "== metrics ==")
			_ = obs.Default.WritePrometheus(os.Stderr)
		}()
	}
	if *format == "json" {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		return enc.Encode(tables)
	}
	for _, t := range tables {
		fmt.Println(t.String())
	}
	return nil
}
