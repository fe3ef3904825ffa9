package main

import (
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"testing"

	"roadgrade/internal/road"
)

// tinySizes runs every workload in well under a second.
var tinySizes = sizes{setups: 1, seconds: 0.25, drives: 8, batches: 8, scale: 1}

// manifest is the part of BENCHMARK.json the smoke test checks against.
type manifest struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
}

func readManifest(t *testing.T) manifest {
	t.Helper()
	b, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var m manifest
	if err := json.Unmarshal(b, &m); err != nil {
		t.Fatal(err)
	}
	if len(m.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the benchmark runs %d", len(m.Workloads), len(workloads))
	}
	for _, w := range m.Workloads {
		if workloads[w.Name] == nil {
			t.Fatalf("BENCHMARK.json workload %q is not one the benchmark runs", w.Name)
		}
	}
	return m
}

// checkMetrics asserts that every listed metric was reported, finite, in
// the listed unit.
func checkMetrics(t *testing.T, got map[string]metric, want []struct {
	Name string `json:"name"`
	Unit string `json:"unit"`
}) {
	t.Helper()
	for _, w := range want {
		m, ok := got[w.Name]
		switch {
		case !ok:
			t.Errorf("metric %s not reported", w.Name)
		case math.IsNaN(m.Value) || math.IsInf(m.Value, 0):
			t.Errorf("metric %s = %v, not finite", w.Name, m.Value)
		case m.Unit != w.Unit:
			t.Errorf("metric %s in %q, BENCHMARK.json says %q", w.Name, m.Unit, w.Unit)
		}
	}
	if len(got) != len(want) {
		t.Errorf("reported %d metrics, BENCHMARK.json lists %d", len(got), len(want))
	}
}

func TestWorkloadsReportEveryMetric(t *testing.T) {
	m := readManifest(t)
	for _, w := range m.Workloads {
		for _, traced := range []bool{false, true} {
			opt := options{workload: w.Name, seed: 7, seconds: 1, trace: traced,
				traceOut: filepath.Join(t.TempDir(), "trace.json")}
			rec, res, err := run(opt, tinySizes)
			if err != nil {
				t.Fatalf("%s traced=%v: %v", w.Name, traced, err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
				t.Fatalf("%s traced=%v: correct=%v attempted=%d failed=%d problems=%q",
					w.Name, traced, res.Correct, res.Attempted, res.Failed, rec.Problems)
			}
			if traced {
				checkMetrics(t, res.Metrics, m.PerLayer)
				if _, err := os.Stat(opt.traceOut); err != nil {
					t.Errorf("%s: no Chrome trace: %v", w.Name, err)
				}
			} else {
				checkMetrics(t, res.Metrics, m.EndToEnd)
			}
			for _, p := range []string{"request_p95", "request_p99", "freshness_p95"} {
				if v, ok := rec.Tails[p]; !ok || !(v > 0) || math.IsInf(v, 0) {
					t.Errorf("%s: record's %s = %v, want a positive finite latency", w.Name, p, v)
				}
			}
			if len(rec.Inputs) != 64 || rec.Digests["fused_map"] == "" {
				t.Errorf("%s: record lacks the input fingerprint or the map digest: %+v", w.Name, rec)
			}
		}
	}
}

func TestTamperedOutputFailsTheRun(t *testing.T) {
	for name := range workloads {
		_, res, err := run(options{workload: name, seed: 7, seconds: 1, tamper: true}, tinySizes)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if res.Correct || res.Failed == 0 {
			t.Errorf("%s: a tampered output passed the checks", name)
		}
	}
}

func TestSameSeedSameInputsAndOutputs(t *testing.T) {
	opt := options{workload: "ingest-fleet", seed: 3, seconds: 1}
	a, _, err := run(opt, tinySizes)
	if err != nil {
		t.Fatal(err)
	}
	b, _, err := run(opt, tinySizes)
	if err != nil {
		t.Fatal(err)
	}
	if a.Inputs != b.Inputs || a.Digests["fused_map"] != b.Digests["fused_map"] {
		t.Errorf("two runs of one seed differ: inputs %s/%s, map %s/%s",
			a.Inputs, b.Inputs, a.Digests["fused_map"], b.Digests["fused_map"])
	}
}

func TestParseFlags(t *testing.T) {
	for _, tc := range []struct {
		args    []string
		wantErr bool
	}{
		{[]string{"--workload", "ingest-fleet", "--seed", "4", "--seconds", "10", "--trace", "1"}, false},
		{[]string{"--workload", "bogus"}, true},
		{[]string{"--workload", "ingest-fleet", "--trace", "2"}, true},
		{[]string{"--workload", "ingest-fleet", "--seconds", "0"}, true},
		{[]string{"--workload", "ingest-fleet", "extra"}, true},
	} {
		_, err := parseFlags(tc.args)
		if (err != nil) != tc.wantErr {
			t.Errorf("parseFlags(%q) error = %v, want error %v", tc.args, err, tc.wantErr)
		}
	}
}

// Every generated street runs both ways, so the largest strongly connected
// component is every junction with a street; the generator leaves the rest
// of its grid unbuilt, and routes to those junctions have no path.
func TestLargestSCC(t *testing.T) {
	nw, err := road.GenerateNetwork(networkSeed, road.CountryConfig(1))
	if err != nil {
		t.Fatal(err)
	}
	nodes := largestSCC(nw)
	in := make(map[int]bool, len(nodes))
	for _, id := range nodes {
		in[id] = true
	}
	for _, n := range nw.Nodes {
		if connected := len(nw.Outgoing(n.ID)) > 0; connected != in[n.ID] {
			t.Errorf("node %d: has streets %v, in largest SCC %v", n.ID, connected, in[n.ID])
		}
	}
	if len(nodes) == len(nw.Nodes) {
		t.Errorf("every junction has a street; the test no longer covers unbuilt ones")
	}
	// Every member reaches every other: a forward and a backward sweep from
	// one member stay inside the component and cover it.
	for _, out := range []bool{true, false} {
		seen := map[int]bool{nodes[0]: true}
		todo := []int{nodes[0]}
		for len(todo) > 0 {
			v := todo[len(todo)-1]
			todo = todo[:len(todo)-1]
			edges := nw.Incoming(v)
			if out {
				edges = nw.Outgoing(v)
			}
			for _, e := range edges {
				u := e.From
				if out {
					u = e.To
				}
				if in[u] && !seen[u] {
					seen[u] = true
					todo = append(todo, u)
				}
			}
		}
		if len(seen) != len(nodes) {
			t.Errorf("sweep (outgoing=%v) from %d reaches %d of %d members", out, nodes[0], len(seen), len(nodes))
		}
	}
}
