package roadgrade

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"regexp"
	"slices"
	"strings"
	"testing"
)

// benchManifest is the layout of BENCH.json, the micro-benchmark gate that
// scripts/bench.sh checks and records.
type benchManifest struct {
	Families []struct {
		Name         string   `json:"name"`
		About        string   `json:"about"`
		Packages     []string `json:"packages"`
		Bench        []string `json:"bench"`
		Flags        []string `json:"flags"`
		Rounds       int      `json:"rounds"`
		TolerancePct float64  `json:"tolerance_pct"`
		Host         struct {
			CPU        string `json:"cpu"`
			GOMAXPROCS int    `json:"gomaxprocs"`
			Go         string `json:"go"`
		} `json:"host"`
		Bars []struct {
			Kind   string   `json:"kind"`
			Metric string   `json:"metric"`
			Bench  string   `json:"bench"`
			Over   string   `json:"over"`
			Max    *float64 `json:"max"`
			Min    *float64 `json:"min"`
		} `json:"bars"`
		Baseline []struct {
			Name        string  `json:"name"`
			Iterations  int64   `json:"iterations"`
			NsPerOp     float64 `json:"ns_per_op"`
			BytesPerOp  int64   `json:"bytes_per_op"`
			AllocsPerOp int64   `json:"allocs_per_op"`
		} `json:"baseline"`
	} `json:"families"`
}

var (
	benchFuncDecl = regexp.MustCompile(`(?m)^func (Benchmark\w*)\(`)
	rowLine       = regexp.MustCompile(`(?m)^\s*\{"name": "`)
	barLine       = regexp.MustCompile(`(?m)^\s*\{"kind": "`)
)

// TestBenchManifest catches a stale or mistyped BENCH.json before a bench
// run would: every baseline row must name a benchmark that its family's
// packages define and one of its regexps selects, every bar must read rows
// of its own family, and every tolerance must be positive.
func TestBenchManifest(t *testing.T) {
	data, err := os.ReadFile("BENCH.json")
	if err != nil {
		t.Fatal(err)
	}
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	var m benchManifest
	if err := dec.Decode(&m); err != nil {
		t.Fatalf("BENCH.json: %v", err)
	}
	if len(m.Families) == 0 {
		t.Fatal("BENCH.json has no families")
	}
	seen := map[string]bool{}
	nRows, nBars := 0, 0
	for _, f := range m.Families {
		if seen[f.Name] {
			t.Errorf("family %q appears twice", f.Name)
		}
		seen[f.Name] = true
		if f.TolerancePct <= 0 || f.Rounds < 1 || len(f.Bench) == 0 || len(f.Packages) == 0 {
			t.Errorf("%s: tolerance_pct %v, rounds %d, bench %q and packages %q must be positive or non-empty",
				f.Name, f.TolerancePct, f.Rounds, f.Bench, f.Packages)
		}
		var res []*regexp.Regexp
		for _, b := range f.Bench {
			// The script hands each regexp to go test as the file spells it.
			if b == "" || strings.ContainsAny(b, "\\\" \t") {
				t.Errorf("%s: bench regexp %q is empty, or needs JSON escapes or spaces", f.Name, b)
			}
			re, err := regexp.Compile(b)
			if err != nil {
				t.Errorf("%s: %v", f.Name, err)
				continue
			}
			res = append(res, re)
		}
		defined := map[string]bool{}
		for _, pkg := range f.Packages {
			files, _ := filepath.Glob(filepath.Join(pkg, "*_test.go"))
			if len(files) == 0 {
				t.Errorf("%s: package %s has no _test.go files", f.Name, pkg)
			}
			for _, file := range files {
				src, err := os.ReadFile(file)
				if err != nil {
					t.Fatal(err)
				}
				for _, d := range benchFuncDecl.FindAllSubmatch(src, -1) {
					defined[string(d[1])] = true
				}
			}
		}
		rows := map[string]bool{}
		for _, r := range f.Baseline {
			if !defined[r.Name] {
				t.Errorf("%s: row %s: no func %s( in a _test.go file of %v", f.Name, r.Name, r.Name, f.Packages)
			} else if !slices.ContainsFunc(res, func(re *regexp.Regexp) bool { return re.MatchString(r.Name) }) {
				t.Errorf("%s: row %s is not selected by %q", f.Name, r.Name, f.Bench)
			}
			rows[r.Name] = true
		}
		for _, b := range f.Bars {
			if !rows[b.Bench] || (b.Over != "" && !rows[b.Over]) {
				t.Errorf("%s: bar %s %s/%s reads a benchmark that is not a row of the family", f.Name, b.Kind, b.Bench, b.Over)
			}
			if (b.Kind == "value") != (b.Over == "") || (b.Kind != "value" && b.Kind != "ratio" && b.Kind != "overhead_pct") {
				t.Errorf("%s: bar kind %q with over %q: want value without over, or ratio/overhead_pct with it", f.Name, b.Kind, b.Over)
			}
			if (b.Max == nil) == (b.Min == nil) {
				t.Errorf("%s: bar %s %s needs exactly one of max and min", f.Name, b.Kind, b.Bench)
			}
		}
		nRows += len(f.Baseline)
		nBars += len(f.Bars)
	}
	// scripts/bench.sh parses one baseline row or bar per line.
	if got := len(rowLine.FindAll(data, -1)); got != nRows {
		t.Errorf("%d lines start a baseline row, want one per row (%d)", got, nRows)
	}
	if got := len(barLine.FindAll(data, -1)); got != nBars {
		t.Errorf("%d lines start a bar, want one per bar (%d)", got, nBars)
	}
}
