package obs

import (
	"regexp"
	"strconv"
	"strings"
	"testing"
)

// expoLine is one parsed sample line.
type expoLine struct {
	name     string // full sample name (may carry _bucket/_sum/_count suffix)
	labels   map[string]string
	value    string
	exemplar string // raw exemplar suffix after " # ", "" when absent
}

var exemplarRe = regexp.MustCompile(`^\{trace_id="[0-9a-f]{32}"\} -?[0-9][0-9eE+.\-]*$`)

// parseSampleLine splits `name{labels} value # {exemplar} exval`.
func parseSampleLine(t *testing.T, line string) expoLine {
	t.Helper()
	out := expoLine{labels: map[string]string{}}
	rest := line
	if i := strings.Index(rest, " # "); i >= 0 {
		out.exemplar = rest[i+3:]
		rest = rest[:i]
	}
	if i := strings.IndexByte(rest, '{'); i >= 0 {
		out.name = rest[:i]
		j := strings.LastIndexByte(rest, '}')
		if j < i {
			t.Fatalf("unbalanced braces: %q", line)
		}
		for _, kv := range splitLabels(t, rest[i+1:j]) {
			eq := strings.IndexByte(kv, '=')
			if eq < 0 || len(kv) < eq+3 || kv[eq+1] != '"' || kv[len(kv)-1] != '"' {
				t.Fatalf("malformed label %q in %q", kv, line)
			}
			out.labels[kv[:eq]] = unescapeLabel(kv[eq+2 : len(kv)-1])
		}
		rest = rest[j+1:]
	} else {
		sp := strings.IndexByte(rest, ' ')
		if sp < 0 {
			t.Fatalf("no value: %q", line)
		}
		out.name = rest[:sp]
		rest = rest[sp:]
	}
	out.value = strings.TrimSpace(rest)
	if out.value == "" {
		t.Fatalf("empty value: %q", line)
	}
	return out
}

// splitLabels splits k="v",k2="v2" on commas outside quotes/escapes.
func splitLabels(t *testing.T, s string) []string {
	t.Helper()
	var parts []string
	start, inQ, esc := 0, false, false
	for i := 0; i < len(s); i++ {
		c := s[i]
		switch {
		case esc:
			esc = false
		case c == '\\':
			esc = true
		case c == '"':
			inQ = !inQ
		case c == ',' && !inQ:
			parts = append(parts, s[start:i])
			start = i + 1
		}
	}
	if inQ || esc {
		t.Fatalf("unterminated quote/escape in labels %q", s)
	}
	return append(parts, s[start:])
}

func unescapeLabel(v string) string {
	r := strings.NewReplacer(`\\`, `\`, `\"`, `"`, `\n`, "\n")
	return r.Replace(v)
}

// checkExposition runs the structural conformance sweep over one rendered
// registry: HELP-before-TYPE ordering, one TYPE per family with all samples
// contiguous, histogram +Inf/_count/_sum consistency, and exemplar syntax.
// It returns the parsed samples for caller-specific assertions.
func checkExposition(t *testing.T, out string) []expoLine {
	t.Helper()
	var samples []expoLine
	typeSeen := map[string]string{}
	current := "" // family owning subsequent sample lines
	pendingHelp := ""
	inFamily := func(name string) bool {
		return name == current || name == current+"_bucket" ||
			name == current+"_sum" || name == current+"_count"
	}
	for _, line := range strings.Split(strings.TrimRight(out, "\n"), "\n") {
		switch {
		case strings.HasPrefix(line, "# HELP "):
			f := strings.Fields(line)
			if len(f) < 4 { // # HELP name text...
				t.Fatalf("HELP without text: %q", line)
			}
			if pendingHelp != "" {
				t.Fatalf("two HELP lines in a row at %q", line)
			}
			pendingHelp = f[2]
		case strings.HasPrefix(line, "# TYPE "):
			f := strings.Fields(line)
			if len(f) != 4 {
				t.Fatalf("malformed TYPE: %q", line)
			}
			name, typ := f[2], f[3]
			if pendingHelp != "" && pendingHelp != name {
				t.Fatalf("HELP for %q not followed by its TYPE (got %q)", pendingHelp, name)
			}
			pendingHelp = ""
			if _, dup := typeSeen[name]; dup {
				t.Fatalf("duplicate TYPE for %q", name)
			}
			if typ != "counter" && typ != "gauge" && typ != "histogram" {
				t.Fatalf("unknown type %q", typ)
			}
			typeSeen[name] = typ
			current = name
		default:
			if pendingHelp != "" {
				t.Fatalf("HELP %q not followed by TYPE", pendingHelp)
			}
			s := parseSampleLine(t, line)
			if !inFamily(s.name) {
				t.Fatalf("sample %q outside its family block (current %q)", s.name, current)
			}
			if s.exemplar != "" {
				if typeSeen[current] != "histogram" || !strings.HasSuffix(s.name, "_bucket") {
					t.Fatalf("exemplar on non-bucket line %q", line)
				}
				if !exemplarRe.MatchString(s.exemplar) {
					t.Fatalf("malformed exemplar %q", s.exemplar)
				}
			}
			samples = append(samples, s)
		}
	}
	// Histogram families: +Inf present, buckets cumulative, _count/_sum agree.
	for name, typ := range typeSeen {
		if typ != "histogram" {
			continue
		}
		// Group bucket samples by their non-le label set.
		type hkey struct{ labels string }
		byKey := map[hkey][]expoLine{}
		counts := map[hkey]string{}
		sums := map[hkey]bool{}
		keyOf := func(s expoLine) hkey {
			var parts []string
			for k, v := range s.labels {
				if k != "le" {
					parts = append(parts, k+"="+v)
				}
			}
			// Order-insensitive join for small label sets.
			for i := 0; i < len(parts); i++ {
				for j := i + 1; j < len(parts); j++ {
					if parts[j] < parts[i] {
						parts[i], parts[j] = parts[j], parts[i]
					}
				}
			}
			return hkey{labels: strings.Join(parts, ",")}
		}
		for _, s := range samples {
			switch s.name {
			case name + "_bucket":
				byKey[keyOf(s)] = append(byKey[keyOf(s)], s)
			case name + "_count":
				counts[keyOf(s)] = s.value
			case name + "_sum":
				sums[keyOf(s)] = true
			}
		}
		for k, buckets := range byKey {
			last := buckets[len(buckets)-1]
			if last.labels["le"] != "+Inf" {
				t.Fatalf("%s{%s}: final bucket le=%q, want +Inf", name, k.labels, last.labels["le"])
			}
			prev := int64(-1)
			for _, bl := range buckets {
				n, err := strconv.ParseInt(bl.value, 10, 64)
				if err != nil || n < prev {
					t.Fatalf("%s{%s}: non-cumulative bucket %q after %d", name, k.labels, bl.value, prev)
				}
				prev = n
			}
			if counts[k] != last.value {
				t.Fatalf("%s{%s}: _count %s != +Inf bucket %s", name, k.labels, counts[k], last.value)
			}
			if !sums[k] {
				t.Fatalf("%s{%s}: missing _sum", name, k.labels)
			}
		}
	}
	return samples
}

// TestExpositionConformance builds a registry exercising every series kind —
// nasty label values, HELP text, histograms with and without exemplars —
// and runs the full conformance sweep, plus a label-escaping round trip.
func TestExpositionConformance(t *testing.T) {
	r := NewRegistry()
	nasty := "a\\b\"c\nd"
	r.SetHelp("requests_total", "Requests by outcome.\nSecond line.")
	r.Counter("requests_total", L("route", nasty)).Add(3)
	r.Counter("requests_total", L("route", "plain")).Add(5)
	r.GaugeFunc("queue_depth", func() float64 { return 7.5 })
	r.GaugeFunc("build_info", func() float64 { return 1 }, L("version", "v1"))
	r.SetHelp("latency_seconds", "Request latency.")
	h := r.Histogram("latency_seconds", LatencyBuckets, L("route", "submit"))
	trace := NewTraceID()
	h.ObserveTrace(0.003, trace)
	h.ObserveTrace(99, trace) // +Inf bucket exemplar
	h.Observe(0.0002)
	r.Histogram("plain_hist", []float64{1, 2}).Observe(1.5)

	var sb strings.Builder
	if err := r.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	samples := checkExposition(t, out)

	// Label escaping round-trips through the parser.
	var found bool
	for _, s := range samples {
		if s.name == "requests_total" && s.labels["route"] == nasty {
			found = true
		}
	}
	if !found {
		t.Errorf("nasty label value did not round-trip:\n%s", out)
	}
	// The exemplar trace ID is the one we attached.
	if !strings.Contains(out, `# {trace_id="`+trace.String()+`"}`) {
		t.Errorf("exemplar trace id missing:\n%s", out)
	}
	// HELP precedes TYPE for the annotated families.
	if !strings.Contains(out, "# HELP requests_total Requests by outcome.\\nSecond line.\n# TYPE requests_total counter") {
		t.Errorf("HELP/TYPE ordering or escaping wrong:\n%s", out)
	}
}

// TestExpositionConformanceDefault sweeps the process-wide Default registry
// (whatever instrumentation has registered by test time) through the same
// conformance checks — every registered series must render validly.
func TestExpositionConformanceDefault(t *testing.T) {
	var sb strings.Builder
	if err := Default.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	checkExposition(t, sb.String())
}
