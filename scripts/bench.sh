#!/bin/sh
# Micro-benchmark gate. BENCH.json lists the benchmark families; each holds
# the `go test` packages, benchmark regexps and flags that measure it, its
# rounds, its ns/op regression tolerance, the derived bars its claims rest
# on, the host it was recorded on and its baseline rows. (BENCHMARK.json is
# a different file: the end-to-end crowd-loop run in bench/.)
#
# Usage: scripts/bench.sh record|check [family ...]
#
#   check   measures each family (all by default) and fails if a baseline
#           row regressed by more than the family's tolerance or was not
#           measured, or if a bar does not hold. Each family's verdict names
#           the baseline host and this host.
#   record  measures each family the same way and, if its bars hold,
#           rewrites only that family's host and baseline rows.
#
# A family runs `rounds` times; a round runs one `go test` over all the
# family's packages for each of its regexps in turn, and its flags may
# repeat each benchmark in process with -count. Every metric (ns/op, B/op,
# allocs/op, custom units such as p95-ns) is reduced to its best value
# within a round, then to the median across rounds: the best of in-process
# repeats filters scheduler noise, while rounds interleave the family's
# regexps so that slow host drift does not alias into the ratios between
# them.
#
# A bar reads one metric of the fresh measurement: "value" is the metric of
# "bench", "ratio" is bench / over, and "overhead_pct" is
# (bench - over) * 100 / over; it must not exceed "max" or fall below "min".
#
# BENCH.json is written one key per line at the family level and one
# baseline row or bar per line, which is all the awk below parses; record
# keeps that layout. TestBenchManifest checks that the file decodes and that
# its rows and bars name benchmarks of their family.
set -euf

cd "$(dirname "$0")/.."
manifest=BENCH.json

usage() {
    echo "usage: scripts/bench.sh record|check [family ...]" >&2
    exit 2
}
[ $# -ge 1 ] || usage
mode=$1
shift
case "$mode" in record | check) ;; *) usage ;; esac

tmp="$(mktemp -d)"
trap 'rm -rf "$tmp"' EXIT

# word(key) is the value of "key" on the current line without JSON quotes;
# a list of strings comes back joined by spaces.
lib='
function word(key,   s) {
    if (!match($0, "\"" key "\": *(\"[^\"]*\"|\\[[^]]*\\]|[^,}]*)")) return ""
    s = substr($0, RSTART, RLENGTH)
    sub("^\"" key "\": *", "", s)
    if (s ~ /^\[/) { gsub(/^\[|\]$/, "", s); gsub(/", *"/, " ", s) }
    gsub(/"/, "", s)
    return s
}
'

# One tab-separated line per family: name, rounds, regexps, packages, flags.
awk "$lib"'
/^ *"name":/     { name = word("name") }
/^ *"rounds":/   { rounds = word("rounds") }
/^ *"bench":/    { bench = word("bench") }
/^ *"packages":/ { pkgs = word("packages") }
/^ *"flags":/    { flags = word("flags") }
/^ *"baseline":/ { printf "%s\t%s\t%s\t%s\t%s\n", name, rounds, bench, pkgs, flags }
' "$manifest" >"$tmp/spec"
if [ ! -s "$tmp/spec" ]; then
    echo "bench: no families in $manifest" >&2
    exit 1
fi
if [ $# -eq 0 ]; then
    set -- $(cut -f1 "$tmp/spec")
fi
for fam in "$@"; do
    if ! cut -f1 "$tmp/spec" | grep -qx -- "$fam"; then
        echo "bench: unknown family $fam; $manifest has:" $(cut -f1 "$tmp/spec") >&2
        exit 2
    fi
done

# The evaluator reads a family's `go test` output, then the manifest. It
# compares rows and bars (check) or writes the manifest with the family's
# new host and rows to $tmp/manifest (record).
evaluate='
FNR == NR {
    if ($1 == "@round") round = $2
    if ($1 == "cpu:") { cpu = substr($0, 6); gsub(/["\\]/, "", cpu) }
    if ($1 !~ /^Benchmark/ || $2 !~ /^[0-9]+$/) next
    name = $1
    if (match(name, /-[0-9]+$/)) {
        procs = substr(name, RSTART + 1)
        name = substr(name, 1, RSTART - 1)
    } else procs = 1
    if (!(name in seen)) { seen[name] = 1; order[++nmeas] = name }
    note(name, "iterations", $2)
    for (i = 3; i < NF; i += 2) note(name, $(i + 1), $i)
    next
}
/^ *"name":/ { cur = word("name") }
cur == fam && /^ *"tolerance_pct":/ { tol = word("tolerance_pct") }
cur == fam && /^ *"host":/ {
    was = host(word("cpu"), word("gomaxprocs"), word("go"))
    if (mode == "record") {
        printf "      \"host\": {\"cpu\": \"%s\", \"gomaxprocs\": %d, \"go\": \"%s\"},\n", cpu, procs, gover > out
        next
    }
}
cur == fam && /^ *\{"kind":/ {
    nbar++
    kind[nbar] = word("kind"); metric[nbar] = word("metric")
    bench[nbar] = word("bench"); over[nbar] = word("over")
    max[nbar] = word("max"); min[nbar] = word("min")
}
cur == fam && /^ *\{"name":/ {
    row[++nrow] = word("name")
    base[nrow] = word("ns_per_op")
    if (mode == "record") next
}
mode == "record" { print > out }
cur == fam && mode == "record" && /^ *"baseline":/ {
    for (i = 1; i <= nmeas; i++) {
        b = order[i]
        if (reduced(b, "ns/op") == "") continue
        line = sprintf("        {\"name\": \"%s\", \"iterations\": %s, \"ns_per_op\": %s", b, reduced(b, "iterations"), reduced(b, "ns/op"))
        if (reduced(b, "B/op") != "") line = line sprintf(", \"bytes_per_op\": %s", reduced(b, "B/op"))
        if (reduced(b, "allocs/op") != "") line = line sprintf(", \"allocs_per_op\": %s", reduced(b, "allocs/op"))
        if (rows++) print "," > out
        printf "%s}", line > out
        printf "bench:   recorded  %-42s %14.0f ns/op\n", b, reduced(b, "ns/op")
    }
    if (rows) print "" > out
}
END {
    fail = 0
    if (mode == "check") {
        for (i = 1; i <= nrow; i++) {
            now = reduced(row[i], "ns/op")
            if (now == "") {
                printf "bench:   MISSING   %-42s (in the baseline, not measured)\n", row[i]
                fail = 1
                continue
            }
            delta = (now - base[i]) * 100 / base[i]
            status = "ok"
            if (delta > tol + 0) { status = "REGRESSED"; fail = 1 }
            printf "bench:   %-9s %-42s base %14.0f ns/op, now %14.0f ns/op (%+.1f%%)\n", status, row[i], base[i], now, delta
        }
        if (nrow == 0) { print "bench:   no baseline rows; record the family first"; fail = 1 }
    } else if (rows == 0) { print "bench:   nothing measured"; fail = 1 }
    for (i = 1; i <= nbar; i++) {
        a = reduced(bench[i], metric[i])
        o = over[i] == "" ? 1 : reduced(over[i], metric[i])
        what = kind[i] " " metric[i] " " bench[i] (over[i] == "" ? "" : " over " over[i])
        if (a == "" || o == "" || o + 0 == 0) {
            printf "bench:   %-9s bar %s\n", "MISSING", what
            fail = 1
            continue
        }
        if (kind[i] == "value") v = a + 0
        else if (kind[i] == "ratio") v = a / o
        else if (kind[i] == "overhead_pct") v = (a - o) * 100 / o
        else { printf "bench:   %-9s bar %s\n", "UNKNOWN", what; fail = 1; continue }
        status = "ok"
        if ((max[i] != "" && v > max[i] + 0) || (min[i] != "" && v < min[i] + 0)) { status = "FAILED"; fail = 1 }
        printf "bench:   %-9s bar %s = %.4g (%s)\n", status, what, v, max[i] != "" ? "max " max[i] : "min " min[i]
    }
    printf "bench: %s %s: %s (tolerance %s%%; baseline host: %s; this host: %s)\n", mode, fam, fail ? "FAIL" : "OK", tol, was, host(cpu, procs, gover)
    exit fail
}
function note(b, unit, v,   k) {
    k = b SUBSEP unit SUBSEP round
    if (!(k in best) || v + 0 < best[k] + 0) best[k] = v
}
# reduced is the median across rounds of the best value within each round.
function reduced(b, unit,   m, r, i, j, t, v) {
    m = 0
    for (r = 1; r <= rounds; r++)
        if ((b SUBSEP unit SUBSEP r) in best) v[m++] = best[b, unit, r]
    if (m == 0) return ""
    for (i = 1; i < m; i++)
        for (j = i; j > 0 && v[j] + 0 < v[j - 1] + 0; j--) { t = v[j]; v[j] = v[j - 1]; v[j - 1] = t }
    return v[int(m / 2)]
}
function host(c, p, g) {
    return c == "not recorded" ? c : c ", GOMAXPROCS " p ", " g
}
'

gover="$(go version)"
gover="${gover#go version }"
tab="$(printf '\t')"
failed=""
for fam in "$@"; do
    IFS="$tab" read -r name rounds regexps pkgs flags <<EOF
$(grep "^$fam$tab" "$tmp/spec")
EOF
    echo "bench: $mode $fam: $rounds round(s) of go test -bench {$regexps} -benchmem $flags $pkgs"
    : >"$tmp/out"
    r=1
    while [ "$r" -le "$rounds" ]; do
        echo "@round $r" >>"$tmp/out"
        # $regexps, $flags and $pkgs are word lists (set -f: no globbing).
        for re in $regexps; do
            if ! go test -run '^$' -bench "$re" -benchmem $flags $pkgs >>"$tmp/out" 2>&1 </dev/null; then
                cat "$tmp/out" >&2
                echo "bench: $fam: go test failed" >&2
                exit 1
            fi
        done
        r=$((r + 1))
    done
    if awk -v mode="$mode" -v fam="$fam" -v rounds="$rounds" -v gover="$gover" \
        -v out="$tmp/manifest" "$lib$evaluate" "$tmp/out" "$manifest"; then
        if [ "$mode" = record ]; then cat "$tmp/manifest" >"$manifest"; fi
    else
        failed="$failed $fam"
    fi
done
if [ -n "$failed" ]; then
    echo "bench: $mode FAILED:$failed"
    exit 1
fi
echo "bench: $mode OK: $*"
