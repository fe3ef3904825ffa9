#!/usr/bin/env bash
# Tier-1 verification gate: formatting, vet, build, and the full test suite
# under the race detector. CI and pre-merge checks run exactly this script.
set -euo pipefail
cd "$(dirname "$0")/.."

echo "== gofmt =="
unformatted="$(gofmt -l .)"
if [ -n "$unformatted" ]; then
    echo "gofmt: the following files need formatting:" >&2
    echo "$unformatted" >&2
    exit 1
fi

echo "== go vet =="
go vet ./...

echo "== go build =="
go build ./...

echo "== examples and CLI runs =="
# The examples have no tests, so the steps above only compile them. Run each
# once, with the journey drive, a small route panel and a lane-change
# detection over a trace written to CSV and read back, so a program that
# fails at run time fails here.
bin="$(mktemp -d)"
trap 'rm -rf "$bin"' EXIT
go build -o "$bin/" ./examples/... ./cmd/gradesim ./cmd/ecoroute ./cmd/lanedetect
for dir in examples/*/; do
    name="$(basename "$dir")"
    echo "-- $name"
    "$bin/$name" > /dev/null
done
echo "-- gradesim -road journey"
"$bin/gradesim" -road journey > /dev/null
echo "-- ecoroute -km 20 -pairs 3"
"$bin/ecoroute" -km 20 -pairs 3 > /dev/null
echo "-- gradesim -out red.csv, lanedetect -in red.csv -map red"
"$bin/gradesim" -out "$bin/red.csv" > /dev/null
"$bin/lanedetect" -in "$bin/red.csv" -map red > /dev/null
echo "-- lanedetect -demo"
"$bin/lanedetect" -demo > /dev/null

echo "== go test -race =="
# One uncached pass over every package under the race detector.
go test -race -count=1 ./...

echo "== go test -race (repeated interleavings) =="
# These tests race goroutines whose interleavings vary run to run, so one
# pass proves little; repeat them.
# The one fold every submission lands through, fed by the coalescer's
# per-shard workers and inline by the direct path: enqueue, passes and
# Close-time draining, concurrent retries of one idempotency key through
# both, and passes bit-identical to one-by-one folds for every road and
# device.
go test -race -count=2 -run 'TestCoalescer|TestKeyRingConcurrent|TestBatched|TestConcurrentIdempotencyOneWinner|TestCoalescedFusionBitIdentical|TestDeviceCoalescedBitIdentical|TestFoldArrivalOrder' ./internal/cloud
# The snapshot publisher and CCH weight-table recycling: a publish replays
# the current table's delta into its predecessor's arrays once no pinned
# snapshot holds that table, and copies into fresh arrays while one does;
# folds wake the publisher while HTTP readers route and fetch emission
# tables, which wait for its publish and never build, and its goroutine
# exits once the last fold is published.
go test -race -count=10 -run 'TestCCHPredecessorRecycling|TestCCHRecycleConcurrentReaders' ./internal/ecoroute
go test -race -count=10 -run 'TestPublisherNoQueryBuilds|TestPublisherGoroutineExits' ./internal/cloud
# The tracer ring, tail-sampling trace store (late-span merge, linked-in fold
# spans), SLO engine, and traceparent propagation across client retries and
# the coalescer queue, under concurrent submitters.
go test -race -count=2 -run 'TestTrace|TestSLO|TestExemplar|TestExposition|TestHealthz' ./internal/obs ./internal/cloud ./cmd/cloudfuse
# The cold start splits its work over GOMAXPROCS goroutines: the terrain
# profiles of a generated network, the page runs of a first row build or a
# full rescan, and the first emission table. What they build must not depend on how the work fell
# across goroutines, so the tests that pin it to a serial build, to the
# integration at one bucket's speed, or to a committed value run at one P,
# where every loop is inline, and at four, where the goroutines race; the
# contraction's own reference check rides along at both.
go test -race -count=1 -cpu 1,4 -run 'TestContractionMatchesReference|TestFirstBuildParallelMatchesSerial|TestFirstBuildCostBits' ./internal/ecoroute
go test -race -count=1 -cpu 1,4 -run 'TestGenerateNetworkFingerprint' ./internal/road
# A full customization runs the contraction's split — one bin of whole
# elimination-tree subtrees per P, then the top — on as many goroutines;
# at one, two and four P it must equal the serial pass.
go test -race -count=1 -cpu 1,2,4 -run 'TestCustomizeSplit' ./internal/ecoroute
# Each city emission table is refreshed in place from the routing engine's
# snapshot and served to clients as deltas merged into their own copies;
# two clients' fetchers, a folder, EmissionTable readers and a /v1/route
# reader, which refreshes the same snapshot, race here.
go test -race -count=10 -run 'TestEmissionDeltaConcurrent' ./internal/cloud

echo "== fuzz (emission query parameters) =="
# Raw vehicle/speed_kmh/since/epoch values through the handler, from the
# seed corpus in internal/cloud/testdata/fuzz/FuzzEmissionsQuery.
go test -run '^$' -fuzz '^FuzzEmissionsQuery$' -fuzztime=10s ./internal/cloud

echo "== fuzz (route query parameters) =="
# Raw from/to/objective/speed_kmh values through the handler of a small CCH
# server; every answered cost must equal the Dijkstra reference's bit for
# bit. Seeded from internal/cloud/testdata/fuzz/FuzzRouteQuery.
go test -run '^$' -fuzz '^FuzzRouteQuery$' -fuzztime=10s ./internal/cloud

echo "== fuzz (binary batch codec) =="
# Raw bytes through DecodeBatchBinary and POST /v1/submit-batch as
# application/x-roadgrade-batch: a rejected body must be a 400 that leaves
# the store generation unchanged, and an accepted one a fixed point of the
# codec. Seeded from internal/cloud/testdata/fuzz/FuzzDecodeBatchBinary.
go test -run '^$' -fuzz '^FuzzDecodeBatchBinary$' -fuzztime=10s ./internal/cloud

echo "== fuzz (profile through both submit doors) =="
# The same raw bytes as the body of POST /v1/roads/{id}/profiles and, when
# they are JSON, as the profile of a one-item batch: the doors must agree
# (202 with accepted, 400 with 400), and the store generation must move by
# one on acceptance and not at all on rejection. Seeded from
# internal/cloud/testdata/fuzz/FuzzSubmitProfile.
go test -run '^$' -fuzz '^FuzzSubmitProfile$' -fuzztime=10s ./internal/cloud

echo "== fuzz (gzip request bodies) =="
# Raw bytes as gzip-encoded bodies of POST /v1/roads/{id}/profiles and
# POST /v1/submit-batch: only 200/202/400/413/415, 413 exactly when the body
# inflates past the door's cap, a rejected body leaves the store generation
# unchanged and an accepted one moves it by the items accepted. Seeded from
# internal/cloud/testdata/fuzz/FuzzGzipBody.
go test -run '^$' -fuzz '^FuzzGzipBody$' -fuzztime=10s ./internal/cloud

echo "== fuzz (traceparent header) =="
# Raw header values through obs.ParseTraceparent: an accepted header has a
# lowercase-hex version other than ff, non-zero ids and, at version 00,
# exactly 55 bytes, and formats back to itself with its flags reduced to the
# sampled bit. Seeded from internal/obs/testdata/fuzz/FuzzParseTraceparent.
go test -run '^$' -fuzz '^FuzzParseTraceparent$' -fuzztime=10s ./internal/obs

echo "== fuzz (Retry-After) =="
# Raw Retry-After values through the client's parser: the wait is never
# negative and never falls as delta-seconds grow, up to and past the longest
# time.Duration, where it saturates.
go test -run '^$' -fuzz '^FuzzParseRetryAfter$' -fuzztime=10s ./internal/cloud

echo "== fuzz (grade filter step) =="
# One predict, gated update and divergence check from arbitrary state,
# covariance, input, measurement, noise and gate, through the scalar grade
# filter and its generic kalman.Filter reference, which must agree bit
# for bit; seeded from internal/core/testdata/fuzz/FuzzGradeFilterStep.
go test -run '^$' -fuzz '^FuzzGradeFilterStep$' -fuzztime=10s ./internal/core

echo "== fuzz (LOESS fit) =="
# Strictly increasing samples, a window size and an evaluation point built
# from bytes, through the scalar quadratic fit and its generic mat.SolveVec
# reference, which must return the same bits by the same path (fit, fallback
# or mean); seeded from internal/smoothing/testdata/fuzz/FuzzLoessFit.
go test -run '^$' -fuzz '^FuzzLoessFit$' -fuzztime=10s ./internal/smoothing

echo "== fuzz (CCH re-customization) =="
# Ticks of per-edge cost edits, drawn from a few levels so that ties are
# common, through the incremental re-customization on both its fresh-copy
# and predecessor-replay paths; every tick's table must equal the full
# customization bit for bit, and on it the pruned point query must return
# the unpruned reference's path for a fixed panel of node pairs. Seeded from
# internal/ecoroute/testdata/fuzz/FuzzCCHRecustomize.
go test -run '^$' -fuzz '^FuzzCCHRecustomize$' -fuzztime=10s ./internal/ecoroute

echo "== fuzz (CCH contraction) =="
# Networks of up to 64 nodes built from bytes (jittered positions, one-way
# and two-way roads, parallel roads, isolated nodes, several components):
# the contraction must equal the elimination game's, the test-only
# reference, field by field, and a few routes must cost what Dijkstra's do
# bit for bit. Seeded from internal/ecoroute/testdata/fuzz/FuzzCCHContract.
go test -run '^$' -fuzz '^FuzzCCHContract$' -fuzztime=10s ./internal/ecoroute

echo "== benchmark module =="
# bench/ is a nested module, so the root ./... patterns above never build or
# test it.
(cd bench && go vet ./... && go test ./...)

echo "verify: OK"
