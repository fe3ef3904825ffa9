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

echo "== go test -race =="
# One uncached pass over every package under the race detector.
go test -race -count=1 ./...

echo "== go test -race (repeated interleavings) =="
# These tests race goroutines whose interleavings vary run to run, so one
# pass proves little; repeat them.
# The batched-ingest coalescer: enqueue, per-shard folding, and Close-time
# draining, plus the shutdown and idempotency interleavings.
go test -race -count=2 -run 'TestCoalescer|TestKeyRingConcurrent|TestBatched' ./internal/cloud
# CCH weight-table recycling: a tick replays the current table's delta into
# its predecessor's arrays once that table's reader count (checked under
# cchWMu) has drained, and copies into fresh arrays while a reader holds it.
go test -race -count=10 -run 'TestCCHPredecessorRecycling|TestCCHRecycleConcurrentReaders' ./internal/ecoroute
# The tracer ring, tail-sampling trace store (late-span merge, linked-in fold
# spans), SLO engine, and traceparent propagation across client retries and
# the coalescer queue, under concurrent submitters.
go test -race -count=2 -run 'TestTrace|TestSLO|TestExemplar|TestExposition|TestHealthz' ./internal/obs ./internal/cloud ./cmd/cloudfuse
# Each city emission table is refreshed in place from the change feed and
# served to clients as deltas merged into their own copies; two clients'
# fetchers, a folder and EmissionTable readers race here.
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
# covariance, input, measurement, noise and gate, through the fixed-size
# grade filter and its generic kalman.Filter reference, which must agree bit
# for bit; seeded from internal/core/testdata/fuzz/FuzzGradeFilterStep.
go test -run '^$' -fuzz '^FuzzGradeFilterStep$' -fuzztime=10s ./internal/core

echo "== fuzz (CCH re-customization) =="
# Ticks of per-edge cost edits, drawn from a few levels so that ties are
# common, through the incremental re-customization on both its fresh-copy
# and predecessor-replay paths; every tick's table must equal the full
# customization bit for bit, and on it the pruned point query must return
# the unpruned reference's path for a fixed panel of node pairs. Seeded from
# internal/ecoroute/testdata/fuzz/FuzzCCHRecustomize.
go test -run '^$' -fuzz '^FuzzCCHRecustomize$' -fuzztime=10s ./internal/ecoroute

echo "== benchmark module =="
# bench/ is a nested module, so the root ./... patterns above never build or
# test it.
(cd bench && go vet ./... && go test ./...)

echo "verify: OK"
