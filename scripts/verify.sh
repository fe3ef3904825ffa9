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

echo "== go test -race (serving concurrency gate) =="
# The sharded cloud store, the fusion accumulator, and the eco-routing
# engine (atomic snapshot swap + landmark cache) are the packages with real
# lock hierarchies; run them first, uncached, so a data race there fails
# fast with a focused report.
go test -race -count=1 ./internal/cloud/... ./internal/fusion/... ./internal/ecoroute/...

echo "== go test -race (write coalescer gate) =="
# The batched-ingest coalescer interleaves enqueue, per-shard folding, and
# Close-time draining; hammer exactly those tests uncached so a regression
# in the shutdown or idempotency interleavings fails with a focused report.
go test -race -count=2 -run 'TestCoalescer|TestKeyRingConcurrent|TestBatched' ./internal/cloud

echo "== go test -race (robust fusion / device trust gate) =="
# The trust-weighted fusion path threads per-device state (reputation, bias)
# through the submit door, the batch codec, and the coalescer fold under a
# road-lock -> device-lock hierarchy; run the robust/device tests uncached so
# a determinism or locking regression fails with a focused report.
go test -race -count=1 -run 'TestRobust|TestDevice' ./internal/fusion ./internal/cloud

echo "== go test -race (contraction / customization gate) =="
# The CCH splits work across one-time contraction, per-metric customization
# and lock-free query reads; the road CSR build feeds the node ordering. Each
# (metric, bucket) keeps its current weight table and the predecessor it was
# derived from; a tick replays the current table's delta into the
# predecessor's arrays once its reader count (checked under cchWMu) has
# drained, and copies into fresh arrays while a reader still holds it. Run
# the CCH and determinism tests uncached and concurrently so a torn weight
# table or a non-deterministic ordering fails with a focused report, and the
# recycling tests ten times over, since their interleavings vary run to run.
go test -race -count=1 -run 'TestCCH|TestMatrixCtx|Deterministic|TestNetworkCSR' ./internal/ecoroute ./internal/road
go test -race -count=10 -run 'TestCCHPredecessorRecycling|TestCCHRecycleConcurrentReaders' ./internal/ecoroute

echo "== go test -race (observability gate) =="
# The tracer ring, the tail-sampling trace store (late-span merge, linked-in
# fold spans), the SLO engine, and the traced ingest path (traceparent
# propagation across client retries and the coalescer queue) all run under
# concurrent submitters; run them uncached so a race or a lost span fails
# with a focused report.
go test -race -count=1 ./internal/obs/...
go test -race -count=2 -run 'TestTrace|TestSLO|TestExemplar|TestExposition|TestHealthz' ./internal/obs ./internal/cloud ./cmd/cloudfuse

echo "== go test -race (emission / pollutant routing gate) =="
# The emission path spans the opMode bin tables, the lazily built per-bucket
# pollutant cost rows inside the routing snapshot (sync.Once + atomic flag
# under concurrent queries), and the generation-keyed city-table cache on the
# cloud server; run those tests uncached so a torn row build, a stale table
# generation, or a Dijkstra/ALT/CCH pollutant-route mismatch fails with a
# focused report.
go test -race -count=1 -run 'TestOpMode|TestTripEmissions|TestEmission|TestRate|TestPollutant|TestPlanEmissions|TestMinNOx|TestObjective' \
    ./internal/emission ./internal/fuel ./internal/ecoroute ./internal/cloud
# Each city table is refreshed in place from the change feed and served to
# clients as deltas merged into their own copies; two clients' fetchers, a
# folder and EmissionTable readers race in TestEmissionDeltaConcurrent, whose
# interleavings vary run to run, so run it ten times over.
go test -race -count=10 -run 'TestEmissionDeltaConcurrent' ./internal/cloud

echo "== fuzz (emission query parameters) =="
# Raw vehicle/speed_kmh/since/epoch values through the handler, from the
# seed corpus in internal/cloud/testdata/fuzz/FuzzEmissionsQuery.
go test -run '^$' -fuzz '^FuzzEmissionsQuery$' -fuzztime=10s ./internal/cloud

echo "== go test -race =="
go test -race ./...

echo "== benchmark module =="
# bench/ is a nested module, so the root ./... patterns above never build or
# test it.
(cd bench && go vet ./... && go test ./...)

echo "verify: OK"
