#!/usr/bin/env bash
# Builds the crowd-loop benchmark from the checkout this script sits in and
# runs it with the given arguments, e.g.
#
#   bash bench/run.sh --workload crowdloop-city --seed 1 --seconds 25 --trace 0
#
# The build output stays inside the checkout, in .bench_build/. Without the
# repository source next to bench/ the build fails and the script exits
# non-zero before printing anything.
set -euo pipefail

bench_dir=$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)
root=$(dirname "$bench_dir")
out="$root/.bench_build"
mkdir -p "$out"

# The build cache and the toolchain's telemetry counters would otherwise be
# written under $HOME; GOTOOLCHAIN=local never fetches another toolchain.
export GOCACHE="$out/gocache" XDG_CONFIG_HOME="$out/config" GOTOOLCHAIN=local

(cd "$bench_dir" && go build -o "$out/crowdbench" .) >&2
cd "$root"
exec "$out/crowdbench" "$@"
