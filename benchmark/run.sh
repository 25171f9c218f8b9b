#!/usr/bin/env bash
# Builds the benchmark from the checkout it is run in and hands it the
# driver's arguments. Run from the repository root:
#
#   bash benchmark/run.sh --workload ram-dense --seed 1 --seconds 10 --trace 0
#   bash benchmark/run.sh -seed 1            # all workloads, both passes
#
# Everything it writes (Go build cache, binary, temp files of the run)
# stays under .bench_build in the checkout.
set -euo pipefail

root="$(pwd)"
build="$root/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="${GOCACHE:-$build/gocache}"
export GOTMPDIR="$build/tmp" TMPDIR="$build/tmp"
export GOWORK=off

# The benchmark is a module of its own beside the engine's (the replace
# directive in its go.mod points one directory up), so it only builds
# inside a checkout of the whole repository.
(cd "$root/benchmark" && go build -o "$build/gzbenchmark" .)
exec "$build/gzbenchmark" "$@"
