#!/usr/bin/env bash
# Builds the benchmark from the source tree it sits in and runs it with the
# given arguments. Run from the repository root:
#
#   bash perfbench/run.sh --workload gap --seed 1 --seconds 15 --trace 0
#
# Build products and the Go build cache stay under .bench_build in the
# current directory, so nothing is read or written outside the checkout.
set -euo pipefail

root=$(pwd)
build="${root}/.bench_build/perfbench"
mkdir -p "${build}"
# The Go build cache, GOPATH and the go command's own configuration and
# telemetry files all live under the build directory.
export GOCACHE="${build}/gocache" GOPATH="${build}/gopath" XDG_CONFIG_HOME="${build}/config"
export GOTOOLCHAIN=local GOPROXY=off GOWORK=off GOFLAGS=
export PPROF_TMPDIR="${build}"

(cd "${root}/perfbench" && go build -o "${build}/perfbench" .) >&2
exec "${build}/perfbench" "$@"
