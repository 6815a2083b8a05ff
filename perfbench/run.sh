#!/usr/bin/env bash
# Builds the benchmark from the checkout's sources and runs it from the
# checkout root, keeping every build and run artefact under
# .bench_build/:
#
#   bash perfbench/run.sh --workload explore-cold --seed 1 --seconds 10 --trace 0
set -eu
cd "$(dirname "$0")/.."
build="$(pwd)/.bench_build/perfbench"
mkdir -p "$build/gocache" "$build/tmp" "$build/config" "$build/gopath"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" GOPATH="$build/gopath" \
	XDG_CONFIG_HOME="$build/config" GOTOOLCHAIN=local GOFLAGS=
if ! (cd perfbench && go build -o "$build/perfbench" .) >&2; then
	echo "perfbench: build failed" >&2
	exit 3
fi
exec "$build/perfbench" "$@"
