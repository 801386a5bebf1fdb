#!/usr/bin/env bash
# Builds and runs the end-to-end benchmark. Run it from the root of the
# repository checkout:
#
#   bash e2ebench/run.sh --workload point_rw --seed 1 --seconds 20 --trace 0
#
# Everything the build and the run leave behind goes under .bench_build/
# in the checkout: the Go build cache, temporary files, the result files
# and the temporary database directories.
set -euo pipefail

if [ ! -f go.mod ] || [ ! -d internal/server ] || [ ! -f e2ebench/go.mod ]; then
	echo "e2ebench: run from the root of the repository checkout" >&2
	exit 2
fi

root=$PWD
out=$root/.bench_build
mkdir -p "$out/gocache" "$out/gotmp" "$out/gopath" "$out/config"
# XDG_CONFIG_HOME keeps the go command's telemetry counters in the
# checkout too.
export GOCACHE=$out/gocache GOTMPDIR=$out/gotmp GOPATH=$out/gopath \
	GOMODCACHE=$out/gopath/pkg/mod GOENV=off GOFLAGS= GOTOOLCHAIN=local \
	GOPROXY=off GOWORK=off XDG_CONFIG_HOME=$out/config

commit=unknown
if [ -e .git ] && command -v git >/dev/null; then
	commit=$(git rev-parse --short=12 HEAD 2>/dev/null || echo unknown)
fi

cd e2ebench
exec go run . -root "$root" -commit "$commit" "$@"
