#!/bin/sh
# Builds the benchmark from the checkout it is run in and runs it with the
# given arguments. Run it from the repository root:
#
#   sh jepobench/run.sh --workload table4 --seed 1 --seconds 25 --trace 0
#
# Build outputs, the Go caches and trace files stay under .bench_build in
# the checkout.
set -eu
root=$(pwd)
out="$root/.bench_build/jepobench"
mkdir -p "$out/home"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOMODCACHE="$out/gopath/pkg/mod"
export HOME="$out/home" XDG_CONFIG_HOME="$out/home/.config" XDG_CACHE_HOME="$out/home/.cache"
export GOFLAGS=-mod=mod GOTOOLCHAIN=local GOTELEMETRY=off GOPROXY=off CGO_ENABLED=0
(cd "$root/jepobench" && go build -o "$out/jepobench" .)
exec "$out/jepobench" "$@"
