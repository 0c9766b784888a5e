#!/bin/sh
# check.sh runs the full hygiene gate: formatting, vet, and the test suite
# under the race detector. CI and `make check` both call this script.
set -eu

cd "$(dirname "$0")/.."

echo "== gofmt =="
unformatted=$(gofmt -l .)
if [ -n "$unformatted" ]; then
    echo "gofmt needed on:" >&2
    echo "$unformatted" >&2
    exit 1
fi

echo "== go vet =="
go vet ./...

echo "== go test -race =="
go test -race ./...

echo "== fault matrix =="
go test -tags faultmatrix -run FaultMatrix ./internal/rapl/... ./internal/profile/...

echo "== engine diff =="
# The bytecode VM and the tree-walker must be observationally identical:
# results, output, op counts and energy bits, over the Table I corpus and
# seeded random programs.
go test -tags enginediff -run EngineDiff ./internal/minijava/interp

echo "== engine agreement fuzz =="
# Native fuzzing of the same contract: mutated programs must agree on both
# engines under a small op budget, or fail with the same error class.
# Crashers land in internal/minijava/interp/testdata/fuzz and are kept as
# regression seeds, which every plain `go test` replays.
go test -run '^$' -fuzz FuzzEngineAgreement -fuzztime 15s ./internal/minijava/interp

echo "== sched diff =="
# Differential fuzz for the worker pool: random task counts, worker counts
# and fault plans must merge to identical results and Health ledgers at any
# parallelism.
go test -tags scheddiff -run SchedDifferentialFuzz ./internal/sched

echo "== golden battery: both engines, cold and warm, across -jobs =="
# The golden energy battery must reproduce the golden file bit for bit on
# both engines cold (Determinism), agree bit for bit between engines when
# each case runs twice on one instance so the second run meets warm site
# caches and frame pools (WarmExecution), survive sharding over the pool
# at -jobs 1, 4 and GOMAXPROCS (SchedJobs), and reproduce the golden
# through the artifact engine's cached parse/program path, cold and warm
# (EngineCache).
go test -run 'GoldenEnergyDeterminism|GoldenEnergyWarmExecution|GoldenEnergySchedJobs|GoldenEnergyEngineCache' ./internal/tables

echo "== -jobs byte-identity =="
# CLI stdout must be byte-identical at any -jobs value (pool telemetry goes
# to stderr). Diff sequential vs parallel output of the analyzer, the
# classifier table and a reduced Table IV.
tmpdir=$(mktemp -d)
trap 'rm -rf "$tmpdir"' EXIT
go run ./cmd/jepo analyze -jobs 1 examples/java >"$tmpdir/analyze.1" 2>/dev/null
go run ./cmd/jepo analyze -jobs 4 examples/java >"$tmpdir/analyze.4" 2>/dev/null
if ! cmp -s "$tmpdir/analyze.1" "$tmpdir/analyze.4"; then
    echo "jepo analyze stdout differs between -jobs 1 and -jobs 4" >&2
    diff -u "$tmpdir/analyze.1" "$tmpdir/analyze.4" >&2 || true
    exit 1
fi
go run ./cmd/wekaexp -table 2 -jobs 1 >"$tmpdir/table2.1" 2>/dev/null
go run ./cmd/wekaexp -table 2 -jobs 4 >"$tmpdir/table2.4" 2>/dev/null
if ! cmp -s "$tmpdir/table2.1" "$tmpdir/table2.4"; then
    echo "wekaexp -table 2 stdout differs between -jobs 1 and -jobs 4" >&2
    diff -u "$tmpdir/table2.1" "$tmpdir/table2.4" >&2 || true
    exit 1
fi
# A reduced Table IV crosses both cost knobs at once: sequential with the
# artifact cache off against four row workers on the cached default.
t4="-table 4 -instances 400 -folds 3 -reps 1 -runs 3"
go run ./cmd/wekaexp $t4 -jobs 1 -cache=false >"$tmpdir/table4.1" 2>/dev/null
go run ./cmd/wekaexp $t4 -jobs 4 >"$tmpdir/table4.4" 2>/dev/null
if ! cmp -s "$tmpdir/table4.1" "$tmpdir/table4.4"; then
    echo "wekaexp reduced -table 4 stdout differs between -jobs 1 -cache=false and -jobs 4" >&2
    diff -u "$tmpdir/table4.1" "$tmpdir/table4.4" >&2 || true
    exit 1
fi

echo "== -cache byte-identity =="
# The artifact cache is a pure cost knob: CLI stdout must be byte-identical
# with the cache on (default) and off. Cache statistics go to stderr.
go run ./cmd/jepo analyze -cache=false examples/java >"$tmpdir/analyze.nocache" 2>/dev/null
if ! cmp -s "$tmpdir/analyze.1" "$tmpdir/analyze.nocache"; then
    echo "jepo analyze stdout differs between -cache=false and the cached default" >&2
    diff -u "$tmpdir/analyze.1" "$tmpdir/analyze.nocache" >&2 || true
    exit 1
fi
go run ./cmd/wekaexp -table 2 -cache=false >"$tmpdir/table2.nocache" 2>/dev/null
if ! cmp -s "$tmpdir/table2.1" "$tmpdir/table2.nocache"; then
    echo "wekaexp -table 2 stdout differs between -cache=false and the cached default" >&2
    diff -u "$tmpdir/table2.1" "$tmpdir/table2.nocache" >&2 || true
    exit 1
fi

echo "== jepo analyze golden =="
# Rule drift shows up here the way energy drift shows up in golden_test.go:
# the analyzer's measured diagnostic listing over the example corpus must
# match the checked-in golden byte for byte.
if ! go run ./cmd/jepo analyze examples/java | diff -u examples/java/golden_analyze.txt -; then
    echo "jepo analyze output drifted from examples/java/golden_analyze.txt" >&2
    echo "regenerate (after auditing the diff) with:" >&2
    echo "    go run ./cmd/jepo analyze examples/java > examples/java/golden_analyze.txt" >&2
    exit 1
fi

echo "== wekaexp -table 4 golden =="
# Classifier or energy drift in the paper's headline experiment shows up
# here: a reduced Table IV (accuracy drop included) must match the
# checked-in golden byte for byte.
if ! go run ./cmd/wekaexp -table 4 -folds 10 -reps 1 -runs 3 2>/dev/null | diff -u internal/tables/testdata/golden_table4.txt -; then
    echo "wekaexp -table 4 output drifted from internal/tables/testdata/golden_table4.txt" >&2
    echo "regenerate (after auditing the diff) with:" >&2
    echo "    go run ./cmd/wekaexp -table 4 -folds 10 -reps 1 -runs 3 > internal/tables/testdata/golden_table4.txt" >&2
    exit 1
fi

echo "== jperf disasm golden =="
# Compiler drift shows up as a bytecode diff: the example program's
# disassembly must match the checked-in golden byte for byte.
if ! go run ./cmd/jperf disasm examples/java/EnergyDemo.java | diff -u examples/java/golden_disasm.txt -; then
    echo "jperf disasm output drifted from examples/java/golden_disasm.txt" >&2
    echo "regenerate (after auditing the diff) with:" >&2
    echo "    go run ./cmd/jperf disasm examples/java/EnergyDemo.java > examples/java/golden_disasm.txt" >&2
    exit 1
fi

# The session daemon must be a byte-transparent transport: a scripted
# session analyze and a Table II regeneration over HTTP must match the CLI
# stdout byte for byte, and SIGTERM must drain to a clean exit. The script
# prints its own "== jepod serve gate ==" header.
sh scripts/serve_check.sh

echo "== jepobench module =="
# The benchmark is a nested module (replace jepo => ../) that the root
# go vet/go test cannot see: build and self-test it here so a change to the
# root packages' API cannot break it unnoticed.
(cd jepobench && go vet ./... && go test ./...)

echo "OK"
