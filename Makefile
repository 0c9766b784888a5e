# Standard entry points for the reproduction repo.

.PHONY: build test check serve-check bench-interp bench-passes bench-vm bench-sched bench-cache bench-serve enginediff faultmatrix scheddiff

build:
	go build ./...

test:
	go test ./...

# Formatting, vet and the race-enabled test suite in one gate.
check:
	sh scripts/check.sh

# Daemon byte-identity gate: start jepod, drive a scripted session analyze
# and a Table II regeneration over HTTP, byte-diff both against CLI stdout,
# then SIGTERM the daemon and require a clean drain.
serve-check:
	sh scripts/serve_check.sh

# Interpreter benchmark trajectory: wall-clock ns/op + simulated µJ/op for
# the Table I corpus, written to BENCH_interp.json.
bench-interp:
	go run ./cmd/jperf bench -o BENCH_interp.json

# Pass-engine benchmark: one shared analysis traversal vs the seed's
# per-rule traversals over the Table I corpus, written to BENCH_passes.json.
bench-passes:
	go run ./cmd/jperf bench -passes -o BENCH_passes.json

# Engine comparison benchmark: tree-walker vs bytecode VM wall clock over
# the Table I corpus plus the probe-opcode overhead, as per-call medians with
# quartiles over 21 timed calls, written to BENCH_vm.json.
bench-vm:
	go run ./cmd/jperf bench -vm -r 21 -o BENCH_vm.json

# Differential engine fuzz: the bytecode VM and the tree-walker must agree
# bit-for-bit (results, output, op counts, Joules) on the Table I corpus and
# seeded random programs.
enginediff:
	go test -tags enginediff -run EngineDiff ./internal/minijava/interp

# Seeded fault-injection fuzz over the measurement layer: random fault mixes
# against the resilient source, the sampler unwrap, and profiled runs.
faultmatrix:
	go test -tags faultmatrix -run FaultMatrix ./internal/rapl/... ./internal/profile/...

# Differential fuzz for the deterministic worker pool: random task counts,
# worker counts and fault plans must produce identical merged results and
# Health ledgers at any parallelism.
scheddiff:
	go test -tags scheddiff -run SchedDifferentialFuzz ./internal/sched

# Worker-pool benchmark: sequential vs -jobs {2,4,8} for a reduced Table IV
# and a corpus-wide analysis, with in-bench bit-identity assertions, written
# to BENCH_sched.json.
bench-sched:
	go run ./cmd/jperf bench -sched -o BENCH_sched.json

# Artifact-cache benchmark: the full corpus analysis and a reduced Table IV,
# each run nocache vs cold store vs warm store with in-bench bit-identity
# assertions and hit-rate tallies, written to BENCH_cache.json.
bench-cache:
	go run ./cmd/jperf bench -cache -o BENCH_cache.json

# Session-daemon benchmark: an in-process jepod handling analyze requests
# over HTTP at 1/4/8 concurrent sessions, cold vs warm store, with in-bench
# byte-identity assertions, written to BENCH_serve.json.
bench-serve:
	go run ./cmd/jperf bench -serve -o BENCH_serve.json
