// The bench subcommand runs the Table I interpreter benchmark corpus and
// writes a JSON trajectory file pairing real wall-clock cost (ns/op) with
// simulated energy (µJ/op). Wall time tracks interpreter engineering across
// revisions; simulated energy is the modelled quantity and must stay fixed
// for a given cost table — a drift there is a correctness bug, not a
// performance change.
//
// With -passes the subcommand instead benchmarks the unified pass engine
// (one shared traversal vs per-rule traversals, see passes_bench.go) and
// writes BENCH_passes.json.
//
// With -vm the subcommand compares the two execution engines (see vm_bench.go)
// over the same corpus — wall clock under the tree-walker vs the bytecode VM,
// plus the probe-opcode overhead — and writes BENCH_vm.json. Simulated energy
// must be bit-identical between engines; a mismatch fails the run.
//
// With -cache the subcommand benchmarks the content-addressed artifact engine
// (nocache vs cold store vs warm store, see cache_bench.go) and writes
// BENCH_cache.json.
//
// With -serve the subcommand benchmarks the session daemon surface (an
// in-process jepod, see serve_bench.go): analyze over HTTP at 1, 4 and 8
// concurrent sessions, cold vs warm store, and writes BENCH_serve.json.
//
// Usage:
//
//	jperf bench [-o BENCH_interp.json] [-r repeats]
//	jperf bench -passes [-o BENCH_passes.json] [-r repeats]
//	jperf bench -vm [-o BENCH_vm.json] [-r repeats]
//	jperf bench -sched [-o BENCH_sched.json]
//	jperf bench -cache [-o BENCH_cache.json]
//	jperf bench -serve [-o BENCH_serve.json]
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"time"

	"jepo/internal/energy"
	"jepo/internal/minijava/interp"
	"jepo/internal/minijava/parser"
	"jepo/internal/tables"
)

// benchPoint is one benchmark's trajectory sample.
type benchPoint struct {
	Name       string  `json:"name"`
	Runs       int     `json:"runs"`
	NsPerOp    float64 `json:"ns_per_op"`
	UJPerOp    float64 `json:"uj_per_op"`
	SimUsPerOp float64 `json:"sim_us_per_op"`
}

// benchReport is the BENCH_interp.json document.
type benchReport struct {
	GeneratedAt string       `json:"generated_at"`
	GoVersion   string       `json:"go_version"`
	Benchmarks  []benchPoint `json:"benchmarks"`
}

func runBenchCmd(ctx context.Context, args []string) error {
	fs := flag.NewFlagSet("bench", flag.ExitOnError)
	out := fs.String("o", "", "output JSON path")
	repeats := fs.Int("r", 5, "timed repeats per benchmark")
	passesBench := fs.Bool("passes", false, "benchmark the pass engine instead of the interpreter")
	vmBench := fs.Bool("vm", false, "compare the bytecode VM against the tree-walker")
	schedBench := fs.Bool("sched", false, "benchmark the deterministic worker pool: sequential vs -jobs {2,4,8}")
	cacheBench := fs.Bool("cache", false, "benchmark the artifact cache: nocache vs cold vs warm store")
	serveBench := fs.Bool("serve", false, "benchmark the session daemon: analyze over HTTP at 1/4/8 concurrent sessions, cold vs warm")
	engineName := fs.String("engine", "vm", "execution engine for the plain trajectory: vm or ast")
	prof := registerProfileFlags(fs)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if err := prof.start(); err != nil {
		return err
	}
	defer prof.stop()
	engine, err := interp.ParseEngine(*engineName)
	if err != nil {
		return err
	}
	if *repeats < 1 {
		return fmt.Errorf("need at least 1 repeat, got %d", *repeats)
	}
	if *passesBench {
		if *out == "" {
			*out = "BENCH_passes.json"
		}
		return runPassesBench(*out, *repeats)
	}
	if *vmBench {
		if *out == "" {
			*out = "BENCH_vm.json"
		}
		return runVMBench(*out, *repeats)
	}
	if *schedBench {
		if *out == "" {
			*out = "BENCH_sched.json"
		}
		return runSchedBench(ctx, *out)
	}
	if *cacheBench {
		if *out == "" {
			*out = "BENCH_cache.json"
		}
		return runCacheBench(ctx, *out)
	}
	if *serveBench {
		if *out == "" {
			*out = "BENCH_serve.json"
		}
		return runServeBench(ctx, *out)
	}
	if *out == "" {
		*out = "BENCH_interp.json"
	}

	report := benchReport{
		GeneratedAt: time.Now().UTC().Format(time.RFC3339),
		GoVersion:   runtime.Version(),
	}
	for _, b := range tables.InterpBenches() {
		pt, err := runBenchOne(b, *repeats, engine)
		if err != nil {
			return fmt.Errorf("%s: %w", b.Name, err)
		}
		report.Benchmarks = append(report.Benchmarks, pt)
		fmt.Printf("%-40s %12.0f ns/op %12.1f µJ/op\n", pt.Name, pt.NsPerOp, pt.UJPerOp)
	}

	data, err := json.MarshalIndent(report, "", "  ")
	if err != nil {
		return err
	}
	data = append(data, '\n')
	if err := os.WriteFile(*out, data, 0o644); err != nil {
		return err
	}
	fmt.Printf("wrote %s (%d benchmarks)\n", *out, len(report.Benchmarks))
	return nil
}

// runBenchOne loads one program and measures repeats calls of B.f on a
// single interpreter, so frame pools and call-site caches stay warm exactly
// as they do inside one simulated measurement run. One untimed warmup call
// precedes the timed window.
func runBenchOne(b tables.InterpBench, repeats int, engine interp.Engine) (benchPoint, error) {
	f, err := parser.Parse("bench.java", b.Src)
	if err != nil {
		return benchPoint{}, err
	}
	prog, err := interp.Load(f)
	if err != nil {
		return benchPoint{}, err
	}
	in := interp.New(prog, energy.NewMeter(energy.DefaultCosts()), interp.WithMaxOps(2_000_000_000), interp.WithEngine(engine))
	if err := in.InitStatics(); err != nil {
		return benchPoint{}, err
	}
	if _, err := in.CallStatic("B", "f"); err != nil {
		return benchPoint{}, err
	}

	before := in.Meter().Snapshot()
	t0 := time.Now()
	for i := 0; i < repeats; i++ {
		if _, err := in.CallStatic("B", "f"); err != nil {
			return benchPoint{}, err
		}
	}
	wall := time.Since(t0)
	d := in.Meter().Snapshot().Sub(before)

	r := float64(repeats)
	return benchPoint{
		Name:       b.Name,
		Runs:       repeats,
		NsPerOp:    float64(wall.Nanoseconds()) / r,
		UJPerOp:    float64(d.Package) * 1e6 / r,
		SimUsPerOp: d.Elapsed.Seconds() * 1e6 / r,
	}, nil
}
