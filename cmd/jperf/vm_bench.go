// The bench subcommand compares the two execution engines over the Table I
// interpreter corpus. Both engines drive the same energy model and must agree
// on every joule bit-for-bit — the comparison here is wall clock and
// allocations, i.e. pure interpreter engineering. The run fails if the
// simulated energy diverges between engines, so the report doubles as a
// determinism check.
//
// Every call of the benchmark kernel is timed on its own, so each row reports
// the median ns/op with its quartiles and sample count rather than a bare
// mean.
//
// The report also measures the bytecode probe splice: an instrumented program
// is run with probes as AST scaffolding (JEPO.enter/exit calls, which cost
// modelled ops) and as spliced PROBE opcodes (which cost none), recording the
// wall-clock overhead of the opcodes and the modelled energy the splice
// avoids charging.
//
// Usage:
//
//	jperf bench [-o BENCH_vm.json] [-r repeats] [-cpuprofile f] [-memprofile f]
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"runtime"
	"time"

	"jepo/internal/energy"
	"jepo/internal/instrument"
	"jepo/internal/minijava/interp"
	"jepo/internal/minijava/parser"
	"jepo/internal/stats"
	"jepo/internal/tables"
)

// vmBenchPoint is one benchmark's engine comparison: the bytecode VM against
// the tree-walker baseline, each as the median ns per call of B.f with the
// interquartile range over N timed calls.
type vmBenchPoint struct {
	Name        string  `json:"name"`
	N           int     `json:"n"`
	ASTNsPerOp  float64 `json:"ast_ns_per_op"` // median
	ASTNsQ1     float64 `json:"ast_ns_q1"`
	ASTNsQ3     float64 `json:"ast_ns_q3"`
	VMNsPerOp   float64 `json:"vm_ns_per_op"` // median
	VMNsQ1      float64 `json:"vm_ns_q1"`
	VMNsQ3      float64 `json:"vm_ns_q3"`
	ASTAllocsOp float64 `json:"ast_allocs_per_op"`
	VMAllocsOp  float64 `json:"vm_allocs_per_op"`
	UJPerOp     float64 `json:"uj_per_op"` // identical across engines by construction
	Speedup     float64 `json:"speedup"`   // ast median / vm median
	EnergyEqual bool    `json:"energy_equal"`
}

// vmProbeOverhead quantifies the probe-opcode splice against the AST
// scaffolding on one instrumented workload. Times are medians per call.
type vmProbeOverhead struct {
	Name              string  `json:"name"`
	PlainNsPerOp      float64 `json:"plain_ns_per_op"`          // VM, uninstrumented
	OpcodeNsPerOp     float64 `json:"opcode_ns_per_op"`         // VM, spliced probe opcodes
	ScaffoldNsPerOp   float64 `json:"scaffold_ns_per_op"`       // AST engine, JEPO.enter/exit calls
	OpcodeOverheadPct float64 `json:"opcode_overhead_pct"`      // (opcode-plain)/plain
	AvoidedUJPerOp    float64 `json:"avoided_uj_per_op"`        // scaffold µJ/op - opcode µJ/op
	OpcodeEnergyDelta float64 `json:"opcode_uj_delta_vs_plain"` // opcode µJ/op - plain µJ/op (0 by design)
}

// vmBenchReport is the BENCH_vm.json document.
type vmBenchReport struct {
	GeneratedAt   string          `json:"generated_at"`
	GoVersion     string          `json:"go_version"`
	NumCPU        int             `json:"num_cpu"`
	Benchmarks    []vmBenchPoint  `json:"benchmarks"`
	MeanSpeedup   float64         `json:"mean_speedup"` // geometric mean over rows
	ProbeOverhead vmProbeOverhead `json:"probe_overhead"`
}

func runBenchCmd(args []string) error {
	fs := flag.NewFlagSet("bench", flag.ExitOnError)
	out := fs.String("o", "BENCH_vm.json", "output JSON path")
	repeats := fs.Int("r", 5, "timed calls per benchmark and engine")
	prof := registerProfileFlags(fs)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *repeats < 3 {
		return fmt.Errorf("need at least 3 repeats for quartiles, got %d", *repeats)
	}
	if err := prof.start(); err != nil {
		return err
	}
	defer prof.stop()

	report := vmBenchReport{
		GeneratedAt: time.Now().UTC().Format(time.RFC3339),
		GoVersion:   runtime.Version(),
		NumCPU:      runtime.NumCPU(),
	}
	logSpeedup := 0.0
	for _, b := range tables.InterpBenches() {
		pt, err := runVMBenchOne(b, *repeats)
		if err != nil {
			return fmt.Errorf("%s: %w", b.Name, err)
		}
		report.Benchmarks = append(report.Benchmarks, pt)
		logSpeedup += math.Log(pt.Speedup)
		fmt.Printf("%-40s ast %11.0f [%.0f, %.0f]   vm %10.0f [%.0f, %.0f] ns/op   %.2fx\n",
			pt.Name, pt.ASTNsPerOp, pt.ASTNsQ1, pt.ASTNsQ3, pt.VMNsPerOp, pt.VMNsQ1, pt.VMNsQ3, pt.Speedup)
	}
	report.MeanSpeedup = math.Exp(logSpeedup / float64(len(report.Benchmarks)))

	po, err := runProbeOverhead(*repeats)
	if err != nil {
		return fmt.Errorf("probe overhead: %w", err)
	}
	report.ProbeOverhead = po
	fmt.Printf("%-40s plain %9.0f ns/op   probed %8.0f ns/op   %+.1f%% (avoids %.2f µJ/op of scaffolding)\n",
		"probe opcodes ("+po.Name+")", po.PlainNsPerOp, po.OpcodeNsPerOp, po.OpcodeOverheadPct, po.AvoidedUJPerOp)
	fmt.Printf("geometric mean speedup: %.2fx over the tree-walker\n", report.MeanSpeedup)

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

// timedCalls runs one untimed warmup call of B.f, then times repeats calls
// one by one, returning the per-call wall times in ns, the allocations per
// call and the exact simulated package energy of the timed calls.
func timedCalls(in *interp.Interp, repeats int) (ns []float64, allocsOp float64, pkg energy.Joules, err error) {
	if err := in.InitStatics(); err != nil {
		return nil, 0, 0, err
	}
	if _, err := in.CallStatic("B", "f"); err != nil {
		return nil, 0, 0, err
	}
	var ms0, ms1 runtime.MemStats
	before := in.Meter().Snapshot()
	runtime.ReadMemStats(&ms0)
	ns = make([]float64, repeats)
	for i := range ns {
		t0 := time.Now()
		if _, err := in.CallStatic("B", "f"); err != nil {
			return nil, 0, 0, err
		}
		ns[i] = float64(time.Since(t0).Nanoseconds())
	}
	runtime.ReadMemStats(&ms1)
	d := in.Meter().Snapshot().Sub(before)
	return ns, float64(ms1.Mallocs-ms0.Mallocs) / float64(repeats), d.Package, nil
}

// engineRun measures repeats calls of B.f under one engine.
func engineRun(src string, e interp.Engine, repeats int) (ns []float64, allocsOp float64, pkg energy.Joules, err error) {
	f, err := parser.Parse("bench.java", src)
	if err != nil {
		return nil, 0, 0, err
	}
	prog, err := interp.Load(f)
	if err != nil {
		return nil, 0, 0, err
	}
	in := interp.New(prog, energy.NewMeter(energy.DefaultCosts()),
		interp.WithMaxOps(2_000_000_000), interp.WithEngine(e))
	return timedCalls(in, repeats)
}

func runVMBenchOne(b tables.InterpBench, repeats int) (vmBenchPoint, error) {
	astNs, astAllocs, astPkg, err := engineRun(b.Src, interp.EngineAST, repeats)
	if err != nil {
		return vmBenchPoint{}, err
	}
	vmNs, vmAllocs, vmPkg, err := engineRun(b.Src, interp.EngineVM, repeats)
	if err != nil {
		return vmBenchPoint{}, err
	}
	// Both engines must land on the same joule bits: the VM is dispatch
	// engineering, never charge engineering.
	if astPkg != vmPkg {
		return vmBenchPoint{}, fmt.Errorf("engines disagree on simulated energy: ast=%v vm=%v", astPkg, vmPkg)
	}
	pt := vmBenchPoint{
		Name:        b.Name,
		N:           repeats,
		ASTNsPerOp:  stats.Median(astNs),
		VMNsPerOp:   stats.Median(vmNs),
		ASTAllocsOp: astAllocs,
		VMAllocsOp:  vmAllocs,
		UJPerOp:     float64(vmPkg) * 1e6 / float64(repeats),
		EnergyEqual: true,
	}
	if pt.ASTNsQ1, pt.ASTNsQ3, err = stats.Quartiles(astNs); err != nil {
		return vmBenchPoint{}, err
	}
	if pt.VMNsQ1, pt.VMNsQ3, err = stats.Quartiles(vmNs); err != nil {
		return vmBenchPoint{}, err
	}
	pt.Speedup = pt.ASTNsPerOp / pt.VMNsPerOp
	return pt, nil
}

// countingHook is the cheapest possible probe consumer, so the overhead
// measured is the probe mechanism, not the profiler behind it.
type countingHook struct{ enters, exits int }

func (h *countingHook) Enter(string) { h.enters++ }
func (h *countingHook) Exit(string)  { h.exits++ }

// probeSrc exercises the probe path hard: many short method calls, so the
// enter/exit machinery dominates rather than the method bodies.
const probeSrc = `class B {
	static int leaf(int x) { return x + 1; }
	static int mid(int x) { return leaf(x) + leaf(x + 1); }
	static double f() {
		int s = 0;
		for (int i = 0; i < 20000; i++) { s += mid(i); }
		return s;
	}
}`

// probedRun parses probeSrc, optionally instruments it, and returns the
// median ns per call of B.f under the given engine with a counting hook
// installed, plus the package energy of the timed calls.
func probedRun(e interp.Engine, instrumented bool, repeats int) (nsOp float64, pkg energy.Joules, err error) {
	f, err := parser.Parse("probe.java", probeSrc)
	if err != nil {
		return 0, 0, err
	}
	if instrumented {
		instrument.Inject(f)
	}
	prog, err := interp.Load(f)
	if err != nil {
		return 0, 0, err
	}
	hook := &countingHook{}
	in := interp.New(prog, energy.NewMeter(energy.DefaultCosts()),
		interp.WithMaxOps(2_000_000_000), interp.WithEngine(e), interp.WithHook(hook))
	ns, _, pkg, err := timedCalls(in, repeats)
	if err != nil {
		return 0, 0, err
	}
	if instrumented && hook.enters == 0 {
		return 0, 0, fmt.Errorf("probes never fired")
	}
	return stats.Median(ns), pkg, nil
}

func runProbeOverhead(repeats int) (vmProbeOverhead, error) {
	plainNs, plainPkg, err := probedRun(interp.EngineVM, false, repeats)
	if err != nil {
		return vmProbeOverhead{}, err
	}
	opcodeNs, opcodePkg, err := probedRun(interp.EngineVM, true, repeats)
	if err != nil {
		return vmProbeOverhead{}, err
	}
	scaffoldNs, scaffoldPkg, err := probedRun(interp.EngineAST, true, repeats)
	if err != nil {
		return vmProbeOverhead{}, err
	}
	r := float64(repeats)
	return vmProbeOverhead{
		Name:              "call-heavy",
		PlainNsPerOp:      plainNs,
		OpcodeNsPerOp:     opcodeNs,
		ScaffoldNsPerOp:   scaffoldNs,
		OpcodeOverheadPct: 100 * (opcodeNs - plainNs) / plainNs,
		AvoidedUJPerOp:    float64(scaffoldPkg-opcodePkg) * 1e6 / r,
		OpcodeEnergyDelta: float64(opcodePkg-plainPkg) * 1e6 / r,
	}, nil
}
