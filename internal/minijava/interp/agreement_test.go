package interp_test

import (
	"errors"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"jepo/internal/energy"
	"jepo/internal/minijava/ast"
	"jepo/internal/minijava/interp"
	"jepo/internal/minijava/parser"
	"jepo/internal/tables"
)

// This file holds the two-engine agreement check shared by the enginediff
// differential tests (build tag enginediff) and FuzzEngineAgreement: run one
// program on the bytecode VM and on the tree-walker and compare everything
// each run exposes.

// observation is everything one engine run exposes.
type observation struct {
	errClass string // "" when the run succeeded, else see errClassOf
	errText  string
	kind     interp.Kind
	i        int64
	dBits    uint64
	out      string
	ops      int64
	cycles   uint64 // Float64bits of the meter's cycle count
	pkg      uint64 // Float64bits of package Joules
	core     uint64
}

// errClassOf buckets a run error: "uncaught" when a mini-Java exception
// escaped, "limit" when the op budget or the call-depth bound stopped the
// run, "interp" for anything else the interpreter rejected.
func errClassOf(err error) string {
	var ue *interp.UncaughtError
	switch {
	case errors.As(err, &ue):
		return "uncaught"
	case strings.Contains(err.Error(), "op budget"), strings.Contains(err.Error(), "call depth"):
		return "limit"
	}
	return "interp"
}

// classOnly reduces a failed run's observation to its error class. Where a
// run stops is only pinned to the error class: the VM checks the op budget
// once per folded charge run, so a budget stop may land a few ops earlier
// than on the tree-walker.
func (o observation) classOnly() observation {
	if o.errClass == "" {
		return o
	}
	return observation{errClass: o.errClass}
}

// observe runs class.method() twice on ONE engine instance — cold, then warm
// — and captures an observation at each run boundary. The second run hits
// this instance's filled call-site caches and recycled frame pools, so
// comparing both boundaries pins that warm state never shifts a result, an
// op count or an energy bit. (The two runs are not expected to match each
// other: statics mutate across runs. Each boundary is compared against the
// same boundary on the other engine.) A method named main runs through
// RunMain. A run that errors ends the sequence — both engines must fail
// identically at the same point.
func observe(t *testing.T, src, class, method string, e interp.Engine, maxOps int64) []observation {
	t.Helper()
	f, err := parser.Parse("fuzz.java", src)
	if err != nil {
		t.Fatalf("parse: %v\nsource:\n%s", err, src)
	}
	prog, err := interp.Load(f)
	if err != nil {
		t.Fatalf("load: %v\nsource:\n%s", err, src)
	}
	in := interp.New(prog, energy.NewMeter(energy.DefaultCosts()),
		interp.WithMaxOps(maxOps), interp.WithEngine(e))
	if err := in.InitStatics(); err != nil {
		return []observation{{errClass: errClassOf(err), errText: "init: " + err.Error()}}
	}
	var obs []observation
	for run := 0; run < 2; run++ {
		var o observation
		var v interp.Value
		var err error
		if method == "main" {
			err = in.RunMain(class)
		} else {
			v, err = in.CallStatic(class, method)
		}
		if err != nil {
			o.errClass, o.errText = errClassOf(err), err.Error()
		}
		s := in.Meter().Snapshot()
		o.kind = v.K
		o.i = v.I
		o.dBits = math.Float64bits(v.D)
		o.out = in.Output()
		o.ops = in.Ops()
		o.cycles = math.Float64bits(s.Cycles)
		o.pkg = math.Float64bits(float64(s.Package))
		o.core = math.Float64bits(float64(s.Core))
		obs = append(obs, o)
		if err != nil {
			break
		}
	}
	return obs
}

// compareEngines reports every run boundary at which the two engines'
// observations differ, after passing each through norm.
func compareEngines(t *testing.T, name, src string, vm, walker []observation, norm func(observation) observation) {
	t.Helper()
	if len(vm) != len(walker) {
		t.Errorf("%s: engines diverged in run count: vm %d, ast %d\nsource:\n%s",
			name, len(vm), len(walker), src)
		return
	}
	for i := range vm {
		if v, a := norm(vm[i]), norm(walker[i]); v != a {
			t.Errorf("%s: engines diverged on run %d\n  vm:  %+v\n  ast: %+v\nsource:\n%s",
				name, i+1, v, a, src)
		}
	}
}

// diffEngines asserts full observational identity of the two engines on src,
// at both the cold and the warm run boundary, failures included.
func diffEngines(t *testing.T, name, src, class, method string) {
	t.Helper()
	const maxOps = 100_000_000
	vm := observe(t, src, class, method, interp.EngineVM, maxOps)
	walker := observe(t, src, class, method, interp.EngineAST, maxOps)
	compareEngines(t, name, src, vm, walker, func(o observation) observation { return o })
}

// entryPoint picks what FuzzEngineAgreement runs: the first class's
// main(String[]), else the first static zero-argument method.
func entryPoint(f *ast.File) (class, method string, ok bool) {
	for _, c := range f.Classes {
		for _, m := range c.Methods {
			if m.Name == "main" && len(m.Params) == 1 && m.Mods.Has(ast.ModStatic) {
				return c.Name, "main", true
			}
		}
	}
	for _, c := range f.Classes {
		for _, m := range c.Methods {
			if len(m.Params) == 0 && m.Mods.Has(ast.ModStatic) && !m.IsCtor {
				return c.Name, m.Name, true
			}
		}
	}
	return "", "", false
}

// FuzzEngineAgreement is the native fuzz form of the enginediff check: any
// program that parses and loads must, on both engines under a small op
// budget, give the same result, output, op count and energy bits at both run
// boundaries, or fail with the same error class. The seed corpus — the
// Table I benchmarks and the example programs — runs in every plain
// `go test`; regression seeds live in testdata/fuzz/FuzzEngineAgreement.
//
//	go test -run '^$' -fuzz FuzzEngineAgreement -fuzztime 15s ./internal/minijava/interp
func FuzzEngineAgreement(f *testing.F) {
	for _, b := range tables.InterpBenches() {
		f.Add(b.Src)
	}
	examples, err := filepath.Glob("../../../examples/java/*.java")
	if err != nil {
		f.Fatal(err)
	}
	for _, path := range examples {
		src, err := os.ReadFile(path)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(string(src))
	}
	f.Fuzz(func(t *testing.T, src string) {
		file, err := parser.Parse("fuzz.java", src)
		if err != nil {
			t.Skip("does not parse")
		}
		class, method, ok := entryPoint(file)
		if !ok {
			t.Skip("no entry point")
		}
		if _, err := interp.Load(file); err != nil {
			t.Skip("does not load")
		}
		const maxOps = 2_000_000
		vm := observe(t, src, class, method, interp.EngineVM, maxOps)
		walker := observe(t, src, class, method, interp.EngineAST, maxOps)
		compareEngines(t, "fuzz", src, vm, walker, observation.classOnly)
	})
}
