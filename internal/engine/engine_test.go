package engine_test

import (
	"context"
	"reflect"
	"testing"

	"jepo/internal/energy"
	"jepo/internal/engine"
	"jepo/internal/minijava/interp"
)

const benchSrc = `class B {
	static double f() {
		double acc = 0;
		for (int i = 0; i < 1000; i++) { acc += i % 7; }
		return acc;
	}
	public static void main(String[] args) {
		System.out.println(B.f());
	}
}`

// TestParseSharingAcrossPaths: identical source at two different paths is one
// parse artifact — the path is checkout metadata, not key material.
func TestParseSharingAcrossPaths(t *testing.T) {
	e := engine.New(engine.Config{})
	a, err := e.ParseFile("a/B.java", benchSrc)
	if err != nil {
		t.Fatal(err)
	}
	b, err := e.ParseFile("b/B.java", benchSrc)
	if err != nil {
		t.Fatal(err)
	}
	if st := e.Stats(); st.Parses != 1 {
		t.Fatalf("parses = %d, want 1 (same bytes at two paths must share the master)", st.Parses)
	}
	if a.Path != "a/B.java" || b.Path != "b/B.java" {
		t.Fatalf("checkout paths wrong: %q, %q", a.Path, b.Path)
	}
	if a == b {
		t.Fatal("checkouts alias the same AST; they must be private clones")
	}
}

// TestParseCheckoutIsolation: mutating one checkout (via the in-place
// annotation of an interp.Load-ed program's first run) must not leak into
// later checkouts.
func TestParseCheckoutIsolation(t *testing.T) {
	e := engine.New(engine.Config{})
	first, err := e.ParseFile("B.java", benchSrc)
	if err != nil {
		t.Fatal(err)
	}
	pristine, err := e.ParseFile("B.java", benchSrc)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(first, pristine) {
		t.Fatal("second checkout differs before any mutation")
	}
	prog, err := interp.Load(first)
	if err != nil {
		t.Fatal(err)
	}
	if err := interp.New(prog, energy.NewMeter(energy.DefaultCosts())).InitStatics(); err != nil {
		t.Fatal(err)
	}
	if reflect.DeepEqual(first, pristine) {
		t.Fatal("preparing the program left the checkout unannotated; isolation test is vacuous")
	}
	third, err := e.ParseFile("B.java", benchSrc)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(third, pristine) {
		t.Fatal("loading one checkout mutated the cached master")
	}
}

// TestProgramSharingAndInvalidation: the cache-key semantics satellite.
// Identical source at different paths shares the program artifact; a one-byte
// edit invalidates; the instrumented switch keys separately.
func TestProgramSharingAndInvalidation(t *testing.T) {
	e := engine.New(engine.Config{})
	srcA := []engine.Source{{Path: "x/B.java", Source: benchSrc}}
	srcB := []engine.Source{{Path: "y/B.java", Source: benchSrc}}

	p1, err := e.Program(srcA, false)
	if err != nil {
		t.Fatal(err)
	}
	p2, err := e.Program(srcB, false)
	if err != nil {
		t.Fatal(err)
	}
	if p1 != p2 {
		t.Fatal("identical source at different paths must share one *interp.Program")
	}

	// A one-byte edit (trailing newline) must invalidate.
	edited := []engine.Source{{Path: "x/B.java", Source: benchSrc + "\n"}}
	p3, err := e.Program(edited, false)
	if err != nil {
		t.Fatal(err)
	}
	if p3 == p1 {
		t.Fatal("edited source shares the unedited program artifact")
	}

	p4, err := e.Program(srcA, true)
	if err != nil {
		t.Fatal(err)
	}
	if p4 == p1 {
		t.Fatal("instrumented program shares the uninstrumented artifact")
	}
}

// TestSampleConfigKeying: run-config dimensions (execution engine, op budget,
// cost table, entry point) each key separate sample artifacts, while a
// repeated identical spec is a hit with a bit-identical sample.
func TestSampleConfigKeying(t *testing.T) {
	e := engine.New(engine.Config{})
	srcs := []engine.Source{{Path: "B.java", Source: benchSrc}}
	spec := engine.RunSpec{CallClass: "B", CallMethod: "f", MaxOps: 1_000_000}

	s1, err := e.Sample(context.Background(), srcs, spec)
	if err != nil {
		t.Fatal(err)
	}
	h0 := e.Stats().Hits
	s2, err := e.Sample(context.Background(), srcs, spec)
	if err != nil {
		t.Fatal(err)
	}
	if s1 != s2 {
		t.Fatal("repeated identical spec produced a different sample")
	}
	if e.Stats().Hits <= h0 {
		t.Fatal("repeated identical spec did not hit the cache")
	}

	// AST-walking engine: same charge model, different artifact key. The two
	// engines are defined to charge identically, so values agree — but they
	// must not share a cache slot (that would assume the equivalence the
	// golden tests exist to prove).
	astSpec := spec
	astSpec.Engine = interp.EngineAST
	m0 := e.Stats().Misses
	if _, err := e.Sample(context.Background(), srcs, astSpec); err != nil {
		t.Fatal(err)
	}
	if e.Stats().Misses <= m0 {
		t.Fatal("engine change did not key a separate sample")
	}

	// Cost-table change must both miss and change the value.
	costs := energy.DefaultCosts()
	costs.FrequencyHz *= 2
	cheap := spec
	cheap.Costs = &costs
	s3, err := e.Sample(context.Background(), srcs, cheap)
	if err != nil {
		t.Fatal(err)
	}
	if s3 == s1 {
		t.Fatal("cost-table change returned the default-costs sample")
	}

	// MaxOps change keys separately even when the value is identical.
	bigger := spec
	bigger.MaxOps = 2_000_000
	m1 := e.Stats().Misses
	if _, err := e.Sample(context.Background(), srcs, bigger); err != nil {
		t.Fatal(err)
	}
	if e.Stats().Misses <= m1 {
		t.Fatal("MaxOps change did not key a separate sample")
	}

	// Main-mode vs call-mode are distinct artifacts of the same sources.
	mainSpec := engine.RunSpec{MaxOps: 1_000_000}
	sm, err := e.Sample(context.Background(), srcs, mainSpec)
	if err != nil {
		t.Fatal(err)
	}
	if sm == s1 {
		t.Fatal("main-mode run aliased the call-mode sample")
	}
}

// TestDisabledEngineMatchesEnabled: the determinism invariant in miniature —
// the cache changes cost, never bytes.
func TestDisabledEngineMatchesEnabled(t *testing.T) {
	srcs := []engine.Source{{Path: "B.java", Source: benchSrc}}
	spec := engine.RunSpec{CallClass: "B", CallMethod: "f", MaxOps: 1_000_000}
	on := engine.New(engine.Config{})
	off := engine.New(engine.Config{Disabled: true})
	sOn1, err := on.Sample(context.Background(), srcs, spec)
	if err != nil {
		t.Fatal(err)
	}
	sOn2, err := on.Sample(context.Background(), srcs, spec) // warm
	if err != nil {
		t.Fatal(err)
	}
	sOff, err := off.Sample(context.Background(), srcs, spec)
	if err != nil {
		t.Fatal(err)
	}
	if sOn1 != sOff || sOn2 != sOff {
		t.Fatalf("cached and uncached samples diverge:\n on1=%+v\n on2=%+v\n off=%+v", sOn1, sOn2, sOff)
	}
	if off.Stats().Parses != 1 {
		t.Fatalf("disabled engine parses = %d, want 1", off.Stats().Parses)
	}
}
