package main

import (
	"context"
	"encoding/json"
	"os"
	"path/filepath"
	"testing"

	"jepo/internal/minijava/interp"
)

func writeDemo(t *testing.T) string {
	t.Helper()
	dir := t.TempDir()
	src := `class Demo {
	public static void main(String[] args) {
		int s = 0;
		for (int i = 0; i < 2000; i++) { s += i % 7; }
		System.out.println(s);
	}
}
`
	if err := os.WriteFile(filepath.Join(dir, "Demo.java"), []byte(src), 0o644); err != nil {
		t.Fatal(err)
	}
	return dir
}

func TestRunMeasures(t *testing.T) {
	dir := writeDemo(t)
	if err := run(context.Background(), "", 4, true, interp.EngineVM, 2, []string{dir}); err != nil {
		t.Fatal(err)
	}
	if err := run(context.Background(), "", 3, false, interp.EngineAST, 1, []string{filepath.Join(dir, "Demo.java")}); err != nil {
		t.Fatal(err)
	}
}

func TestRunErrors(t *testing.T) {
	if err := run(context.Background(), "", 3, true, interp.EngineVM, 1, nil); err == nil {
		t.Error("no input accepted")
	}
	if err := run(context.Background(), "", 3, true, interp.EngineVM, 1, []string{"missing.java"}); err == nil {
		t.Error("missing file accepted")
	}
	dir := writeDemo(t)
	if err := run(context.Background(), "NoSuchClass", 3, true, interp.EngineVM, 1, []string{dir}); err == nil {
		t.Error("unknown main class accepted")
	}
	bad := t.TempDir()
	os.WriteFile(filepath.Join(bad, "Bad.java"), []byte("class {"), 0o644)
	if err := run(context.Background(), "", 3, true, interp.EngineVM, 1, []string{bad}); err == nil {
		t.Error("syntax error accepted")
	}
	empty := t.TempDir()
	if err := run(context.Background(), "", 3, true, interp.EngineVM, 1, []string{empty}); err == nil {
		t.Error("empty dir accepted")
	}
}

func TestPassesBenchWritesReport(t *testing.T) {
	out := filepath.Join(t.TempDir(), "BENCH_passes.json")
	if err := runBenchCmd(context.Background(), []string{"-passes", "-r", "1", "-o", out}); err != nil {
		t.Fatal(err)
	}
	b, err := os.ReadFile(out)
	if err != nil {
		t.Fatal(err)
	}
	var rep passesReport
	if err := json.Unmarshal(b, &rep); err != nil {
		t.Fatalf("report is not valid JSON: %v", err)
	}
	if len(rep.Benchmarks) != 2 || rep.CorpusFiles == 0 {
		t.Fatalf("unexpected report: %+v", rep)
	}
	for _, pt := range rep.Benchmarks {
		if pt.NsPerOp <= 0 || pt.Diagnostics == 0 {
			t.Errorf("degenerate benchmark point: %+v", pt)
		}
	}
	if rep.Speedup <= 0 {
		t.Errorf("speedup = %v", rep.Speedup)
	}
}

func TestRunOnceDeterministic(t *testing.T) {
	dir := writeDemo(t)
	files, err := parseArgs([]string{dir})
	if err != nil {
		t.Fatal(err)
	}
	prog, err := interp.Load(files...)
	if err != nil {
		t.Fatal(err)
	}
	a, err := runOnce(prog, "", interp.EngineVM)
	if err != nil {
		t.Fatal(err)
	}
	b, err := runOnce(prog, "", interp.EngineVM)
	if err != nil {
		t.Fatal(err)
	}
	if a.pkg != b.pkg || a.cycles != b.cycles {
		t.Errorf("simulated runs diverged: %+v vs %+v", a, b)
	}
	if a.pkg <= 0 || a.elapsed <= 0 {
		t.Errorf("degenerate measurement: %+v", a)
	}
	// Both engines must report bit-identical simulated energy.
	c, err := runOnce(prog, "", interp.EngineAST)
	if err != nil {
		t.Fatal(err)
	}
	if a.pkg != c.pkg || a.cycles != c.cycles {
		t.Errorf("engines diverged: vm %+v vs ast %+v", a, c)
	}
}
