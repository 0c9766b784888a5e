package main

import (
	"os"
	"testing"

	"jepo/internal/minijava/interp"
)

// TestGoldenDisasm pins the compiled bytecode of the example program byte
// for byte. Any compiler change — new fusions, operand layout, charge
// folding — shows up here as a reviewable diff instead of a silent shift in
// what the VM executes. Regenerate after auditing with:
//
//	go run ./cmd/jperf disasm examples/java/EnergyDemo.java > examples/java/golden_disasm.txt
func TestGoldenDisasm(t *testing.T) {
	files, err := parseArgs([]string{"../../examples/java/EnergyDemo.java"})
	if err != nil {
		t.Fatal(err)
	}
	prog, err := interp.Load(files...)
	if err != nil {
		t.Fatal(err)
	}
	want, err := os.ReadFile("../../examples/java/golden_disasm.txt")
	if err != nil {
		t.Fatal(err)
	}
	if got := prog.Disasm(); got != string(want) {
		t.Errorf("disassembly drifted from examples/java/golden_disasm.txt\n--- got ---\n%s", got)
	}
}
