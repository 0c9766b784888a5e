package interp

import (
	"math"
	"testing"

	"jepo/internal/energy"
	"jepo/internal/minijava/parser"
)

// meterProbeSrc exercises every fused metering lane the engines share:
// indexed loads and stores (ArrayAccess), instance fields (FieldAccess),
// statics (StaticAccess), block charge replay (StepList) and the
// int ++/-- lane — in loops long enough that a single misplaced or reordered
// charge shifts the accumulated joule bits.
const meterProbeSrc = `class T {
	static int acc = 0;
	int field = 3;
	static double f() {
		int[] a = new int[64];
		T o = new T();
		double s = 0.5;
		for (int i = 0; i < 500; i++) {
			a[i % 64] = a[(i + 1) % 64] + i;
			o.field = o.field + a[i % 64];
			acc = acc + o.field;
			s = s + acc * 0.25 - i;
		}
		return s;
	}
}`

// meterProbeRun executes T.f() with the given engine and cost table and
// returns the result bits, printed output and package-energy bits.
func meterProbeRun(t *testing.T, e Engine, costs energy.CostTable) (res Value, pkgBits uint64) {
	t.Helper()
	f, err := parser.Parse("probe.java", meterProbeSrc)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	prog, err := Load(f)
	if err != nil {
		t.Fatalf("load: %v", err)
	}
	in := New(prog, energy.NewMeter(costs), WithMaxOps(1_000_000), WithEngine(e))
	if err := in.InitStatics(); err != nil {
		t.Fatalf("init: %v", err)
	}
	v, err := in.CallStatic("T", "f")
	if err != nil {
		t.Fatalf("call: %v", err)
	}
	return v, math.Float64bits(float64(in.Meter().Snapshot().Package))
}

// TestEngineEnergyParityAcrossMeterPaths runs the probe on both engines
// under the default cost table and a custom one, and demands one joule
// answer from both engines per table. The VM replays every charge run
// through Meter.StepList against whatever table its meter holds, so the
// custom table must change the bits — a meter that ignored its table would
// otherwise pass the parity check unnoticed.
func TestEngineEnergyParityAcrossMeterPaths(t *testing.T) {
	custom := energy.DefaultCosts()
	custom.Ops[energy.OpArithInt].Picojoules *= 1.5
	custom.Ops[energy.OpLocal].Cycles += 0.25

	cfgs := []struct {
		name  string
		costs energy.CostTable
	}{
		{"default costs", energy.DefaultCosts()},
		{"custom costs", custom},
	}
	bits := make([]uint64, len(cfgs))
	for i, c := range cfgs {
		t.Run(c.name, func(t *testing.T) {
			astV, astBits := meterProbeRun(t, EngineAST, c.costs)
			vmV, vmBits := meterProbeRun(t, EngineVM, c.costs)
			if astV != vmV {
				t.Errorf("result differs: ast=%+v vm=%+v", astV, vmV)
			}
			if astBits != vmBits {
				t.Errorf("package energy bits differ: ast=%#x vm=%#x", astBits, vmBits)
			}
			bits[i] = vmBits
		})
	}
	if bits[0] == bits[1] {
		t.Errorf("custom cost table charged the default's package bits %#x", bits[0])
	}
}
