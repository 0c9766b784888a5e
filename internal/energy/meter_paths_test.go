package energy

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"
)

// The meter's unit-delta forms — Step(op, 1), the single-line Access and the
// fused lane helpers — must land on exactly the joule, cycle and counter bits
// of the general product code (stepN, accessLines). These tests hold each
// form against that reference, over the default cost table and a perturbed
// one, accumulating across calls so any divergence compounds into the running
// sums. Float comparisons are deliberately ==, not within-epsilon: an epsilon
// would accept the drift the design forbids.

// perturbedCosts returns the default table with every cost scaled and
// shifted off its round calibrated value, so the unit deltas are folded from
// values that are not small integers.
func perturbedCosts() CostTable {
	t := DefaultCosts()
	for op := range t.Ops {
		t.Ops[op].Picojoules = t.Ops[op].Picojoules*1.37 + 0.1
		t.Ops[op].Cycles = t.Ops[op].Cycles*0.93 + 1.0/3
	}
	t.CacheHit = Cost{Picojoules: 2111.7, Cycles: 1.1}
	t.CacheMiss = Cost{Picojoules: 190003.3, Cycles: 97.3}
	t.DRAMJoulesPerMiss = 21.3e-9
	return t
}

// costTables names the tables every bit-identity test runs over.
func costTables() []struct {
	name  string
	costs CostTable
} {
	return []struct {
		name  string
		costs CostTable
	}{{"default", DefaultCosts()}, {"perturbed", perturbedCosts()}}
}

// sameBits fails unless the two meters' samples, op counters and cache
// statistics are bit-identical.
func sameBits(t *testing.T, what string, got, ref *Meter) {
	t.Helper()
	gs, rs := got.Snapshot(), ref.Snapshot()
	if gs != rs {
		t.Fatalf("%s: sample %+v != reference %+v", what, gs, rs)
	}
	for op := 0; op < NumOps; op++ {
		if got.OpCount(Op(op)) != ref.OpCount(Op(op)) {
			t.Fatalf("%s: op %v count %d, reference %d",
				what, Op(op), got.OpCount(Op(op)), ref.OpCount(Op(op)))
		}
	}
	gh, gm := got.CacheStats()
	rh, rm := ref.CacheStats()
	if gh != rh || gm != rm {
		t.Fatalf("%s: cache stats %d/%d, reference %d/%d", what, gh, gm, rh, rm)
	}
}

// TestStepFastSlowBitIdentity drives every op through Step (the unit delta
// at n==1) and through stepN (the product) at unit and non-unit counts.
func TestStepFastSlowBitIdentity(t *testing.T) {
	for _, tc := range costTables() {
		got, ref := NewMeter(tc.costs), NewMeter(tc.costs)
		for _, n := range []int{1, 1, 2, 3, 7, 1000, 0, -4, 1} {
			for op := 0; op < NumOps; op++ {
				got.Step(Op(op), n)
				ref.stepN(Op(op), n)
			}
			sameBits(t, fmt.Sprintf("%s table, after n=%d", tc.name, n), got, ref)
		}
	}
}

// TestAccessFastSlowBitIdentity walks Access and accessLines over a mixed
// access pattern: sequential sweeps (hits), strided sweeps (misses and
// evictions), and accesses sized and placed to span line boundaries — the
// case Access's single-line check must hand to accessLines.
func TestAccessFastSlowBitIdentity(t *testing.T) {
	geometries := []CacheConfig{
		DefaultCacheConfig(),
		{SizeBytes: 24 << 10, LineBytes: 64, Ways: 8}, // 48 sets: not a power of two
		{SizeBytes: 4 << 10, LineBytes: 32, Ways: 2},
		{SizeBytes: 16 << 10, LineBytes: 128, Ways: 4},
	}
	for _, tc := range costTables() {
		for _, g := range geometries {
			got, ref := NewMeterCache(tc.costs, g), NewMeterCache(tc.costs, g)
			rng := rand.New(rand.NewSource(43))
			base := got.Alloc(1 << 16)
			if rb := ref.Alloc(1 << 16); rb != base {
				t.Fatalf("allocators diverged: %d vs %d", base, rb)
			}
			for i := 0; i < 4000; i++ {
				addr := base + uint64(rng.Intn(1<<16))
				size := []int{1, 4, 8, 8, 64, 100, 0}[rng.Intn(7)]
				got.Access(addr, size)
				ref.accessLines(addr, size)
			}
			sameBits(t, fmt.Sprintf("%s table, %+v", tc.name, g), got, ref)
		}
	}
}

// TestFusedHelpersMatchGeneralSequence pins each flattened helper to the
// general call sequence it replaces: the fused form must be
// indistinguishable from its Step+Access expansion.
func TestFusedHelpersMatchGeneralSequence(t *testing.T) {
	for _, tc := range costTables() {
		fused := NewMeter(tc.costs)
		expanded := NewMeter(tc.costs)
		base := fused.Alloc(4096)
		expanded.Alloc(4096)
		rng := rand.New(rand.NewSource(53))
		for i := 0; i < 2000; i++ {
			addr := base + uint64(8*rng.Intn(512))
			switch i % 4 {
			case 0:
				fused.ArrayAccess(addr, 8)
				expanded.Step(OpArrayElem, 1)
				expanded.Step(OpBoundsCheck, 1)
				expanded.Access(addr, 8)
			case 1:
				// Element sizes that span lines must fall back identically.
				fused.ArrayAccess(addr|61, 8)
				expanded.Step(OpArrayElem, 1)
				expanded.Step(OpBoundsCheck, 1)
				expanded.Access(addr|61, 8)
			case 2:
				fused.FieldAccess(addr)
				expanded.Step(OpField, 1)
				expanded.Access(addr, 8)
			case 3:
				fused.StaticAccess(addr)
				expanded.Step(OpStatic, 1)
				expanded.Access(addr, 8)
			}
		}
		sameBits(t, tc.name+" table, fused vs expanded", fused, expanded)
	}
}

// TestReportRowOrderDeterministic is the regression test for the unstable
// Report sort: ops with equal counts must render in op-index order, every
// time, so the report is a pure function of the counters.
func TestReportRowOrderDeterministic(t *testing.T) {
	m := NewMeter(DefaultCosts())
	// Three distinct ops, identical counts — the tie the old sort.Slice
	// comparator left to the sorter's whim.
	for _, op := range []Op{OpStatic, OpArithInt, OpLocal} {
		m.Step(op, 7)
	}
	m.Step(OpCall, 9)
	want := m.Report()
	for i := 0; i < 20; i++ {
		if got := m.Report(); got != want {
			t.Fatalf("Report changed between calls:\n%s\nvs\n%s", got, want)
		}
	}
	lines := strings.Split(strings.TrimSpace(want), "\n")
	if len(lines) != 5 {
		t.Fatalf("report = %q, want header + 4 rows", want)
	}
	// Highest count first, then the tied trio in op-index order.
	wantOrder := []Op{OpCall, OpArithInt, OpLocal, OpStatic}
	if OpArithInt > OpLocal || OpLocal > OpStatic {
		t.Fatal("test assumes OpArithInt < OpLocal < OpStatic; adjust wantOrder")
	}
	for i, op := range wantOrder {
		if !strings.Contains(lines[i+1], op.String()) {
			t.Errorf("row %d = %q, want op %v", i, lines[i+1], op)
		}
	}
}
