package rapl

import (
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"jepo/internal/energy"
)

// noBackoff replaces the retry sleep with a call counter.
func noBackoff(calls *int) ResilientOption {
	return WithBackoff(func(int) { *calls++ })
}

func TestResilientPassthroughWhenClean(t *testing.T) {
	m := newTestMeter()
	direct := NewSimSource(m)
	r := NewResilient(NewSimSource(m))
	direct.Snapshot()
	r.Snapshot()
	m.Step(energy.OpModInt, 500_000)
	want, _ := direct.Snapshot()
	got, err := r.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	if got != want || got.Core <= 0 {
		t.Errorf("resilient snapshot %+v, direct %+v — must be identical with no faults", got, want)
	}
	h := r.Health()
	if h.Reads != 2 || h.Degraded() {
		t.Errorf("clean run health = %s", h)
	}
}

func TestResilientRetriesTransient(t *testing.T) {
	m := newTestMeter()
	src := NewFaultySource(NewSimSource(m), Script{1: FaultTransient})
	backoffs := 0
	r := NewResilient(src, WithRetries(2), noBackoff(&backoffs))
	if _, err := r.Snapshot(); err != nil {
		t.Fatal(err)
	}
	m.Step(energy.OpModInt, 500_000)
	s1, err := r.Snapshot() // injector read 1 fails, retry (read 2) succeeds
	if err != nil {
		t.Fatalf("transient fault not absorbed: %v", err)
	}
	if s1.Core <= 0 {
		t.Errorf("retried read lost the energy: %+v", s1)
	}
	h := r.Health()
	if h.Retries != 1 || backoffs != 1 {
		t.Errorf("retries = %d, backoffs = %d, want 1 each (health %s)", h.Retries, backoffs, h)
	}
}

func TestResilientInterpolatesSingleMiss(t *testing.T) {
	m := newTestMeter()
	// Retries exhausted on caller read 1: injector reads 1 and 2 both fail.
	src := NewFaultySource(NewSimSource(m), Script{1: FaultTransient, 2: FaultTransient})
	backoffs := 0
	r := NewResilient(src, WithRetries(1), noBackoff(&backoffs))
	s0, err := r.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	m.Step(energy.OpModInt, 500_000)
	s1, err := r.Snapshot() // miss: served from last-known-good
	if err != nil {
		t.Fatalf("single miss must interpolate, got %v", err)
	}
	if s1 != s0 {
		t.Errorf("interpolated read %+v, want last-known-good %+v", s1, s0)
	}
	s2, err := r.Snapshot() // recovers; the gap's energy lands here
	if err != nil {
		t.Fatal(err)
	}
	if s2.Core <= s1.Core {
		t.Errorf("recovery read %+v did not catch up past %+v", s2, s1)
	}
	h := r.Health()
	if h.Interpolated != 1 || h.Fallbacks != 0 {
		t.Errorf("health = %s, want exactly 1 interpolation", h)
	}
}

func TestResilientFallsBackAndRebases(t *testing.T) {
	m := newTestMeter()
	primary := NewFaultySource(NewSimSource(m), Script{2: FaultPermanent})
	fallback := NewSimSource(m)
	backoffs := 0
	r := NewResilient(primary, WithFallback(fallback), WithRetries(0), WithMaxMisses(0), noBackoff(&backoffs))

	if _, err := r.Snapshot(); err != nil { // read 0: primary
		t.Fatal(err)
	}
	m.Step(energy.OpModInt, 1_000_000)
	s1, err := r.Snapshot() // read 1: primary
	if err != nil {
		t.Fatal(err)
	}
	m.Step(energy.OpModInt, 1_000_000)
	s2, err := r.Snapshot() // read 2: primary dies → switch, rebased to last good
	if err != nil {
		t.Fatalf("fallback switch must absorb the death: %v", err)
	}
	if s2 != s1 {
		t.Errorf("switch read %+v, want rebase onto last good %+v", s2, s1)
	}
	if !r.OnFallback() {
		t.Error("wrapper must report fallback mode")
	}
	m.Step(energy.OpModInt, 1_000_000)
	s3, err := r.Snapshot() // read 3: fallback, rebased
	if err != nil {
		t.Fatal(err)
	}
	d := s3.Sub(s2)
	if d.Core <= 0 {
		t.Errorf("fallback reads must keep accumulating: delta %+v", d)
	}
	// The fallback delta must match the real energy spent since the switch.
	wantCore := 0.172 // 1M OpModInt steps ≈ 172 mJ core
	if math.Abs(float64(d.Core)-wantCore) > 2.0/65536 {
		t.Errorf("fallback core delta = %v, want ≈%g", d.Core, wantCore)
	}
	h := r.Health()
	if h.Discontinuities != 1 {
		t.Errorf("discontinuities = %d, want 1 (health %s)", h.Discontinuities, h)
	}
	if h.Fallbacks < 2 {
		t.Errorf("fallbacks = %d, want ≥ 2", h.Fallbacks)
	}
	// Monotonic through the whole degraded sequence.
	for _, pair := range [][2]Snapshot{{s1, s2}, {s2, s3}} {
		if pair[1].Package < pair[0].Package || pair[1].Core < pair[0].Core {
			t.Errorf("energy went backwards: %+v → %+v", pair[0], pair[1])
		}
	}
}

func TestResilientNoFallbackEventuallyFails(t *testing.T) {
	m := newTestMeter()
	src := NewFaultySource(NewSimSource(m), Script{1: FaultPermanent})
	r := NewResilient(src, WithRetries(0), WithMaxMisses(1), noBackoff(new(int)))
	if _, err := r.Snapshot(); err != nil {
		t.Fatal(err)
	}
	if _, err := r.Snapshot(); err != nil { // miss 1: interpolated
		t.Fatalf("first miss must interpolate: %v", err)
	}
	if _, err := r.Snapshot(); err == nil { // miss 2: no fallback → error
		t.Fatal("second consecutive miss with no fallback must fail")
	}
}

func TestHealthAddStringDegraded(t *testing.T) {
	a := Health{Reads: 2, Retries: 1}
	b := Health{Reads: 3, Quarantined: 1, Discontinuities: 1}
	sum := a.Add(b)
	if sum.Reads != 5 || sum.Retries != 1 || sum.Quarantined != 1 || sum.Discontinuities != 1 {
		t.Errorf("Add wrong: %+v", sum)
	}
	if (Health{Reads: 10}).Degraded() {
		t.Error("reads alone are not degradation")
	}
	if !sum.Degraded() {
		t.Error("retries/quarantines are degradation")
	}
	s := sum.String()
	for _, want := range []string{"reads=5", "retries=1", "quarantined=1", "discontinuities=1"} {
		if !strings.Contains(s, want) {
			t.Errorf("health string %q missing %q", s, want)
		}
	}
}

// TestHealthAddMerge: Add is the field-wise sum, for every field, and it
// commutes.
func TestHealthAddMerge(t *testing.T) {
	a := Health{Reads: 10, Retries: 1, Interpolated: 2, Resets: 3}
	b := Health{Reads: 5, Fallbacks: 4, Discontinuities: 1, Quarantined: 2, Resets: 1}
	want := Health{
		Reads:           15,
		Retries:         1,
		Interpolated:    2,
		Fallbacks:       4,
		Discontinuities: 1,
		Quarantined:     2,
		Resets:          4,
	}
	if got := a.Add(b); got != want {
		t.Errorf("Add = %+v, want %+v", got, want)
	}
	if a.Add(b) != b.Add(a) {
		t.Error("Add is not commutative")
	}
}

// --- hardened powercap: wrap-reset branches, quarantine, disappearing zones ---

// TestSysfsBackwardsWithoutRangeSkipsDelta covers the counter-reset branch:
// with max_energy_range_uj absent, a backwards jump must not re-accumulate
// the counter value (double-counting on stale reads); the delta is skipped
// and recorded as a reset. The known-range wrap branch is covered by
// TestSysfsUnwrapsAgainstMaxRange.
func TestSysfsBackwardsWithoutRangeSkipsDelta(t *testing.T) {
	root := t.TempDir()
	pkg := writeZone(t, root, "intel-rapl:0", "package-0", 999_000, 0) // no range file
	s, err := NewSysfs(root)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Snapshot(); err != nil {
		t.Fatal(err)
	}
	// Counter goes backwards: reset or stale duplicate, either way the
	// accumulated energy must not jump by the raw value.
	os.WriteFile(filepath.Join(pkg, "energy_uj"), []byte("500\n"), 0o644)
	s1, err := s.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	if s1.Package != 0 {
		t.Errorf("backwards jump accumulated %v µJ, want 0 (delta skipped)", s1.Package.Microjoules())
	}
	// The zone resyncs from the new value and keeps counting.
	os.WriteFile(filepath.Join(pkg, "energy_uj"), []byte("1500\n"), 0o644)
	s2, err := s.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(s2.Package.Microjoules()-1000) > 1e-6 {
		t.Errorf("post-reset delta = %v µJ, want 1000", s2.Package.Microjoules())
	}
	if h := s.Health(); h.Resets != 1 {
		t.Errorf("health resets = %d, want 1 (health %s)", h.Resets, h)
	}
}

// TestSysfsSurvivesDisappearingZone exercises zone loss mid-run: a sub-zone
// whose files vanish between reads contributes its frozen accumulation, is
// quarantined after the threshold, and the snapshot keeps succeeding from
// the surviving zones.
func TestSysfsSurvivesDisappearingZone(t *testing.T) {
	root := t.TempDir()
	pkg := writeZone(t, root, "intel-rapl:0", "package-0", 1_000_000, 0)
	core := writeZone(t, root, "intel-rapl:0:0", "core", 400_000, 0)
	s, err := NewSysfs(root)
	if err != nil {
		t.Fatal(err)
	}
	s.QuarantineAfter = 2
	if _, err := s.Snapshot(); err != nil {
		t.Fatal(err)
	}
	// Both zones advance once, so the core zone has accumulated energy to
	// freeze when it disappears.
	os.WriteFile(filepath.Join(core, "energy_uj"), []byte("500000\n"), 0o644)
	os.WriteFile(filepath.Join(pkg, "energy_uj"), []byte("1050000\n"), 0o644)
	s1, err := s.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(s1.Core.Microjoules()-100_000) > 1e-6 || math.Abs(s1.Package.Microjoules()-50_000) > 1e-6 {
		t.Fatalf("pre-loss accumulation wrong: %+v", s1)
	}

	// The core zone disappears (hotplug); the package keeps advancing.
	if err := os.RemoveAll(core); err != nil {
		t.Fatal(err)
	}
	for i := 1; i <= 3; i++ {
		os.WriteFile(filepath.Join(pkg, "energy_uj"), []byte(itoa(1_050_000+uint64(i)*100_000)), 0o644)
		snap, err := s.Snapshot()
		if err != nil {
			t.Fatalf("snapshot %d after zone loss: %v", i, err)
		}
		if math.Abs(snap.Core.Microjoules()-100_000) > 1e-6 {
			t.Errorf("snapshot %d: core = %v µJ, want frozen 100000", i, snap.Core.Microjoules())
		}
		wantPkg := float64(50_000 + i*100_000)
		if math.Abs(snap.Package.Microjoules()-wantPkg) > 1e-6 {
			t.Errorf("snapshot %d: package = %v µJ, want %v", i, snap.Package.Microjoules(), wantPkg)
		}
	}
	h := s.Health()
	if h.Quarantined != 1 {
		t.Errorf("quarantined = %d, want 1 (health %s)", h.Quarantined, h)
	}
	if h.Interpolated != 2 {
		t.Errorf("interpolated = %d, want 2 reads served frozen before quarantine", h.Interpolated)
	}
}

// TestSysfsDiesWhenAllPackageZonesGone: once every package zone is
// quarantined the source errors, which is the resilient wrapper's signal to
// fall back to the simulator.
func TestSysfsDiesWhenAllPackageZonesGone(t *testing.T) {
	root := t.TempDir()
	writeZone(t, root, "intel-rapl:0", "package-0", 1_000_000, 0)
	s, err := NewSysfs(root)
	if err != nil {
		t.Fatal(err)
	}
	s.QuarantineAfter = 1
	if _, err := s.Snapshot(); err != nil {
		t.Fatal(err)
	}
	if err := os.RemoveAll(filepath.Join(root, "intel-rapl:0")); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Snapshot(); err == nil {
		t.Fatal("losing the only package zone must kill the source")
	}

	// End to end: a resilient wrapper over a dying sysfs tree falls back to
	// the simulator and keeps serving monotonic snapshots.
	root2 := t.TempDir()
	writeZone(t, root2, "intel-rapl:0", "package-0", 2_000_000, 0)
	sys, err := NewSysfs(root2)
	if err != nil {
		t.Fatal(err)
	}
	sys.QuarantineAfter = 1
	m := newTestMeter()
	r := NewResilient(sys, WithFallback(NewSimSource(m)), WithRetries(0), WithMaxMisses(0), noBackoff(new(int)))
	prev, err := r.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	if err := os.RemoveAll(filepath.Join(root2, "intel-rapl:0")); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		m.Step(energy.OpModInt, 200_000)
		snap, err := r.Snapshot()
		if err != nil {
			t.Fatalf("read %d after sysfs death: %v", i, err)
		}
		if snap.Package < prev.Package {
			t.Errorf("read %d went backwards: %+v < %+v", i, snap, prev)
		}
		prev = snap
	}
	h := r.Health()
	if h.Discontinuities != 1 || h.Fallbacks == 0 || h.Quarantined != 1 {
		t.Errorf("health after sysfs death = %s, want 1 discontinuity, fallbacks, 1 quarantine", h)
	}
}
