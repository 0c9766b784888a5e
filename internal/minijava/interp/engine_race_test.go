package interp

import (
	"context"
	"math"
	"sync"
	"testing"

	"jepo/internal/energy"
	"jepo/internal/minijava/parser"
	"jepo/internal/sched"
)

// TestConcurrentInstancesShareProgram pins that a loaded Program (including
// its compiled bytecode and constant pools) is safe to share across
// interpreter instances: every instance executes the one finalized code
// stream read-only, and all mutable VM state — stacks, frame pools,
// call-site caches, meters — is per-instance. The race detector turns any
// shared-state slip into a hard failure under scripts/check.sh's
// `go test -race` gate.
//
// Each worker runs each program twice on one instance — the first run fills
// the site caches and pools, the second executes against them — while every
// other worker does the same concurrently. The bit-comparison (per run,
// across workers) catches any nondeterminism warm state could introduce.
// The "calls" program is call-, field- and builtin-heavy so the site caches
// see every dispatch shape. (Neither program has static fields: static slots
// live in the shared Program, so static-mutating programs are
// single-instance.)
func TestConcurrentInstancesShareProgram(t *testing.T) {
	programs := []struct{ name, src string }{
		{"loops", `class B {
		static double f() {
			double s = 0.0;
			int[] a = new int[16];
			for (int i = 0; i < 16; i++) { a[i] = i * 3 - 7; }
			for (int i = 0; i < 200; i++) {
				s += a[i % 16] * 0.5;
				if (i % 7 == 0) { s = s * 1.01; }
			}
			return s;
		}
	}`},
		{"calls", `class C {
		int v;
		C(int v0) { this.v = v0; }
		int bump() { this.v += 3; return this.v; }
	}
	class B {
		static int twice(int x) { return x * 2; }
		static double f() {
			C c = new C(5);
			double s = 0.0;
			for (int i = 0; i < 150; i++) {
				int t = twice(i) - c.bump() % 7;
				s += Math.max(t % 11, c.v % 13) + Integer.valueOf(i).intValue();
			}
			return s + c.v;
		}
	}`},
	}
	for _, engine := range []Engine{EngineVM, EngineAST} {
		engine := engine
		t.Run(engine.String(), func(t *testing.T) {
			for _, p := range programs {
				p := p
				t.Run(p.name, func(t *testing.T) {
					f, err := parser.Parse("race.java", p.src)
					if err != nil {
						t.Fatal(err)
					}
					prog, err := Load(f)
					if err != nil {
						t.Fatal(err)
					}
					const workers = 8
					const runs = 2
					var results [workers][runs]uint64
					var joules [workers][runs]uint64
					var wg sync.WaitGroup
					for w := 0; w < workers; w++ {
						w := w
						wg.Add(1)
						go func() {
							defer wg.Done()
							in := New(prog, energy.NewMeter(energy.DefaultCosts()),
								WithMaxOps(10_000_000), WithEngine(engine))
							for r := 0; r < runs; r++ {
								v, err := in.CallStatic("B", "f")
								if err != nil {
									t.Errorf("worker %d run %d: %v", w, r, err)
									return
								}
								results[w][r] = math.Float64bits(v.D)
								joules[w][r] = math.Float64bits(float64(in.Meter().Snapshot().Package))
							}
						}()
					}
					wg.Wait()
					for w := 1; w < workers; w++ {
						for r := 0; r < runs; r++ {
							if results[w][r] != results[0][r] || joules[w][r] != joules[0][r] {
								t.Errorf("worker %d run %d diverged: result %#x/%#x joules %#x/%#x",
									w, r, results[w][r], results[0][r], joules[w][r], joules[0][r])
							}
						}
					}
				})
			}
		})
	}
}

// TestSchedMapSharesProgram drives the same shared-Program invariant through
// the sched worker pool — the access pattern the parallel table generators
// use: one compiled Program, a fresh Interp and meter per task. The race
// detector guards the sharing; the bit-comparison guards determinism.
func TestSchedMapSharesProgram(t *testing.T) {
	src := `class B {
		static double f() {
			double s = 1.5;
			for (int i = 0; i < 300; i++) {
				s += (i % 5) * 0.25;
				if (i % 11 == 0) { s = s * 0.99; }
			}
			return s;
		}
	}`
	f, err := parser.Parse("race.java", src)
	if err != nil {
		t.Fatal(err)
	}
	prog, err := Load(f)
	if err != nil {
		t.Fatal(err)
	}
	for _, engine := range []Engine{EngineVM, EngineAST} {
		engine := engine
		t.Run(engine.String(), func(t *testing.T) {
			type outcome struct{ result, joules uint64 }
			run := func(jobs int) []outcome {
				out, _, err := sched.Map(context.Background(), sched.Config{Jobs: jobs, Seed: 7}, make([]struct{}, 24),
					func(task sched.Task, _ struct{}) (outcome, error) {
						in := New(prog, energy.NewMeter(energy.DefaultCosts()),
							WithMaxOps(10_000_000), WithEngine(engine))
						v, err := in.CallStatic("B", "f")
						if err != nil {
							return outcome{}, err
						}
						return outcome{
							result: math.Float64bits(v.D),
							joules: math.Float64bits(float64(in.Meter().Snapshot().Package)),
						}, nil
					})
				if err != nil {
					t.Fatal(err)
				}
				return out
			}
			want := run(1)
			for _, jobs := range []int{4, 8} {
				got := run(jobs)
				for i := range got {
					if got[i] != want[i] {
						t.Errorf("jobs=%d task %d diverged: %+v vs sequential %+v", jobs, i, got[i], want[i])
					}
				}
			}
		})
	}
}
