package core

import (
	"context"
	"math"
	"runtime"
	"sync"
	"testing"

	"jepo/internal/corpus"
	"jepo/internal/engine"
)

// TestSharedStoreRaceStress is the concurrency acceptance gate for the
// artifact engine: two AnalyzeAll pipelines at -jobs GOMAXPROCS hammer ONE
// shared store concurrently — one handed the store explicitly, one reaching
// it through engine.Default() — alongside a loop of direct Sample calls over
// the same sources. Run under -race by scripts/check.sh. Assertions: every
// consumer's output is bit-identical to a disabled-cache baseline, and the
// shared store tallies both hits and misses (i.e. the consumers really did
// share artifacts rather than each building their own).
func TestSharedStoreRaceStress(t *testing.T) {
	proj, err := corpus.Generate("RandomTree", 20200518)
	if err != nil {
		t.Fatal(err)
	}

	// Baseline with the cache disabled: the pre-engine pipeline's bytes.
	off := engine.New(engine.Config{Disabled: true})
	baseline, _, err := AnalyzeAll(context.Background(), proj, AnalyzeConfig{Jobs: 1, Cache: off})
	if err != nil {
		t.Fatal(err)
	}
	baseView := CorpusView(baseline)

	// One shared store for everything below, installed as the process
	// default so a Cache-less consumer reaches it too.
	shared := engine.New(engine.Config{})
	prev := engine.SetDefault(shared)
	defer engine.SetDefault(prev)

	benchSrcs := []engine.Source{{Path: "bench.java", Source: `class B {
	static double f() {
		double acc = 0;
		for (int i = 0; i < 5000; i++) { acc += i % 7; }
		return acc;
	}
}`}}
	benchSpec := engine.RunSpec{CallClass: "B", CallMethod: "f", MaxOps: 10_000_000}
	benchRef, err := engine.New(engine.Config{Disabled: true}).Sample(context.Background(), benchSrcs, benchSpec)
	if err != nil {
		t.Fatal(err)
	}

	jobs := runtime.GOMAXPROCS(0)
	cfgs := map[string]AnalyzeConfig{
		"explicit store": {Jobs: jobs, Cache: shared},
		"default store":  {Jobs: jobs},
	}
	var wg sync.WaitGroup
	var mu sync.Mutex
	reports := map[string]*CorpusReport{}
	errs := make(chan error, 16)

	// Consumers 1 and 2: full-width pools on the shared store.
	for name, cfg := range cfgs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			rep, _, err := AnalyzeAll(context.Background(), proj, cfg)
			if err != nil {
				errs <- err
				return
			}
			mu.Lock()
			reports[name] = rep
			mu.Unlock()
		}()
	}

	// Consumer 3: direct Sample traffic on the same store — every returned
	// sample must be bit-identical to the uncached reference.
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 8; i++ {
				s, err := shared.Sample(context.Background(), benchSrcs, benchSpec)
				if err != nil {
					errs <- err
					return
				}
				if math.Float64bits(float64(s.Package)) != math.Float64bits(float64(benchRef.Package)) {
					t.Error("concurrent Sample diverged from uncached reference")
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}

	for name, rep := range reports {
		if got := CorpusView(rep); got != baseView {
			t.Errorf("%s: AnalyzeAll view diverged from disabled-cache baseline:\n%s\n---\n%s", name, got, baseView)
		}
		// Joule bits per file: a hit must not move a single charge.
		for i, fa := range rep.Files {
			ref := baseline.Files[i]
			if fa.Path != ref.Path {
				t.Fatalf("%s: file order diverged: %s vs %s", name, fa.Path, ref.Path)
			}
			if math.Float64bits(float64(fa.Report.Baseline.Package)) != math.Float64bits(float64(ref.Report.Baseline.Package)) {
				t.Errorf("%s: %s: baseline joule bits diverged under the shared store", name, fa.Path)
			}
		}
	}

	st := shared.Stats()
	if st.Misses == 0 {
		t.Error("shared store recorded no misses — nothing was built?")
	}
	if st.Hits == 0 {
		t.Error("shared store recorded no hits — consumers did not share artifacts")
	}
	if st.Entries > st.Capacity {
		t.Errorf("store over capacity: %d > %d", st.Entries, st.Capacity)
	}
	t.Logf("shared store after stress: %s", st)
}
