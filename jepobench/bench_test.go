package main

import (
	"context"
	"encoding/json"
	"math"
	"os"
	"strings"
	"testing"
	"time"
)

// TestBenchmarkJSONDeclaresTheReportedMetrics keeps BENCHMARK.json and the
// metrics the benchmark prints in step.
func TestBenchmarkJSONDeclaresTheReportedMetrics(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name string } `json:"workloads"`
		EndToEnd  []metricDef             `json:"end_to_end"`
		PerLayer  []metricDef             `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatal(err)
	}
	for _, w := range spec.Workloads {
		if _, err := newBench(w.Name, defaultSeed, true); err != nil {
			t.Errorf("workload %s: %v", w.Name, err)
		}
	}
	same := func(kind string, got, want []metricDef) {
		if len(got) != len(want) {
			t.Fatalf("%s: BENCHMARK.json declares %d metrics, the benchmark reports %d", kind, len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Errorf("%s[%d]: BENCHMARK.json has %+v, the benchmark reports %+v", kind, i, got[i], want[i])
			}
		}
	}
	same("end_to_end", spec.EndToEnd, endToEnd)
	same("per_layer", spec.PerLayer, perLayer)
}

// TestQuantilesMatchPython pins the quartiles to statistics.quantiles(xs,
// n=4), the method the benchmark's spread is judged by.
func TestQuantilesMatchPython(t *testing.T) {
	for _, tc := range []struct {
		xs        []float64
		q1, m, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 5.5, 8.25},
		{[]float64{3, 1, 2}, 1, 2, 3},
		{[]float64{5, 1}, 0, 3, 6},
		{[]float64{7}, 7, 7, 7},
	} {
		s := summarize("s", tc.xs)
		if s.Q1 != tc.q1 || s.Median != tc.m || s.Q3 != tc.q3 || s.N != len(tc.xs) {
			t.Errorf("%v: got q1=%v median=%v q3=%v n=%d, want %v %v %v %d", tc.xs, s.Q1, s.Median, s.Q3, s.N, tc.q1, tc.m, tc.q3, len(tc.xs))
		}
	}
}

// TestPercentileNeedsTenSamplesBeyond: a percentile is reported only when
// at least ten samples lie beyond it.
func TestPercentileNeedsTenSamplesBeyond(t *testing.T) {
	series := func(n int) []float64 {
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = float64(n - i)
		}
		return xs
	}
	if _, ok := percentile(series(199), 0.95); ok {
		t.Error("p95 of 199 samples reported with fewer than ten beyond it")
	}
	v, ok := percentile(series(200), 0.95)
	if !ok || v != 190 {
		t.Errorf("p95 of 1..200 = %v, %v; want 190, true", v, ok)
	}
	if _, ok := percentile(series(19), 0.50); ok {
		t.Error("p50 of 19 samples reported with fewer than ten beyond it")
	}
	if v, ok := percentile(series(20), 0.50); !ok || v != 10 {
		t.Errorf("p50 of 1..20 = %v, %v; want 10, true", v, ok)
	}
}

// TestSelfTimeSubtractsTheUnionOfChildren builds a trace by hand: two
// overlapping children must not be subtracted twice, a grouping span is
// unattributed, and no share or coverage exceeds 1.
func TestSelfTimeSubtractsTheUnionOfChildren(t *testing.T) {
	tr := newTracer()
	at := func(ms int) time.Time { return tr.t0.Add(time.Duration(ms) * time.Millisecond) }
	tr.add("bench.lane", "", -1, at(0), at(100))    // 0
	tr.add("bench.row", "r", 0, at(0), at(90))      // 1
	tr.add("parser.parse", "", 1, at(10), at(60))   // 2
	tr.add("interp.exec", "", 2, at(20), at(40))    // 3
	tr.add("interp.load", "", 2, at(30), at(50))    // 4: overlaps 3
	tr.add("classify.cv", "J48", 1, at(60), at(85)) // 5
	s := tr.summary()
	want := map[string]time.Duration{
		"bench.row":    90*time.Millisecond - 75*time.Millisecond,
		"parser.parse": 50*time.Millisecond - 30*time.Millisecond,
		"interp.exec":  20 * time.Millisecond,
		"interp.load":  20 * time.Millisecond,
		"classify.cv":  25 * time.Millisecond,
	}
	for name, d := range want {
		if s.Self[name] != d {
			t.Errorf("self(%s) = %v, want %v", name, s.Self[name], d)
		}
	}
	if s.LaneWall != 100*time.Millisecond {
		t.Errorf("lane wall = %v, want 100ms", s.LaneWall)
	}
	if got := s.Coverage(); got < 0 || got > 1 || math.Abs(got-0.85) > 1e-9 {
		t.Errorf("coverage = %v, want 0.85 (grouping spans are unattributed)", got)
	}
	if s.SelfByID["classify.cv"]["J48"] != 25*time.Millisecond {
		t.Errorf("classify.cv self for J48 = %v", s.SelfByID["classify.cv"]["J48"])
	}
	for _, name := range layerSpans {
		if sh := s.Share(name); sh < 0 || sh > 1 {
			t.Errorf("share(%s) = %v outside [0,1]", name, sh)
		}
	}
}

// smoke runs one workload at its tiny size, untraced and traced, and
// applies the checks every run of the benchmark must pass.
func smoke(t *testing.T, name string) (result, result) {
	t.Helper()
	if testing.Short() {
		t.Skip("smoke runs take seconds")
	}
	ctx := context.Background()
	b, err := newBench(name, 7, true)
	if err != nil {
		t.Fatal(err)
	}
	rec := newRecord(name, 7, 0, 0)
	plain, err := measure(ctx, b, 0, rec)
	if err != nil {
		t.Fatal(err)
	}
	if !plain.Correct || plain.Failed != 0 || plain.Attempted == 0 {
		t.Fatalf("untraced %s: correct=%v attempted=%d failed=%d", name, plain.Correct, plain.Attempted, plain.Failed)
	}
	for _, m := range endToEnd {
		v, ok := plain.Metrics[m.Name]
		if !ok || v.Unit != m.Unit || !(v.Value > 0) {
			t.Errorf("untraced %s: metric %s = %+v, want a positive value in %s", name, m.Name, v, m.Unit)
		}
	}
	for metric, s := range rec.Metrics {
		if s.N < 1 {
			t.Errorf("%s: metric %s carries no sample count", name, metric)
		}
	}
	if p50, ok := rec.Percentiles["req_p50_ms"]; ok {
		if p95, ok := rec.Percentiles["req_p95_ms"]; ok && p50.Value > p95.Value {
			t.Errorf("req_p50_ms %v > req_p95_ms %v", p50.Value, p95.Value)
		}
	}
	for q, p := range rec.Percentiles {
		if beyond := float64(p.N) * (1 - p.Q); beyond < minBeyond {
			t.Errorf("%s reported with %v samples beyond it", q, beyond)
		}
	}

	trec := newRecord(name, 7, 1, 0)
	traced, err := measureTraced(ctx, b, trec, os.Stderr)
	if err != nil {
		t.Fatal(err)
	}
	if !traced.Correct || traced.Failed != 0 {
		t.Fatalf("traced %s: correct=%v attempted=%d failed=%d", name, traced.Correct, traced.Attempted, traced.Failed)
	}
	for _, m := range perLayer {
		if _, ok := traced.Metrics[m.Name]; !ok {
			t.Errorf("traced %s: per-layer metric %s missing", name, m.Name)
		}
	}
	if c := traced.Metrics["trace.coverage"].Value; !(c > 0 && c <= 1) {
		t.Errorf("trace.coverage = %v, want within (0,1]", c)
	}
	for layer, sh := range trec.LayerShares {
		if sh < 0 || sh > 1 {
			t.Errorf("share of %s = %v, outside [0,1]", layer, sh)
		}
	}
	if trec.TraceOverheadS == nil {
		t.Error("trace.overhead_s not recorded")
	}
	if h := traced.Metrics["engine.hit_rate"].Value; h < 0 || h > 1 {
		t.Errorf("engine.hit_rate = %v, outside [0,1]", h)
	}
	if p50, p95 := traced.Metrics["service.req_p50_ms"].Value, traced.Metrics["service.req_p95_ms"].Value; p95 > 0 && p50 > p95 {
		t.Errorf("service.req_p50_ms %v > service.req_p95_ms %v", p50, p95)
	}
	return plain, traced
}

func TestSmokeTable4(t *testing.T) {
	_, traced := smoke(t, "table4")
	if traced.Metrics["classify.cv_s"].Value <= 0 || traced.Metrics["stats.kernel_runs"].Value <= 0 {
		t.Error("table4 replay did no cross-validation or no kernel runs")
	}
}

func TestSmokeCorpus(t *testing.T) {
	_, traced := smoke(t, "corpus")
	// The bypass predictions: corpus files never run, so neither the VM nor
	// the classifiers do any work.
	if v := traced.Metrics["classify.cv_s"].Value; v != 0 {
		t.Errorf("corpus classify.cv_s = %v, want 0", v)
	}
	if v := traced.Metrics["interp.ops"].Value; v != 0 {
		t.Errorf("corpus interp.ops = %v, want 0", v)
	}
	if traced.Metrics["parser.files"].Value <= 0 {
		t.Error("corpus replay parsed nothing")
	}
}

func TestSmokeSession(t *testing.T) {
	plain, traced := smoke(t, "session")
	if v := traced.Metrics["classify.cv_s"].Value; v != 0 {
		t.Errorf("session classify.cv_s = %v, want 0", v)
	}
	if traced.Metrics["interp.ops"].Value <= 0 {
		t.Error("session replay executed nothing")
	}
	if plain.Attempted < sessionTiny.Clients*sessionTiny.Rounds*len(roundKinds) {
		t.Errorf("session attempted %d requests", plain.Attempted)
	}
}

// corruptNth returns a mutate hook that damages only the n-th output it
// sees, counting from 1.
func corruptNth(n int) func(string) string {
	seen := 0
	return func(s string) string {
		seen++
		if seen == n {
			return strings.Replace(s, " ", "#", 1)
		}
		return s
	}
}

// TestCorruptedOutputIsAFailedOperation damages one output of each
// workload and requires the benchmark to count it as failed.
func TestCorruptedOutputIsAFailedOperation(t *testing.T) {
	if testing.Short() {
		t.Skip("smoke runs take seconds")
	}
	ctx := context.Background()
	twoRuns := func(t *testing.T, b bench) tally {
		var total tally
		for i := 0; i < 2; i++ {
			it, err := runIteration(ctx, b)
			if err != nil {
				t.Fatal(err)
			}
			total.add(it.tally)
		}
		v, err := b.verify(ctx)
		if err != nil {
			t.Fatal(err)
		}
		total.add(v)
		return total
	}
	t.Run("table4", func(t *testing.T) {
		b := newTable4Bench(7, true)
		b.mutate = func(s string) string { return strings.Replace(s, "RandomTree ", "RandomTree#", 1) }
		it, err := runIteration(ctx, b)
		if err != nil {
			t.Fatal(err)
		}
		if it.tally.Failed != 1 {
			t.Errorf("failed = %d, want 1 (one corrupted row)", it.tally.Failed)
		}
	})
	t.Run("corpus", func(t *testing.T) {
		b := newCorpusBench(7, true)
		b.mutate = corruptNth(len(b.classifiers) + 1)
		got := twoRuns(t, b)
		if got.Failed == 0 || got.Failed >= got.Attempted/2 {
			t.Errorf("failed = %d of %d, want one call's files", got.Failed, got.Attempted)
		}
	})
	t.Run("session", func(t *testing.T) {
		b, err := newSessionBench(7, true)
		if err != nil {
			t.Fatal(err)
		}
		b.mutate = corruptNth(1)
		if got := twoRuns(t, b); got.Failed != 1 {
			t.Errorf("failed = %d, want 1", got.Failed)
		}
	})
}

// TestPinnedDigestsDetectADrift holds a wrong row against expected.json.
func TestPinnedDigestsDetectADrift(t *testing.T) {
	if expected.Seed != defaultSeed || len(expected.Table4) == 0 || len(expected.Corpus) != 10 {
		t.Fatalf("expected.json pins seed %d, %d Table IV runs and %d corpus views", expected.Seed, len(expected.Table4), len(expected.Corpus))
	}
	for run, rows := range expected.Table4 {
		if len(rows) != 10 {
			t.Errorf("expected.json pins %d rows for Table IV run %d, want 10", len(rows), run)
		}
	}
	b := newTable4Bench(defaultSeed, false)
	if b.rowOK(0, 0, "J48 and a wrong row") {
		t.Error("a wrong row passed the pinned check")
	}
}
