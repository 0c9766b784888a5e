package main

import "jepo/internal/corpus"

// metricDef names one reported metric. The lists below are the benchmark's
// contract: BENCHMARK.json declares the same names, units and directions.
type metricDef struct {
	Name   string
	Unit   string
	Better string
}

// endToEnd are the metrics a user of the three workflows sees, reported by
// the untraced run on every workload.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower"},
	{"wall_s", "s", "lower"},
	{"cpu_s", "s", "lower"},
	{"alloc_mb", "MB", "lower"},
}

// layerSpans are the span names that stand for a layer; each reports its
// summed self time as "<name>_s". Spans named "bench.*" only group work by
// row, file, request or client and count as unattributed time.
var layerSpans = []string{
	"airlines.gen", "corpus.gen",
	"parser.parse",
	"passes.refactor", "passes.analyze",
	"interp.load", "interp.exec",
	"classify.cv",
	"tables.render", "core.render",
}

// perLayer are the metrics of the traced run, reported on every workload;
// a layer a workload does not reach reports 0.
var perLayer = func() []metricDef {
	defs := []metricDef{
		{"trace.coverage", "ratio", "higher"},
		{"trace.overhead_s", "s", "lower"},
		{"airlines.gen_s", "s", "lower"},
		{"corpus.gen_s", "s", "lower"},
		{"parser.parse_s", "s", "lower"},
		{"parser.files", "count", "lower"},
		{"parser.bytes_per_s", "B/s", "higher"},
		{"passes.refactor_s", "s", "lower"},
		{"passes.changes", "count", "higher"},
		{"passes.analyze_s", "s", "lower"},
		{"passes.diagnostics", "count", "higher"},
		{"engine.hits", "count", "higher"},
		{"engine.misses", "count", "lower"},
		{"engine.hit_rate", "ratio", "higher"},
		{"engine.evictions", "count", "lower"},
		{"engine.parses", "count", "lower"},
		{"interp.load_s", "s", "lower"},
		{"interp.exec_s", "s", "lower"},
		{"interp.ops", "count", "lower"},
		{"interp.ns_per_op", "ns", "lower"},
		{"energy.cache_hits", "count", "higher"},
		{"energy.cache_misses", "count", "lower"},
		{"energy.sim_cycles", "count", "lower"},
		{"stats.kernel_runs", "count", "lower"},
		{"classify.cv_s", "s", "lower"},
	}
	for _, name := range corpus.Classifiers {
		defs = append(defs, metricDef{"classify." + name + ".cv_s", "s", "lower"})
	}
	return append(defs,
		metricDef{"sched.busy_s", "s", "lower"},
		metricDef{"sched.tasks", "count", "lower"},
		metricDef{"sched.gate_waited", "count", "lower"},
		metricDef{"sched.gate_rejected", "count", "lower"},
		metricDef{"service.gate_wait_ms", "ms", "lower"},
		metricDef{"service.run_ms", "ms", "lower"},
		metricDef{"http.overhead_ms", "ms", "lower"},
		metricDef{"service.put_p50_ms", "ms", "lower"},
		metricDef{"service.analyze_cold_p50_ms", "ms", "lower"},
		metricDef{"service.analyze_warm_p50_ms", "ms", "lower"},
		metricDef{"service.profile_p50_ms", "ms", "lower"},
		metricDef{"service.optimize_p50_ms", "ms", "lower"},
		metricDef{"service.req_p50_ms", "ms", "lower"},
		metricDef{"service.req_p95_ms", "ms", "lower"},
		metricDef{"tables.render_s", "s", "lower"},
		metricDef{"core.render_s", "s", "lower"},
	)
}()

// counts accumulates per-layer counters under their metric names.
type counts map[string]float64
