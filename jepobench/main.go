// Command jepobench is the benchmark of the three JEPO workflows the
// repository serves: a reduced Table IV (table4), `jepo corpus` over every
// classifier closure (corpus), and a closed loop of jepod sessions (session).
// Each workload is driven in-process through the public functions of
// internal/tables, internal/core, internal/corpus and internal/service, on
// inputs derived from -seed alone, and every output is checked.
//
// The untraced form (-trace 0) repeats the workload's fixed work for
// -seconds and reports the end-to-end metrics. The traced form (-trace 1)
// runs the work once untraced, then re-drives it layer by layer with spans
// around each public call and reports the per-layer metrics. The last line
// of standard output is one JSON object: correct, attempted, failed,
// metrics. The line before it is the run's record: environment, seed and
// each metric's sample count, median and quartiles.
//
// Run it from the repository root through run.sh, which builds it:
//
//	sh jepobench/run.sh --workload table4 --seed 1 --seconds 30 --trace 0
package main

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"syscall"
	"time"
)

// defaultSeed is the seed whose Table IV and corpus outputs are pinned by
// digest in expected.json.
const defaultSeed = 1

// tally counts a workload's operations: Table IV rows, corpus files or HTTP
// requests. An operation fails on an error, a non-2xx status, a shed
// request, a FAILED row or a byte mismatch against the expected output.
type tally struct {
	Attempted int
	Failed    int
}

func (t *tally) add(o tally) {
	t.Attempted += o.Attempted
	t.Failed += o.Failed
}

// bench is one workload.
type bench interface {
	// setup builds a fresh instance: what one CLI process or one daemon
	// start pays before its first timed operation.
	setup(ctx context.Context) error
	// run performs the workload's fixed work once on the instance and checks
	// every output.
	run(ctx context.Context) (tally, error)
	// teardown releases the instance.
	teardown()
	// layerCounts reports the counters the last run exposed: artifact
	// store, worker pool, admission gate, request latencies.
	layerCounts() counts
	// requestLatencies returns the client-observed request latencies in
	// milliseconds over every run so far, or nil for a batch workload.
	requestLatencies() []float64
	// verify runs the untimed output checks once the measurement window
	// has closed.
	verify(ctx context.Context) (tally, error)
	// replay re-drives the last run's work layer by layer under tr, checks
	// it against that run, and returns the traced wall time comparable to
	// one untraced run.
	replay(ctx context.Context, tr *tracer, c counts) (tally, time.Duration, error)
}

// newBench builds a workload at full size, or at the tiny size the
// benchmark's own tests use.
func newBench(name string, seed uint64, tiny bool) (bench, error) {
	switch name {
	case "table4":
		return newTable4Bench(seed, tiny), nil
	case "corpus":
		return newCorpusBench(seed, tiny), nil
	case "session":
		return newSessionBench(seed, tiny)
	}
	return nil, fmt.Errorf("unknown workload %q (want table4, corpus or session)", name)
}

// deriveSeed gives each consumer of the workload seed its own stream.
func deriveSeed(seed, stream uint64) uint64 {
	z := seed + stream*0x9E3779B97F4A7C15
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return z ^ (z >> 31)
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("jepobench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	workload := fs.String("workload", "", "table4, corpus or session")
	seed := fs.Uint64("seed", defaultSeed, "workload seed; every input derives from it")
	seconds := fs.Int("seconds", 10, "measurement window in seconds")
	trace := fs.Int("trace", 0, "0 = end-to-end metrics, 1 = traced layer-by-layer run")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *trace != 0 && *trace != 1 {
		fmt.Fprintln(stderr, "jepobench: -trace must be 0 or 1")
		return 2
	}
	b, err := newBench(*workload, *seed, false)
	if err != nil {
		fmt.Fprintln(stderr, "jepobench:", err)
		return 2
	}
	ctx := context.Background()
	rec := newRecord(*workload, *seed, *trace, *seconds)
	var res result
	if *trace == 1 {
		res, err = measureTraced(ctx, b, rec, stderr)
	} else {
		res, err = measure(ctx, b, time.Duration(*seconds)*time.Second, rec)
	}
	if err != nil {
		fmt.Fprintln(stderr, "jepobench:", err)
		return 1
	}
	enc := json.NewEncoder(stdout)
	if err := enc.Encode(map[string]any{"record": rec}); err != nil {
		fmt.Fprintln(stderr, "jepobench:", err)
		return 1
	}
	if err := enc.Encode(res); err != nil {
		fmt.Fprintln(stderr, "jepobench:", err)
		return 1
	}
	return 0
}

// result is the last line of standard output.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// record is the run's environment and dispersion record.
type record struct {
	Workload     string `json:"workload"`
	Seed         uint64 `json:"seed"`
	Trace        int    `json:"trace"`
	Seconds      int    `json:"seconds"`
	NumCPU       int    `json:"num_cpu"`
	GOMAXPROCS   int    `json:"gomaxprocs"`
	GoVersion    string `json:"go_version"`
	Commit       string `json:"commit"`
	SourceSHA256 string `json:"source_sha256"`
	Iterations   int    `json:"iterations"`
	// Metrics are the reported metrics; their times are scaled to the
	// nominal host speed. Raw holds the same end-to-end metrics unscaled,
	// and HostRef the reference readings that scaled them.
	Metrics map[string]summary `json:"metrics"`
	Raw     map[string]summary `json:"raw"`
	HostRef map[string]summary `json:"host_reference"`
	// TraceOverheadS is the traced run's wall time minus the untraced
	// run's, recorded beside the untraced numbers it qualifies.
	TraceOverheadS *float64 `json:"trace.overhead_s,omitempty"`
	// LayerShares is each layer's self time as a share of the traced wall.
	LayerShares map[string]float64 `json:"layer_shares,omitempty"`
	// Percentiles holds the request-latency percentiles that have at least
	// minBeyond samples beyond them.
	Percentiles map[string]percentileRecord `json:"percentiles,omitempty"`
}

type percentileRecord struct {
	Q     float64 `json:"q"`
	Value float64 `json:"value"`
	N     int     `json:"n"`
}

func newRecord(workload string, seed uint64, trace, seconds int) *record {
	return &record{
		Workload:     workload,
		Seed:         seed,
		Trace:        trace,
		Seconds:      seconds,
		NumCPU:       runtime.NumCPU(),
		GOMAXPROCS:   runtime.GOMAXPROCS(0),
		GoVersion:    runtime.Version(),
		Commit:       commit("."),
		SourceSHA256: sourceDigest("."),
		Metrics:      map[string]summary{},
		Raw:          map[string]summary{},
	}
}

// commit reads the checked-out commit from .git when the directory is a git
// checkout; a plain source tree is identified by source_sha256 instead.
func commit(root string) string {
	head, err := os.ReadFile(filepath.Join(root, ".git", "HEAD"))
	if err != nil {
		return "unknown"
	}
	h := strings.TrimSpace(string(head))
	ref, ok := strings.CutPrefix(h, "ref: ")
	if !ok {
		return h
	}
	id, err := os.ReadFile(filepath.Join(root, ".git", ref))
	if err != nil {
		return "unknown"
	}
	return strings.TrimSpace(string(id))
}

// sourceDigest hashes the program's Go sources (paths and bytes, in walk
// order), excluding the benchmark itself and hidden directories.
func sourceDigest(root string) string {
	h := sha256.New()
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		name := d.Name()
		if d.IsDir() {
			if path != root && (strings.HasPrefix(name, ".") || name == "jepobench") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(name, ".go") && name != "go.mod" {
			return nil
		}
		data, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		fmt.Fprintf(h, "%s\x00%d\x00", filepath.ToSlash(path), len(data))
		h.Write(data)
		return nil
	})
	if err != nil {
		return "unknown"
	}
	return hex.EncodeToString(h.Sum(nil))
}

// usage is a process resource reading.
type usage struct {
	at    time.Time
	cpu   time.Duration
	alloc uint64
}

func readUsage() usage {
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru) // cannot fail for RUSAGE_SELF
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return usage{
		at:    time.Now(),
		cpu:   time.Duration(ru.Utime.Nano() + ru.Stime.Nano()),
		alloc: ms.TotalAlloc,
	}
}

// timedSetup builds a fresh instance and returns its duration.
func timedSetup(ctx context.Context, b bench) (float64, error) {
	t0 := time.Now()
	if err := b.setup(ctx); err != nil {
		return 0, fmt.Errorf("setup: %w", err)
	}
	return time.Since(t0).Seconds(), nil
}

// setupSamples is how many set-up samples a run takes before its window
// opens. A sample is the mean over consecutive set-ups that together take
// at least setupSampleTime, so a set-up of a few hundred nanoseconds (a
// fresh store) is measured as reliably as one of a millisecond (a
// listener and its sessions).
const (
	setupSamples    = 21
	setupSampleTime = 5 * time.Millisecond
)

// sampleSetup times consecutive set-ups, each torn down untimed, until
// their summed time reaches setupSampleTime, and returns their mean.
func sampleSetup(ctx context.Context, b bench) (float64, error) {
	var sum float64
	n := 0
	for sum < setupSampleTime.Seconds() {
		s, err := timedSetup(ctx, b)
		if err != nil {
			return 0, err
		}
		b.teardown()
		sum += s
		n++
	}
	return sum / float64(n), nil
}

// iteration is one timed run of the fixed work on a fresh instance.
type iteration struct {
	wallS, cpuS, allocMB float64
	tally                tally
}

func runIteration(ctx context.Context, b bench) (iteration, error) {
	if err := b.setup(ctx); err != nil {
		return iteration{}, fmt.Errorf("setup: %w", err)
	}
	defer b.teardown()
	before := readUsage()
	t, err := b.run(ctx)
	after := readUsage()
	if err != nil {
		return iteration{}, err
	}
	return iteration{
		wallS:   after.at.Sub(before.at).Seconds(),
		cpuS:    (after.cpu - before.cpu).Seconds(),
		allocMB: float64(after.alloc-before.alloc) / 1e6,
		tally:   t,
	}, nil
}

// samples collects one run's readings: each metric raw, and scaled to the
// nominal host speed by the reference readings around it.
type samples struct {
	raw, scaled map[string][]float64
	refWall     []float64
	refCPU      []float64
}

func newSamples() *samples {
	return &samples{raw: map[string][]float64{}, scaled: map[string][]float64{}}
}

func (s *samples) add(name string, x, scale float64) {
	s.raw[name] = append(s.raw[name], x)
	s.scaled[name] = append(s.scaled[name], x*scale)
}

// setups takes the run's set-up samples, scaled by the reading h just
// before them.
func (s *samples) setups(ctx context.Context, b bench, h hostSpeed) error {
	s.ref(h)
	for i := 0; i < setupSamples; i++ {
		x, err := sampleSetup(ctx, b)
		if err != nil {
			return err
		}
		s.add("setup_s", x, refNominal/h.wall)
	}
	return nil
}

func (s *samples) ref(h hostSpeed) {
	s.refWall = append(s.refWall, h.wall)
	s.refCPU = append(s.refCPU, h.cpu)
}

// addIteration records an iteration bracketed by two reference readings.
// Wall time scales with the reference's wall time, CPU time with its CPU
// time; allocation is not a time and is not scaled. The iteration's own
// set-up is not a sample of setup_s: the run's set-up samples are taken
// before its window opens.
func (s *samples) addIteration(it iteration, before, after hostSpeed) {
	h := between(before, after)
	s.add("wall_s", it.wallS, refNominal/h.wall)
	s.add("cpu_s", it.cpuS, refNominal/h.cpu)
	s.add("alloc_mb", it.allocMB, 1)
}

// report records every end-to-end metric's dispersion and returns their
// medians.
func (s *samples) report(rec *record) map[string]metricValue {
	out := map[string]metricValue{}
	for _, m := range endToEnd {
		sum := summarize(m.Unit, s.scaled[m.Name])
		rec.Metrics[m.Name] = sum
		rec.Raw[m.Name] = summarize(m.Unit, s.raw[m.Name])
		out[m.Name] = metricValue{Value: sum.Median, Unit: m.Unit}
	}
	rec.HostRef = map[string]summary{
		"chunk_wall_s": summarize("s", s.refWall),
		"chunk_cpu_s":  summarize("s", s.refCPU),
	}
	return out
}

// measure is the untraced form: fresh instances, one after another, until
// the window has passed; each metric is the median over them.
func measure(ctx context.Context, b bench, window time.Duration, rec *record) (result, error) {
	smp := newSamples()
	h := readHostSpeed()
	if err := smp.setups(ctx, b, h); err != nil {
		return result{}, err
	}
	var total tally
	start := time.Now()
	for rec.Iterations == 0 || time.Since(start) < window {
		it, err := runIteration(ctx, b)
		if err != nil {
			return result{}, err
		}
		next := readHostSpeed()
		smp.ref(next)
		smp.addIteration(it, h, next)
		h = next
		total.add(it.tally)
		rec.Iterations++
	}
	v, err := b.verify(ctx)
	if err != nil {
		return result{}, err
	}
	total.add(v)
	res := result{Correct: total.Failed == 0, Attempted: total.Attempted, Failed: total.Failed, Metrics: smp.report(rec)}
	if lat := b.requestLatencies(); lat != nil {
		rec.Metrics["req_ms"] = summarize("ms", lat)
		rec.Percentiles = map[string]percentileRecord{}
		for name, q := range map[string]float64{"req_p50_ms": 0.50, "req_p95_ms": 0.95} {
			if v, ok := percentile(lat, q); ok {
				rec.Percentiles[name] = percentileRecord{Q: q, Value: v, N: len(lat)}
			}
		}
	}
	return res, nil
}

// measureTraced is the traced form. An untraced run gives the reference
// outputs and the store, pool and gate counters; the traced replay of the
// same work follows; a second untraced run, with the process as warm as
// the replay found it, is the base the tracing overhead is taken against.
func measureTraced(ctx context.Context, b bench, rec *record, stderr io.Writer) (result, error) {
	smp := newSamples()
	h := readHostSpeed()
	if err := smp.setups(ctx, b, h); err != nil {
		return result{}, err
	}
	first, err := runIteration(ctx, b)
	if err != nil {
		return result{}, err
	}
	total := first.tally
	v, err := b.verify(ctx)
	if err != nil {
		return result{}, err
	}
	total.add(v)
	c := b.layerCounts()

	tr := newTracer()
	rt, tracedWall, err := b.replay(ctx, tr, c)
	if err != nil {
		return result{}, err
	}
	total.add(rt)
	second, err := runIteration(ctx, b)
	if err != nil {
		return result{}, err
	}
	total.add(second.tally)
	after := readHostSpeed()
	overhead := tracedWall.Seconds() - second.wallS
	sum := tr.summary()
	vals := layerValues(sum, c, overhead)

	rec.Iterations = 2
	smp.ref(after)
	smp.addIteration(first, h, after)
	smp.addIteration(second, h, after)
	smp.report(rec)
	rec.TraceOverheadS = &overhead
	rec.LayerShares = map[string]float64{}
	for _, name := range layerSpans {
		rec.LayerShares[name] = sum.Share(name)
	}
	res := result{Correct: total.Failed == 0, Attempted: total.Attempted, Failed: total.Failed, Metrics: map[string]metricValue{}}
	for _, m := range perLayer {
		rec.Metrics[m.Name] = summarize(m.Unit, []float64{vals[m.Name]})
		res.Metrics[m.Name] = metricValue{Value: vals[m.Name], Unit: m.Unit}
	}
	path := filepath.Join(".bench_build", "jepobench", fmt.Sprintf("trace-%s-seed%d.json", rec.Workload, rec.Seed))
	if err := tr.write(path); err != nil {
		fmt.Fprintln(stderr, "jepobench:", err) // the trace file is a by-product; the metrics stand
	}
	return res, nil
}

// layerValues turns a trace and the counters into the per-layer metrics.
func layerValues(sum traceSummary, c counts, overhead float64) map[string]float64 {
	v := map[string]float64{}
	for name, x := range c {
		v[name] = x
	}
	for _, name := range layerSpans {
		v[name+"_s"] = sum.Self[name].Seconds()
	}
	for _, m := range perLayer {
		if cls, ok := strings.CutPrefix(m.Name, "classify."); ok && cls != "cv_s" {
			v[m.Name] = sum.SelfByID["classify.cv"][strings.TrimSuffix(cls, ".cv_s")].Seconds()
		}
	}
	v["trace.coverage"] = sum.Coverage()
	v["trace.overhead_s"] = overhead
	if s := v["parser.parse_s"]; s > 0 {
		v["parser.bytes_per_s"] = c["parser.bytes"] / s
	}
	if ops := v["interp.ops"]; ops > 0 {
		v["interp.ns_per_op"] = v["interp.exec_s"] * 1e9 / ops
	}
	if lookups := v["engine.hits"] + v["engine.misses"]; lookups > 0 {
		v["engine.hit_rate"] = v["engine.hits"] / lookups
	}
	return v
}
