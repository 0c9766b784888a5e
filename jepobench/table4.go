package main

import (
	"context"
	"fmt"
	"math"
	"strings"
	"time"

	"jepo/internal/airlines"
	"jepo/internal/classify"
	"jepo/internal/classify/eval"
	"jepo/internal/corpus"
	"jepo/internal/dataset"
	"jepo/internal/energy"
	"jepo/internal/engine"
	"jepo/internal/minijava/ast"
	"jepo/internal/minijava/interp"
	"jepo/internal/refactor"
	"jepo/internal/sched"
	"jepo/internal/stats"
	"jepo/internal/tables"
)

// table4Size sizes the reduced Table IV. At 1000 airlines instances the
// classifiers' cross-validation is most of the run, the shape of the full
// table's profile; at a few hundred, parsing and refactoring would hide a
// classifier gain.
type table4Size struct {
	Instances, Folds, Reps, Runs, MaxRounds int
}

var (
	table4Full = table4Size{Instances: 1000, Folds: 3, Reps: 1, Runs: 3, MaxRounds: 2}
	table4Tiny = table4Size{Instances: 40, Folds: 2, Reps: 1, Runs: 3, MaxRounds: 1}
)

// kernelMaxOps is the op budget Table IV gives each kernel run.
const kernelMaxOps = 2_000_000_000

// table4Bench runs tables.Table4 on a fresh artifact store per run, with the
// VM engine, one row slot and one fold worker: what one `wekaexp -table 4`
// process pays. The airlines data, and with it the classifiers' work,
// depends on the Table IV seed, so each run of a window takes the next
// seed of a sequence derived from the workload seed, and the window's
// median averages over several datasets instead of resting on one.
type table4Bench struct {
	seeds  uint64 // the workload's Table IV seed stream
	runs   int    // runs made so far: the next run takes seed number runs
	pinned bool   // the default seed: outputs must match expected.json
	size   table4Size
	cfg    tables.Table4Config

	rows  []tables.Table4Row
	tel   sched.Telemetry
	store engine.Stats

	// mutate, when set, rewrites each rendering before it is checked; the
	// benchmark's tests use it to corrupt an output on purpose.
	mutate func(string) string
}

func newTable4Bench(seed uint64, tiny bool) *table4Bench {
	size := table4Full
	if tiny {
		size = table4Tiny
	}
	return &table4Bench{seeds: deriveSeed(seed, 1), pinned: seed == defaultSeed && !tiny, size: size}
}

func (b *table4Bench) setup(context.Context) error {
	b.cfg = tables.Table4Config{
		Seed:        deriveSeed(b.seeds, uint64(b.runs)),
		Instances:   b.size.Instances,
		Reps:        b.size.Reps,
		Protocol:    stats.Protocol{Runs: b.size.Runs, MaxRounds: b.size.MaxRounds},
		CVFolds:     b.size.Folds,
		Slots:       1,
		CVJobs:      1,
		Engine:      interp.EngineVM,
		Cache:       engine.New(engine.Config{}),
		OnTelemetry: func(t sched.Telemetry) { b.tel = t },
	}
	return nil
}

func (b *table4Bench) teardown() {}

func (b *table4Bench) run(ctx context.Context) (tally, error) {
	n := len(corpus.Classifiers)
	run := b.runs
	b.runs++
	rows, err := tables.Table4(ctx, b.cfg)
	b.store = b.cfg.Cache.Stats()
	if err != nil {
		b.rows = nil
		return tally{Attempted: n, Failed: n}, nil
	}
	b.rows = rows
	out := tables.RenderTable4(rows)
	if b.mutate != nil {
		out = b.mutate(out)
	}
	lines := strings.Split(strings.TrimSuffix(out, "\n"), "\n")
	if len(rows) != n || len(lines) != n+1 {
		return tally{Attempted: n, Failed: n}, nil
	}
	failed := 0
	for i, r := range rows {
		if r.Err != "" || r.Classifier != corpus.Classifiers[i] || !b.rowOK(run, i, lines[i+1]) {
			failed++
		}
	}
	if !checkDigest("table4 header", lines[0], []string{expected.Table4Header}, 0) {
		failed = n // a broken header spoils the whole table
	}
	return tally{Attempted: n, Failed: failed}, nil
}

// rowOK checks one rendered row. At the default seed the first runs' rows
// are pinned by digest; any other row must at least name its classifier.
func (b *table4Bench) rowOK(run, i int, line string) bool {
	if b.pinned && run < len(expected.Table4) {
		return checkDigest(fmt.Sprintf("table4 run %d row %d", run, i), line, expected.Table4[run], i)
	}
	return strings.HasPrefix(line, corpus.Classifiers[i]+" ")
}

func (b *table4Bench) layerCounts() counts {
	c := counts{
		"engine.hits":      float64(b.store.Hits),
		"engine.misses":    float64(b.store.Misses),
		"engine.evictions": float64(b.store.Evictions),
		"engine.parses":    float64(b.store.Parses),
		"sched.tasks":      float64(b.tel.Tasks),
	}
	for _, d := range b.tel.Busy {
		c["sched.busy_s"] += d.Seconds()
	}
	return c
}

func (b *table4Bench) requestLatencies() []float64 { return nil }

func (b *table4Bench) verify(context.Context) (tally, error) { return tally{}, nil }

// replay re-drives every row through public calls in Table IV's order —
// corpus generation, parse, refactor, kernel load and run under the
// repeat/Tukey protocol, cross-validation in both precisions — and must
// reproduce the untraced rows bit for bit.
func (b *table4Bench) replay(ctx context.Context, tr *tracer, c counts) (tally, time.Duration, error) {
	seed := b.cfg.Seed
	t0 := time.Now()
	root := tr.begin("bench.table4", "", -1)
	eng := engine.New(engine.Config{})
	var data *dataset.Dataset
	_ = tr.within("airlines.gen", "", root, func(int) error {
		data = airlines.Generate(b.size.Instances, seed)
		return nil
	})
	var feats [][]float64
	var labels []int64
	_ = tr.within("tables.kernel_data", "", root, func(int) error {
		feats, labels = kernelData(data)
		return nil
	})
	var rows []tables.Table4Row
	for _, name := range corpus.Classifiers {
		var row tables.Table4Row
		err := tr.within("bench.row", name, root, func(self int) (err error) {
			row, err = b.replayRow(ctx, tr, self, c, eng, seed, name, data, feats, labels)
			return err
		})
		if err != nil {
			row = tables.Table4Row{Classifier: name, Err: err.Error()}
		}
		rows = append(rows, row)
	}
	_ = tr.within("tables.render", "", root, func(int) error {
		_ = tables.RenderTable4(rows)
		return nil
	})
	tr.end(root)
	wall := time.Since(t0)

	t := tally{Attempted: len(rows)}
	for i, r := range rows {
		if r.Err != "" || i >= len(b.rows) || !sameRow(r, b.rows[i]) {
			t.Failed++
		}
	}
	return t, wall, nil
}

// sameRow compares every column bit for bit.
func sameRow(a, b tables.Table4Row) bool {
	bits := math.Float64bits
	return a.Classifier == b.Classifier && a.Changes == b.Changes &&
		bits(a.AccuracyPct) == bits(b.AccuracyPct) &&
		bits(a.PackagePct) == bits(b.PackagePct) &&
		bits(a.CPUPct) == bits(b.CPUPct) &&
		bits(a.TimePct) == bits(b.TimePct)
}

// replayRow is one classifier's Table IV pipeline, stage by stage.
func (b *table4Bench) replayRow(ctx context.Context, tr *tracer, parent int, c counts, eng *engine.Engine, seed uint64, name string, data *dataset.Dataset, feats [][]float64, labels []int64) (tables.Table4Row, error) {
	var proj *corpus.Project
	err := tr.within("corpus.gen", name, parent, func(int) (err error) {
		proj, err = corpus.Generate(name, seed)
		return err
	})
	if err != nil {
		return tables.Table4Row{}, err
	}
	srcs := make([]engine.Source, len(proj.Files))
	var kernelSrc engine.Source
	want := corpus.KernelClass(name) + ".java"
	for i, f := range proj.Files {
		srcs[i] = engine.Source{Path: f.Path, Source: f.Source}
		if strings.HasSuffix(f.Path, want) && kernelSrc.Path == "" {
			kernelSrc = srcs[i]
		}
	}
	files, err := parse(tr, parent, c, eng, srcs)
	if err != nil {
		return tables.Table4Row{}, err
	}
	var res *refactor.Result
	_ = tr.within("passes.refactor", name, parent, func(int) error {
		res = refactor.Apply(files)
		return nil
	})
	c["passes.changes"] += float64(res.Changes)
	origFiles, err := parse(tr, parent, c, eng, []engine.Source{kernelSrc})
	if err != nil {
		return tables.Table4Row{}, err
	}
	var refd *ast.File
	for _, f := range files {
		if strings.HasSuffix(f.Path, want) {
			refd = f
		}
	}
	if refd == nil {
		return tables.Table4Row{}, fmt.Errorf("refactored kernel for %s missing", name)
	}

	// Table IV memoizes a kernel's protocol result by its printed source, so
	// a kernel the refactorer left unchanged is measured once.
	measured := map[string]kernelResult{}
	measure := func(kernel *ast.File) (kernelResult, error) {
		var key string
		_ = tr.within("engine.key", name, parent, func(int) error {
			key = ast.Print(kernel)
			return nil
		})
		if m, ok := measured[key]; ok {
			return m, nil
		}
		m, err := b.measureKernel(ctx, tr, parent, c, kernel, name, feats, labels)
		if err == nil {
			measured[key] = m
		}
		return m, err
	}
	before, err := measure(origFiles[0])
	if err != nil {
		return tables.Table4Row{}, err
	}
	after, err := measure(refd)
	if err != nil {
		return tables.Table4Row{}, err
	}

	var drop float64
	err = tr.within("classify.cv", name, parent, func(int) error {
		acc := [2]float64{}
		for i, fp := range []classify.FP{classify.Double, classify.Single} {
			mk, err := tables.FactorySeeded(name, classify.Options{Seed: seed, FP: fp})
			if err != nil {
				return err
			}
			r, err := eval.CrossValidateSeeded(ctx, data, b.size.Folds, seed, mk, 1)
			if err != nil {
				return err
			}
			acc[i] = r.Accuracy()
		}
		drop = acc[0] - acc[1]
		return nil
	})
	if err != nil {
		return tables.Table4Row{}, err
	}
	return tables.Table4Row{
		Classifier:  name,
		Changes:     res.Changes,
		PackagePct:  stats.Improvement(float64(before.pkg), float64(after.pkg)),
		CPUPct:      stats.Improvement(float64(before.core), float64(after.core)),
		TimePct:     stats.Improvement(float64(before.elapsed), float64(after.elapsed)),
		AccuracyPct: drop,
	}, nil
}

// kernelResult is one kernel variant's mean protocol measurement.
type kernelResult struct {
	pkg, core energy.Joules
	elapsed   time.Duration
}

// measureKernel runs a kernel under the repeat/Tukey protocol, each run a
// fresh load and a fresh interpreter, averaging exactly as Table IV does.
func (b *table4Bench) measureKernel(ctx context.Context, tr *tracer, parent int, c counts, kernel *ast.File, name string, feats [][]float64, labels []int64) (kernelResult, error) {
	var firstErr error
	var cores, times []float64
	kc := corpus.KernelClass(name)
	runOnce := func() (energy.Sample, error) {
		c["stats.kernel_runs"]++
		var prog *interp.Program
		err := tr.within("interp.load", name, parent, func(int) (err error) {
			prog, err = interp.Load(kernel)
			return err
		})
		if err != nil {
			return energy.Sample{}, err
		}
		var d energy.Sample
		err = tr.within("interp.exec", name, parent, func(int) error {
			in := interp.New(prog, energy.NewMeter(energy.DefaultCosts()), interp.WithMaxOps(kernelMaxOps), interp.WithEngine(interp.EngineVM), interp.WithContext(ctx))
			defer countRun(c, in)
			if err := in.InitStatics(); err != nil {
				return err
			}
			if err := in.Bind(kc, "DATA", in.NewDoubleMatrix(feats)); err != nil {
				return err
			}
			if err := in.Bind(kc, "LABELS", in.NewIntArray(labels)); err != nil {
				return err
			}
			before := in.Meter().Snapshot()
			if _, err := in.CallStatic(kc, "run", interp.IntVal(int64(b.size.Reps))); err != nil {
				return err
			}
			d = in.Meter().Snapshot().Sub(before)
			return nil
		})
		return d, err
	}
	protocol := stats.Protocol{Runs: b.size.Runs, MaxRounds: b.size.MaxRounds}
	meanPkg, _, err := protocol.Measure(func() float64 {
		d, err := runOnce()
		if err != nil && firstErr == nil {
			firstErr = err
		}
		cores = append(cores, float64(d.Core))
		times = append(times, float64(d.Elapsed))
		return float64(d.Package)
	})
	if err != nil {
		return kernelResult{}, err
	}
	if firstErr != nil {
		return kernelResult{}, firstErr
	}
	return kernelResult{
		pkg:     energy.Joules(meanPkg),
		core:    energy.Joules(stats.Mean(cores)),
		elapsed: time.Duration(stats.Mean(times)),
	}, nil
}

// kernelData is Table IV's kernel input: every airlines feature scaled into
// [0,1], the class column split off.
func kernelData(d *dataset.Dataset) ([][]float64, []int64) {
	n := d.NumInstances()
	nf := d.NumAttrs() - 1
	mins := make([]float64, nf)
	maxs := make([]float64, nf)
	for j := 0; j < nf; j++ {
		mins[j] = d.X[0][j]
		maxs[j] = d.X[0][j]
		for _, row := range d.X {
			if row[j] < mins[j] {
				mins[j] = row[j]
			}
			if row[j] > maxs[j] {
				maxs[j] = row[j]
			}
		}
	}
	feats := make([][]float64, n)
	labels := make([]int64, n)
	for i, row := range d.X {
		feats[i] = make([]float64, nf)
		for j := 0; j < nf; j++ {
			span := maxs[j] - mins[j]
			if span == 0 {
				span = 1
			}
			feats[i][j] = (row[j] - mins[j]) / span
		}
		labels[i] = int64(d.Class(i))
	}
	return feats, labels
}
