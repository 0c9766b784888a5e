package main

import (
	"context"
	"fmt"
	"time"

	"jepo/internal/core"
	"jepo/internal/corpus"
	"jepo/internal/engine"
	"jepo/internal/sched"
)

// corpusBench runs `jepo corpus` once per classifier closure: each call is
// corpus.Generate, core.AnalyzeAll with one job and core.CorpusView, on its
// own fresh store, as ten CLI invocations would. None of the closures'
// files has a runnable main, so the VM, the meter and the classifiers do
// no work: the front end and the pass engine dominate.
type corpusBench struct {
	seed        uint64 // the corpus seed, derived from the workload seed
	pinned      bool
	classifiers []string
	stores      []*engine.Engine

	ref     map[string]string // first run's views, for later runs
	reports []*core.CorpusReport
	views   []string
	tels    []sched.Telemetry
	stats   []engine.Stats

	mutate func(string) string
}

func newCorpusBench(seed uint64, tiny bool) *corpusBench {
	cls := corpus.Classifiers
	if tiny {
		cls = []string{"RandomTree", "Logistic"}
	}
	return &corpusBench{seed: deriveSeed(seed, 2), pinned: seed == defaultSeed && !tiny, classifiers: cls}
}

func (b *corpusBench) setup(context.Context) error {
	b.stores = make([]*engine.Engine, len(b.classifiers))
	for i := range b.stores {
		b.stores[i] = engine.New(engine.Config{})
	}
	return nil
}

func (b *corpusBench) teardown() { b.stores = nil }

func (b *corpusBench) run(ctx context.Context) (tally, error) {
	var t tally
	b.reports = make([]*core.CorpusReport, len(b.classifiers))
	b.views = make([]string, len(b.classifiers))
	b.tels = make([]sched.Telemetry, len(b.classifiers))
	b.stats = make([]engine.Stats, len(b.classifiers))
	for i, name := range b.classifiers {
		p, err := corpus.Generate(name, b.seed)
		if err != nil {
			t.add(tally{Attempted: 1, Failed: 1})
			continue
		}
		n := len(p.Files)
		t.Attempted += n
		rep, tel, err := core.AnalyzeAll(ctx, p, core.AnalyzeConfig{Jobs: 1, Cache: b.stores[i]})
		b.tels[i], b.stats[i] = tel, b.stores[i].Stats()
		if err != nil {
			t.Failed += n
			continue
		}
		view := core.CorpusView(rep)
		if b.mutate != nil {
			view = b.mutate(view)
		}
		b.reports[i], b.views[i] = rep, view
		if !b.viewOK(name, view) {
			t.Failed += n
		}
	}
	return t, nil
}

// viewOK checks one classifier's view: against its pinned digest at the
// default seed, otherwise against the first run of this process.
func (b *corpusBench) viewOK(name, view string) bool {
	if b.pinned {
		return checkDigest("corpus "+name, view, []string{expected.Corpus[name]}, 0)
	}
	if b.ref == nil {
		b.ref = map[string]string{}
	}
	if ref, ok := b.ref[name]; ok {
		return view == ref
	}
	b.ref[name] = view
	return true
}

func (b *corpusBench) layerCounts() counts {
	c := counts{}
	for i := range b.classifiers {
		c["engine.hits"] += float64(b.stats[i].Hits)
		c["engine.misses"] += float64(b.stats[i].Misses)
		c["engine.evictions"] += float64(b.stats[i].Evictions)
		c["engine.parses"] += float64(b.stats[i].Parses)
		c["sched.tasks"] += float64(b.tels[i].Tasks)
		for _, d := range b.tels[i].Busy {
			c["sched.busy_s"] += d.Seconds()
		}
	}
	return c
}

func (b *corpusBench) requestLatencies() []float64 { return nil }

func (b *corpusBench) verify(context.Context) (tally, error) { return tally{}, nil }

// replay re-drives each call file by file through the stages core.Analyze
// runs, rebuilds the corpus report, and requires its totals and its view to
// equal the untraced run's.
func (b *corpusBench) replay(ctx context.Context, tr *tracer, c counts) (tally, time.Duration, error) {
	t0 := time.Now()
	root := tr.begin("bench.corpus", "", -1)
	var t tally
	for i, name := range b.classifiers {
		err := tr.within("bench.call", name, root, func(call int) error {
			tt, err := b.replayCall(ctx, tr, call, c, i, name)
			t.add(tt)
			return err
		})
		if err != nil {
			return tally{}, 0, err
		}
	}
	tr.end(root)
	return t, time.Since(t0), nil
}

func (b *corpusBench) replayCall(ctx context.Context, tr *tracer, parent int, c counts, i int, name string) (tally, error) {
	var p *corpus.Project
	err := tr.within("corpus.gen", name, parent, func(int) (err error) {
		p, err = corpus.Generate(name, b.seed)
		return err
	})
	if err != nil {
		return tally{Attempted: 1, Failed: 1}, nil
	}
	eng := engine.New(engine.Config{})
	rep := &core.CorpusReport{Root: p.Root}
	for _, f := range p.Files {
		var fr *core.AnalysisReport
		err := tr.within("bench.file", f.Path, parent, func(file int) (err error) {
			fr, err = replayAnalyze(ctx, tr, file, c, eng, []engine.Source{{Path: f.Path, Source: f.Source}})
			return err
		})
		if err != nil {
			return tally{}, fmt.Errorf("replay %s: %w", f.Path, err)
		}
		rep.Files = append(rep.Files, core.FileAnalysis{Path: f.Path, Report: fr})
	}
	var view string
	_ = tr.within("core.render", name, parent, func(int) error {
		view = core.CorpusView(rep)
		return nil
	})
	t := tally{Attempted: len(p.Files)}
	ref := b.reports[i]
	if ref == nil || view != b.views[i] {
		t.Failed = len(p.Files)
		return t, nil
	}
	f1, d1, x1 := rep.Totals()
	f2, d2, x2 := ref.Totals()
	if f1 != f2 || d1 != d2 || x1 != x2 {
		t.Failed = len(p.Files)
	}
	return t, nil
}
