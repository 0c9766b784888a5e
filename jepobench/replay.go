package main

import (
	"context"
	"fmt"

	"jepo/internal/core"
	"jepo/internal/energy"
	"jepo/internal/engine"
	"jepo/internal/minijava/ast"
	"jepo/internal/minijava/interp"
	"jepo/internal/passes"
)

// defaultMaxOps is the op budget core.Analyze and core.Profile apply when
// the caller sets none.
const defaultMaxOps = 500_000_000

// parse checks the sources out of eng one file at a time. A file the store
// had to parse is a parser span, counted in parser.files and parser.bytes;
// a file it cloned from a cached master is an engine.checkout span.
func parse(tr *tracer, parent int, c counts, eng *engine.Engine, srcs []engine.Source) ([]*ast.File, error) {
	files := make([]*ast.File, len(srcs))
	for i, s := range srcs {
		before := eng.Stats().Parses
		span := tr.begin("parser.parse", "", parent)
		f, err := eng.ParseFile(s.Path, s.Source)
		tr.end(span)
		if err != nil {
			return nil, err
		}
		if eng.Stats().Parses == before {
			tr.rename(span, "engine.checkout")
		} else {
			c["parser.files"]++
			c["parser.bytes"] += float64(len(s.Source))
		}
		files[i] = f
	}
	return files, nil
}

// execMain loads files and runs their main class under meter, with one span
// for the load (resolver and bytecode compiler) and one for the execution
// (VM and meter together: they cannot be told apart from outside).
func execMain(ctx context.Context, tr *tracer, parent int, c counts, files []*ast.File, meter *energy.Meter, opts ...interp.Option) (*interp.Interp, energy.Sample, error) {
	var prog *interp.Program
	err := tr.within("interp.load", "", parent, func(int) (err error) {
		prog, err = interp.Load(files...)
		return err
	})
	if err != nil {
		return nil, energy.Sample{}, err
	}
	opts = append([]interp.Option{interp.WithMaxOps(defaultMaxOps), interp.WithContext(ctx)}, opts...)
	in := interp.New(prog, meter, opts...)
	err = tr.within("interp.exec", "", parent, func(int) error { return in.RunMain("") })
	countRun(c, in)
	return in, meter.Snapshot(), err
}

// countRun adds one interpreter run's work to the counters.
func countRun(c counts, in *interp.Interp) {
	c["interp.ops"] += float64(in.Ops())
	hits, misses := in.Meter().CacheStats()
	c["energy.cache_hits"] += float64(hits)
	c["energy.cache_misses"] += float64(misses)
	c["energy.sim_cycles"] += in.Meter().Snapshot().Cycles
}

// replayAnalyze re-drives core.Analyze's stages for one project with the
// default configuration (VM engine, all rules, default costs and budget):
// parse, the pass engine, the baseline run, then each mechanical fix
// replayed alone on a private checkout and measured. It returns the report
// core.Analyze would build, so rendering it must reproduce the service's
// bytes exactly.
func replayAnalyze(ctx context.Context, tr *tracer, parent int, c counts, eng *engine.Engine, srcs []engine.Source) (*core.AnalysisReport, error) {
	files, err := parse(tr, parent, c, eng, srcs)
	if err != nil {
		return nil, err
	}
	var diags []passes.Diagnostic
	_ = tr.within("passes.analyze", "", parent, func(int) error {
		diags = passes.AnalyzeFilesRules(files)
		return nil
	})
	c["passes.diagnostics"] += float64(len(diags))
	report := &core.AnalysisReport{Diags: make([]core.AnalyzedDiagnostic, len(diags))}
	for i, d := range diags {
		v := core.VerdictAdvisory
		if d.Fix != nil {
			v = core.VerdictUnmeasured
		}
		report.Diags[i] = core.AnalyzedDiagnostic{Diagnostic: d, Verdict: v}
	}

	// The baseline program loads from its own checkout, as the engine's
	// program stage does.
	baseFiles, err := parse(tr, parent, c, eng, srcs)
	if err != nil {
		return nil, err
	}
	_, baseline, err := execMain(ctx, tr, parent, c, baseFiles, energy.NewMeter(energy.DefaultCosts()))
	if err != nil {
		if cerr := ctx.Err(); cerr != nil {
			return nil, cerr
		}
		report.ExecNote = err.Error()
		for i := range report.Diags {
			if report.Diags[i].Verdict == core.VerdictUnmeasured {
				report.Diags[i].Note = "program not runnable"
			}
		}
		return report, nil
	}
	report.Executable = true
	report.Baseline = baseline

	for i := range report.Diags {
		ad := &report.Diags[i]
		if ad.Verdict != core.VerdictUnmeasured {
			continue
		}
		fixFiles, err := parse(tr, parent, c, eng, srcs)
		if err != nil {
			return nil, err
		}
		var fresh []passes.Diagnostic
		_ = tr.within("passes.analyze", "", parent, func(int) error {
			fresh = passes.AnalyzeFilesRules(fixFiles)
			return nil
		})
		if len(fresh) != len(diags) {
			return nil, fmt.Errorf("replay: analysis is not deterministic: %d diagnostics, then %d", len(diags), len(fresh))
		}
		var changes int
		_ = tr.within("passes.refactor", "", parent, func(int) error {
			changes = passes.ApplyFixes(fixFiles, []passes.Diagnostic{fresh[i]}).Changes
			return nil
		})
		c["passes.changes"] += float64(changes)
		if changes == 0 {
			ad.Note = "fix made no change when replayed alone"
			continue
		}
		_, after, err := execMain(ctx, tr, parent, c, fixFiles, energy.NewMeter(energy.DefaultCosts()))
		if err != nil {
			if cerr := ctx.Err(); cerr != nil {
				return nil, cerr
			}
			ad.Note = "rewritten program failed: " + err.Error()
			continue
		}
		ad.Delta = baseline.Package - after.Package
		if baseline.Package != 0 {
			ad.DeltaPct = 100 * float64(ad.Delta) / float64(baseline.Package)
		}
		if ad.Delta < 0 {
			ad.Verdict = core.VerdictRejected
		} else {
			ad.Verdict = core.VerdictAccepted
		}
	}
	return report, nil
}
