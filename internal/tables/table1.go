// Package tables regenerates every table of the paper's evaluation:
// Table I (component energy ratios behind the suggestions), Table II
// (per-classifier WEKA metrics), Table III (the airlines schema) and
// Table IV (the end-to-end WEKA refactoring validation). Each function
// returns structured rows plus a renderer that matches the paper's layout.
package tables

import (
	"context"
	"fmt"
	"strings"

	"jepo/internal/energy"
	"jepo/internal/engine"
	"jepo/internal/minijava/interp"
	"jepo/internal/sched"
	"jepo/internal/suggest"
)

// Table1Row is one measured component comparison.
type Table1Row struct {
	Rule        suggest.Rule
	Component   string
	Suggestion  string
	PaperClaim  string  // the "up to N%" figure Table I quotes
	MeasuredPct float64 // measured extra energy of the inefficient variant
}

// table1Bench is a pair of programs: the inefficient variant and the
// efficient one the suggestion recommends. Both expose `static double f()`
// in class B (for bench) and must compute comparable results.
type table1Bench struct {
	rule       suggest.Rule
	paperClaim string
	slow, fast string
}

const table1Iters = "20000"

var table1Benches = []table1Bench{
	{
		rule:       suggest.RulePrimitiveTypes,
		paperClaim: "int is the most energy-efficient primitive",
		slow: `class B { static double f() {
			double s = 0.0;
			for (int i = 0; i < ` + table1Iters + `; i++) { s = s + i; }
			return s;
		} }`,
		fast: `class B { static double f() {
			int s = 0;
			for (int i = 0; i < ` + table1Iters + `; i++) { s = s + i; }
			return s;
		} }`,
	},
	{
		rule:       suggest.RuleScientificNotation,
		paperClaim: "scientific notation is cheaper for decimals",
		slow: `class B { static double f() {
			double s = 0.0;
			for (int i = 0; i < ` + table1Iters + `; i++) { s = s + 100000.0; }
			return s;
		} }`,
		fast: `class B { static double f() {
			double s = 0.0;
			for (int i = 0; i < ` + table1Iters + `; i++) { s = s + 1e5; }
			return s;
		} }`,
	},
	{
		rule:       suggest.RuleWrapperClasses,
		paperClaim: "Integer is the most energy-efficient wrapper",
		slow: `class B { static double f() {
			int s = 0;
			for (int i = 0; i < 2000; i++) {
				Long v = Long.valueOf(i % 100);
				s += v.intValue();
			}
			return s;
		} }`,
		fast: `class B { static double f() {
			int s = 0;
			for (int i = 0; i < 2000; i++) {
				Integer v = Integer.valueOf(i % 100);
				s += v.intValue();
			}
			return s;
		} }`,
	},
	{
		rule:       suggest.RuleStaticKeyword,
		paperClaim: "static +17,700%",
		slow: `class B {
			static int acc;
			static double f() {
				for (int i = 0; i < ` + table1Iters + `; i++) { acc += i; }
				return acc;
			}
		}`,
		fast: `class B { static double f() {
			int acc = 0;
			for (int i = 0; i < ` + table1Iters + `; i++) { acc += i; }
			return acc;
		} }`,
	},
	{
		rule:       suggest.RuleModulusOperator,
		paperClaim: "modulus +1,620%",
		slow: `class B { static double f() {
			int s = 0;
			for (int i = 1; i < ` + table1Iters + `; i++) { s += i % 7; }
			return s;
		} }`,
		fast: `class B { static double f() {
			int s = 0;
			for (int i = 1; i < ` + table1Iters + `; i++) { s += i * 7; }
			return s;
		} }`,
	},
	{
		rule:       suggest.RuleTernaryOperator,
		paperClaim: "ternary +37%",
		slow: `class B { static double f() {
			int s = 0;
			for (int i = 0; i < ` + table1Iters + `; i++) {
				s += i > 10000 ? 2 : 1;
			}
			return s;
		} }`,
		fast: `class B { static double f() {
			int s = 0;
			for (int i = 0; i < ` + table1Iters + `; i++) {
				if (i > 10000) { s += 2; } else { s += 1; }
			}
			return s;
		} }`,
	},
	{
		rule:       suggest.RuleShortCircuit,
		paperClaim: "most common case first",
		// i > 3 is true for nearly every iteration; testing it first
		// short-circuits the expensive second test.
		slow: `class B { static double f() {
			int s = 0;
			for (int i = 0; i < ` + table1Iters + `; i++) {
				if (i % 9999 == 0 || i > 3) { s++; }
			}
			return s;
		} }`,
		fast: `class B { static double f() {
			int s = 0;
			for (int i = 0; i < ` + table1Iters + `; i++) {
				if (i > 3 || i % 9999 == 0) { s++; }
			}
			return s;
		} }`,
	},
	{
		rule:       suggest.RuleStringConcat,
		paperClaim: "StringBuilder ≪ concatenation",
		slow: `class B { static double f() {
			String s = "";
			for (int i = 0; i < 400; i++) { s = s + "x"; }
			return s.length();
		} }`,
		fast: `class B { static double f() {
			StringBuilder sb = new StringBuilder();
			for (int i = 0; i < 400; i++) { sb.append("x"); }
			return sb.toString().length();
		} }`,
	},
	{
		rule:       suggest.RuleStringComparison,
		paperClaim: "compareTo +33%",
		slow: `class B { static double f() {
			String a = "airlinesAirlines";
			String b = "airlinesAirlines";
			int s = 0;
			for (int i = 0; i < 4000; i++) {
				if (a.compareTo(b) == 0) { s++; }
			}
			return s;
		} }`,
		fast: `class B { static double f() {
			String a = "airlinesAirlines";
			String b = "airlinesAirlines";
			int s = 0;
			for (int i = 0; i < 4000; i++) {
				if (a.equals(b)) { s++; }
			}
			return s;
		} }`,
	},
	{
		rule:       suggest.RuleArraysCopy,
		paperClaim: "System.arraycopy is the best copy",
		slow: `class B { static double f() {
			int[] a = new int[4000];
			int[] b = new int[4000];
			for (int r = 0; r < 10; r++) {
				for (int i = 0; i < 4000; i++) { b[i] = a[i]; }
			}
			return b[3999];
		} }`,
		fast: `class B { static double f() {
			int[] a = new int[4000];
			int[] b = new int[4000];
			for (int r = 0; r < 10; r++) {
				System.arraycopy(a, 0, b, 0, 4000);
			}
			return b[3999];
		} }`,
	},
	{
		rule:       suggest.RuleArrayTraversal,
		paperClaim: "column traversal +793%",
		slow: `class B { static double f() {
			int[][] m = new int[600][600];
			int s = 0;
			for (int j = 0; j < 600; j++) {
				for (int i = 0; i < 600; i++) { s += m[i][j]; }
			}
			return s;
		} }`,
		fast: `class B { static double f() {
			int[][] m = new int[600][600];
			int s = 0;
			for (int i = 0; i < 600; i++) {
				for (int j = 0; j < 600; j++) { s += m[i][j]; }
			}
			return s;
		} }`,
	},
}

// InterpBench is one named interpreter benchmark program: a Table I variant
// exposing `static double f()` in class B.
type InterpBench struct {
	Name string
	Src  string
}

// InterpBenches exposes the Table I benchmark corpus to external harnesses
// (cmd/jperf bench) that track interpreter wall-clock and simulated-energy
// trajectories across revisions.
func InterpBenches() []InterpBench {
	out := make([]InterpBench, 0, 2*len(table1Benches))
	for _, b := range table1Benches {
		out = append(out,
			InterpBench{Name: fmt.Sprintf("%v/inefficient", b.rule), Src: b.slow},
			InterpBench{Name: fmt.Sprintf("%v/efficient", b.rule), Src: b.fast},
		)
	}
	return out
}

// measureBench runs one program variant and returns its package energy. The
// run goes through the artifact engine: the parse, the compiled program and
// the measured sample are all content-addressed, so re-measuring an unchanged
// variant (repeat runs, the efficient twin of a pair sharing core files) is a
// cache hit with bit-identical joules.
func measureBench(ctx context.Context, src string, eng interp.Engine) (energy.Joules, error) {
	s, err := engine.Default().Sample(ctx,
		[]engine.Source{{Path: "bench.java", Source: src}},
		engine.RunSpec{CallClass: "B", CallMethod: "f", MaxOps: 200_000_000, Engine: eng})
	if err != nil {
		return 0, err
	}
	return s.Package, nil
}

// Table1 measures every component pair and returns the rows in the paper's
// order. Every number is produced by executing both variants on the
// energy-model interpreter and comparing package energy. See Table1Jobs for
// the pooled form.
func Table1(ctx context.Context, engine interp.Engine) ([]Table1Row, error) {
	rows, _, err := Table1Jobs(ctx, engine, 1)
	return rows, err
}

// table1Pair measures one component pair: both variants on fresh
// parser/interpreter/meter instances, so pairs are fully independent of
// each other. This is the task unit the sched pool shards.
func table1Pair(ctx context.Context, b table1Bench, engine interp.Engine) (Table1Row, error) {
	slow, err := measureBench(ctx, b.slow, engine)
	if err != nil {
		return Table1Row{}, fmt.Errorf("tables: %v slow variant: %w", b.rule, err)
	}
	fast, err := measureBench(ctx, b.fast, engine)
	if err != nil {
		return Table1Row{}, fmt.Errorf("tables: %v fast variant: %w", b.rule, err)
	}
	return Table1Row{
		Rule:        b.rule,
		Component:   b.rule.Component(),
		Suggestion:  b.rule.Text(),
		PaperClaim:  b.paperClaim,
		MeasuredPct: 100 * (float64(slow)/float64(fast) - 1),
	}, nil
}

// Table1Jobs measures the Table I component pairs on a bounded worker pool.
// Each bench pair builds its own parser/interpreter/meter instances, so rows
// are independent; committed in paper order they are bit-identical at any
// jobs count.
func Table1Jobs(ctx context.Context, engine interp.Engine, jobs int) ([]Table1Row, sched.Telemetry, error) {
	return sched.Map(ctx, sched.Config{Jobs: jobs}, table1Benches,
		func(_ sched.Task, b table1Bench) (Table1Row, error) {
			return table1Pair(ctx, b, engine)
		})
}

// RenderTable1 lays the rows out like the paper's Table I, with the measured
// column appended.
func RenderTable1(rows []Table1Row) string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "%-30s %14s  %s\n", "Java Components", "Measured", "Suggestion")
	for _, r := range rows {
		fmt.Fprintf(&sb, "%-30s %+13.1f%%  %s\n", r.Component, r.MeasuredPct, r.Suggestion)
	}
	return sb.String()
}
