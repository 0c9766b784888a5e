//go:build enginediff

// Differential engine fuzz: the bytecode VM and the tree-walker must be
// observationally identical — same results, same printed output, same op
// counts, same energy bits — on every program. The test drives both engines
// over (a) the Table I benchmark corpus and (b) seeded randomly generated
// programs exercising locals, statics, fields, arrays, loops, switches,
// short-circuits, casts, calls and exception handling. Any divergence is a
// compiler or dispatch bug, never acceptable drift. The observation and
// comparison helpers live in agreement_test.go, shared with the untagged
// FuzzEngineAgreement target.
//
// Run with:
//
//	go test -tags enginediff -run EngineDiff ./internal/minijava/interp
package interp_test

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"jepo/internal/tables"
)

func TestEngineDiffTableICorpus(t *testing.T) {
	for _, b := range tables.InterpBenches() {
		b := b
		t.Run(b.Name, func(t *testing.T) {
			diffEngines(t, b.Name, b.Src, "B", "f")
		})
	}
}

func TestEngineDiffRandomPrograms(t *testing.T) {
	const programs = 60
	for seed := int64(0); seed < programs; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed%02d", seed), func(t *testing.T) {
			src := generate(rand.New(rand.NewSource(seed)))
			diffEngines(t, fmt.Sprintf("seed %d", seed), src, "F", "f")
		})
	}
}

// --- the program generator ---

// gen holds the generator state: a deterministic source, the declared
// variables per kind, and a name counter. Loop counters are readable but
// never assignment targets, so every generated loop terminates; int
// divisions use nonzero-by-construction denominators except in the guarded
// try/catch template, which is the point.
type gen struct {
	r      *rand.Rand
	sb     strings.Builder
	indent string

	ints, dbls, bools []string // readable variables
	mutInts, mutDbls  []string // assignable subsets
	mutBools          []string
	n                 int // name counter
}

func generate(r *rand.Rand) string {
	g := &gen{r: r, indent: "\t\t"}

	g.line("class P {")
	g.line("\tint v; double w;")
	g.line("\tP(int v0) { this.v = v0; this.w = v0 * 0.5; }")
	g.line("\tint bump() { this.v = this.v + 1; return this.v; }")
	g.line("}")
	g.line("class F {")
	g.line("\tstatic int sInt = 2;")
	g.line("\tstatic double sDbl = 0.5;")
	g.line("\tstatic int g(int x) { return x * 3 - 7; }")
	g.line("\tstatic double h(double a, int b) { return a * 0.5 + b; }")
	g.line("\tstatic double f() {")

	// Preamble: a fixed vocabulary every expression can draw from. Arrays
	// are always length 8 and loop bounds never exceed 8, so loop counters
	// double as safe indices.
	g.line("\t\tint x0 = 3; int x1 = -5;")
	g.line("\t\tdouble d0 = 1.25; double d1 = 340.0;")
	g.line("\t\tboolean b0 = true;")
	g.line("\t\tint[] a0 = new int[8];")
	g.line("\t\tdouble[] e0 = new double[8];")
	g.line("\t\tP p0 = new P(4);")
	g.line("\t\tfor (int w0 = 0; w0 < 8; w0++) { a0[w0] = w0 * 2 - 3; e0[w0] = w0 * 0.75; }")
	g.ints = []string{"x0", "x1", "sInt", "p0.v"}
	g.mutInts = []string{"x0", "x1", "sInt", "p0.v"}
	g.dbls = []string{"d0", "d1", "sDbl", "p0.w"}
	g.mutDbls = []string{"d0", "d1", "sDbl", "p0.w"}
	g.bools = []string{"b0"}
	g.mutBools = []string{"b0"}

	for i, n := 0, 5+g.r.Intn(6); i < n; i++ {
		g.stmt(0)
	}

	g.line("\t\treturn d0 + x0 + x1 + sDbl + sInt + a0[3] + e0[5] + p0.v + p0.w;")
	g.line("\t}")
	g.line("}")
	return g.sb.String()
}

func (g *gen) line(s string) { g.sb.WriteString(s); g.sb.WriteByte('\n') }

func (g *gen) name(prefix string) string {
	g.n++
	return fmt.Sprintf("%s%d", prefix, g.n)
}

func (g *gen) pick(vs []string) string { return vs[g.r.Intn(len(vs))] }

// idx yields an in-bounds index expression for the length-8 arrays.
func (g *gen) idx() string { return fmt.Sprintf("%d", g.r.Intn(8)) }

// intExpr generates an int-typed expression.
func (g *gen) intExpr(depth int) string {
	if depth <= 0 || g.r.Intn(4) == 0 {
		switch g.r.Intn(3) {
		case 0:
			return fmt.Sprintf("%d", g.r.Intn(201)-100)
		case 1:
			return g.pick(g.ints)
		default:
			return "a0[" + g.idx() + "]"
		}
	}
	switch g.r.Intn(8) {
	case 0:
		return "(" + g.intExpr(depth-1) + " + " + g.intExpr(depth-1) + ")"
	case 1:
		return "(" + g.intExpr(depth-1) + " - " + g.intExpr(depth-1) + ")"
	case 2:
		return "(" + g.intExpr(depth-1) + " * " + g.intExpr(depth-1) + ")"
	case 3:
		// Positive constant denominators keep the hot path exception-free;
		// the try/catch template owns the div-by-zero parity case.
		return fmt.Sprintf("(%s %% %d)", g.intExpr(depth-1), []int{2, 3, 5, 7}[g.r.Intn(4)])
	case 4:
		return fmt.Sprintf("(%s / %d)", g.intExpr(depth-1), []int{2, 3, 5, 11}[g.r.Intn(4)])
	case 5:
		return "(" + g.boolExpr(depth-1) + " ? " + g.intExpr(depth-1) + " : " + g.intExpr(depth-1) + ")"
	case 6:
		return "g(" + g.intExpr(depth-1) + ")"
	default:
		if g.r.Intn(2) == 0 {
			return "p0.bump()"
		}
		return "(int) (" + g.dblExpr(depth-1) + ")"
	}
}

// dblExpr generates a double-typed expression.
func (g *gen) dblExpr(depth int) string {
	if depth <= 0 || g.r.Intn(4) == 0 {
		switch g.r.Intn(4) {
		case 0:
			return fmt.Sprintf("%.2f", float64(g.r.Intn(800))/4-50)
		case 1:
			return "3.5e2" // scientific literal: the costlier parse charge
		case 2:
			return g.pick(g.dbls)
		default:
			return "e0[" + g.idx() + "]"
		}
	}
	switch g.r.Intn(7) {
	case 0:
		return "(" + g.dblExpr(depth-1) + " + " + g.dblExpr(depth-1) + ")"
	case 1:
		return "(" + g.dblExpr(depth-1) + " - " + g.dblExpr(depth-1) + ")"
	case 2:
		return "(" + g.dblExpr(depth-1) + " * " + g.dblExpr(depth-1) + ")"
	case 3:
		return fmt.Sprintf("(%s / %d.0)", g.dblExpr(depth-1), []int{2, 4, 8}[g.r.Intn(3)])
	case 4:
		return "(" + g.boolExpr(depth-1) + " ? " + g.dblExpr(depth-1) + " : " + g.dblExpr(depth-1) + ")"
	case 5:
		return "h(" + g.dblExpr(depth-1) + ", " + g.intExpr(depth-1) + ")"
	default:
		return "(double) (" + g.intExpr(depth-1) + ")"
	}
}

// boolExpr generates a boolean-typed expression.
func (g *gen) boolExpr(depth int) string {
	if depth <= 0 || g.r.Intn(3) == 0 {
		switch g.r.Intn(3) {
		case 0:
			return g.pick(g.bools)
		case 1:
			return "true"
		default:
			return "false"
		}
	}
	cmps := []string{"<", "<=", ">", ">=", "==", "!="}
	switch g.r.Intn(5) {
	case 0:
		return "(" + g.intExpr(depth-1) + " " + g.pick(cmps) + " " + g.intExpr(depth-1) + ")"
	case 1:
		return "(" + g.dblExpr(depth-1) + " " + g.pick(cmps) + " " + g.dblExpr(depth-1) + ")"
	case 2:
		return "(" + g.boolExpr(depth-1) + " && " + g.boolExpr(depth-1) + ")"
	case 3:
		return "(" + g.boolExpr(depth-1) + " || " + g.boolExpr(depth-1) + ")"
	default:
		return "(!" + g.boolExpr(depth-1) + ")"
	}
}

// stmt emits one statement at the current indent. nest bounds statement
// nesting so generated programs stay small.
func (g *gen) stmt(nest int) {
	in := g.indent
	choice := g.r.Intn(12)
	if nest >= 2 && choice >= 6 {
		choice = g.r.Intn(6) // leaf statements only when deeply nested
	}
	switch choice {
	case 0: // new int local
		v := g.name("li")
		g.line(in + "int " + v + " = " + g.intExpr(2) + ";")
		g.ints = append(g.ints, v)
		g.mutInts = append(g.mutInts, v)
	case 1: // new double local
		v := g.name("ld")
		g.line(in + "double " + v + " = " + g.dblExpr(2) + ";")
		g.dbls = append(g.dbls, v)
		g.mutDbls = append(g.mutDbls, v)
	case 2: // assignment
		if g.r.Intn(2) == 0 {
			g.line(in + g.pick(g.mutInts) + " = " + g.intExpr(2) + ";")
		} else {
			g.line(in + g.pick(g.mutDbls) + " = " + g.dblExpr(2) + ";")
		}
	case 3: // compound assignment
		ops := []string{"+=", "-=", "*="}
		if g.r.Intn(2) == 0 {
			g.line(in + g.pick(g.mutInts) + " " + g.pick(ops) + " " + g.intExpr(1) + ";")
		} else {
			g.line(in + g.pick(g.mutDbls) + " " + g.pick(ops) + " " + g.dblExpr(1) + ";")
		}
	case 4: // array store
		if g.r.Intn(2) == 0 {
			g.line(in + "a0[" + g.idx() + "] = " + g.intExpr(2) + ";")
		} else {
			g.line(in + "e0[" + g.idx() + "] = " + g.dblExpr(2) + ";")
		}
	case 5: // println (both engines must produce identical output)
		if g.r.Intn(2) == 0 {
			g.line(in + "System.out.println(" + g.intExpr(2) + ");")
		} else {
			g.line(in + "System.out.println(" + g.dblExpr(2) + ");")
		}
	case 6: // if / else
		g.line(in + "if (" + g.boolExpr(2) + ") {")
		g.nested(nest, 1+g.r.Intn(2))
		if g.r.Intn(2) == 0 {
			g.line(in + "} else {")
			g.nested(nest, 1+g.r.Intn(2))
		}
		g.line(in + "}")
	case 7: // bounded for loop; the counter is readable but never assigned
		v := g.name("i")
		bound := 2 + g.r.Intn(7)
		g.line(in + fmt.Sprintf("for (int %s = 0; %s < %d; %s++) {", v, v, bound, v))
		g.ints = append(g.ints, v)
		g.nested(nest, 1+g.r.Intn(2))
		g.line(in + "}")
		g.ints = g.ints[:len(g.ints)-1]
	case 8: // countdown while loop
		v := g.name("w")
		g.line(in + fmt.Sprintf("int %s = %d;", v, 2+g.r.Intn(6)))
		g.line(in + "while (" + v + " > 0) {")
		g.indent += "\t"
		g.line(g.indent + v + " = " + v + " - 1;")
		g.indent = in
		g.ints = append(g.ints, v)
		g.nested(nest, 1)
		g.line(in + "}")
		g.ints = g.ints[:len(g.ints)-1]
	case 9: // switch over a small int range
		g.line(in + "switch (" + g.intExpr(1) + " % 3) {")
		g.line(in + "case 0: " + g.pick(g.mutDbls) + " += 1.0; break;")
		g.line(in + "case 1: " + g.pick(g.mutInts) + " -= 2; break;")
		g.line(in + "default: " + g.pick(g.mutDbls) + " *= 0.5;")
		g.line(in + "}")
	case 10: // guarded division: exception paths must also agree
		tgt := g.pick(g.mutInts)
		ex := g.name("ex")
		g.line(in + "try { " + tgt + " = " + g.intExpr(1) + " / (" + g.intExpr(1) + " % 2); }")
		g.line(in + "catch (ArithmeticException " + ex + ") { " + tgt + " = " + tgt + " + 1; }")
	default: // do-while countdown
		v := g.name("q")
		g.line(in + fmt.Sprintf("int %s = %d;", v, 1+g.r.Intn(5)))
		g.line(in + "do {")
		g.indent += "\t"
		g.line(g.indent + v + " = " + v + " - 1;")
		g.line(g.indent + g.pick(g.mutDbls) + " += 0.25;")
		g.indent = in
		g.line(in + "} while (" + v + " > 0);")
	}
}

// nested emits count statements one indent level deeper, restoring the
// variable vocabulary afterwards so inner declarations stay scoped.
func (g *gen) nested(nest, count int) {
	in := g.indent
	ni, nd, nb := len(g.ints), len(g.dbls), len(g.bools)
	mi, md, mb := len(g.mutInts), len(g.mutDbls), len(g.mutBools)
	g.indent = in + "\t"
	for i := 0; i < count; i++ {
		g.stmt(nest + 1)
	}
	g.indent = in
	g.ints, g.dbls, g.bools = g.ints[:ni], g.dbls[:nd], g.bools[:nb]
	g.mutInts, g.mutDbls, g.mutBools = g.mutInts[:mi], g.mutDbls[:md], g.mutBools[:mb]
}
