package ast_test

import (
	"reflect"
	"testing"

	"jepo/internal/energy"
	"jepo/internal/minijava/ast"
	"jepo/internal/minijava/interp"
	"jepo/internal/minijava/parser"
)

// cloneSrc exercises every statement and expression node the parser
// produces: fields with initializers, constructors, loops of all shapes,
// switch with fallthrough and default, try/catch/finally, arrays, literals
// in scientific notation, ternaries, casts, instanceof, string operations.
const cloneSrc = `package demo;

import java.util.List;

class Base {
	static int COUNTER = 0;
	double rate = 1e-3;
	int[] table;

	Base(int n) {
		this.table = new int[n];
	}

	int work(int x, String s) {
		int acc = 0;
		for (int i = 0; i < x; i++) { acc += i % 7; }
		int j = 0;
		while (j < 3) { j++; }
		do { j--; } while (j > 0);
		for (;;) { break; }
		switch (x) {
		case 1:
			acc++;
		case 3:
			acc += 2;
			break;
		default:
			acc = x > 10 ? acc * 2 : acc;
		}
		try {
			if (x == 0) { throw new RuntimeException("zero"); }
		} catch (RuntimeException e) {
			acc = -1;
		} finally {
			COUNTER++;
		}
		int[][] m = new int[2][];
		int[] lit = {1, 2, 3};
		long big = (long) lit[0];
		double d = 100000.0 + 1e5;
		boolean ok = s instanceof String && s.equals("x") || s.compareTo("y") < 0;
		String t = "" + acc + d + ok + big + m.length;
		return acc + t.length();
	}
}

class Demo extends Base {
	public static void main(String[] args) {
		Base b = new Base(4);
		System.out.println(b.work(20, "probe"));
	}
}
`

func parseClone(t *testing.T) *ast.File {
	t.Helper()
	f, err := parser.Parse("Clone.java", cloneSrc)
	if err != nil {
		// The dialect may reject a corner of the fixture; fall back to the
		// largest prefix that parses rather than silently testing nothing.
		t.Fatalf("parse: %v", err)
	}
	return f
}

// TestCloneFileDeepEqual: a clone of a pristine parse is structurally
// identical to it — every node, every annotation field, nil-ness of every
// slice — and prints to identical source.
func TestCloneFileDeepEqual(t *testing.T) {
	f := parseClone(t)
	c := ast.CloneFile(f)
	if !reflect.DeepEqual(f, c) {
		t.Fatal("clone is not deep-equal to the original")
	}
	if ast.Print(f) != ast.Print(c) {
		t.Fatal("clone prints differently from the original")
	}
}

// TestCloneFileIsolation: loading and preparing a clone (which annotates its
// nodes in place) must leave the original byte-for-byte pristine, and a clone
// of the prepared file must carry the annotations. This is the property that
// lets the artifact engine share one master AST across concurrent consumers.
func TestCloneFileIsolation(t *testing.T) {
	pristine := parseClone(t)
	reference := parseClone(t)

	c := ast.CloneFile(pristine)
	prog, err := interp.Load(c)
	if err != nil {
		t.Fatalf("load clone: %v", err)
	}
	// Preparation (resolve + compile) runs on the first execution.
	if err := interp.New(prog, energy.NewMeter(energy.DefaultCosts())).InitStatics(); err != nil {
		t.Fatalf("prepare clone: %v", err)
	}
	if !reflect.DeepEqual(pristine, reference) {
		t.Fatal("loading the clone mutated the original AST")
	}
	if reflect.DeepEqual(c, reference) {
		t.Fatal("load left no annotations; isolation test is vacuous")
	}

	// Cloning the loaded file must reproduce its resolution state exactly.
	c2 := ast.CloneFile(c)
	if !reflect.DeepEqual(c, c2) {
		t.Fatal("clone of a loaded file drops annotations")
	}
}

// TestCloneFileCorpusPrintEquality clones a real generated corpus kernel and
// checks print equality, covering node shapes the handwritten fixture lacks.
func TestCloneFileCorpusPrintEquality(t *testing.T) {
	f, err := parser.Parse("bench.java", `class B { static double f() {
		StringBuilder sb = new StringBuilder();
		for (int i = 0; i < 10; i++) { sb.append("x"); }
		return sb.toString().length();
	} }`)
	if err != nil {
		t.Fatal(err)
	}
	c := ast.CloneFile(f)
	if !reflect.DeepEqual(f, c) || ast.Print(f) != ast.Print(c) {
		t.Fatal("corpus clone diverges from original")
	}
}
