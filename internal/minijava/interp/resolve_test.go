package interp

import (
	"strings"
	"testing"

	"jepo/internal/energy"
	"jepo/internal/minijava/ast"
	"jepo/internal/minijava/parser"
)

// loadOnly parses, loads and prepares src without executing anything, so
// tests can inspect the resolver's AST annotations (Load alone leaves them
// unset until the first run).
func loadOnly(t *testing.T, src string) (*Program, *ast.File) {
	t.Helper()
	f, err := parser.Parse("resolve.java", src)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	prog, err := Load(f)
	if err != nil {
		t.Fatalf("load: %v", err)
	}
	prog.prepare()
	return prog, f
}

// findMethodDecl locates a method AST node by name.
func findMethodDecl(t *testing.T, f *ast.File, class, method string) *ast.Method {
	t.Helper()
	for _, c := range f.Classes {
		if c.Name != class {
			continue
		}
		for _, m := range c.Methods {
			if m.Name == method {
				return m
			}
		}
	}
	t.Fatalf("method %s.%s not found", class, method)
	return nil
}

func TestResolveAssignsDistinctSlots(t *testing.T) {
	_, f := loadOnly(t, `class B {
		static int f(int a, int b) {
			int x = a + b;
			int y = x * 2;
			for (int i = 0; i < 3; i++) { y = y + i; }
			return y;
		}
	}`)
	m := findMethodDecl(t, f, "B", "f")
	// Params a,b take slots 0,1; locals x,y,i get three more.
	if m.NSlots != 5 {
		t.Errorf("NSlots = %d, want 5", m.NSlots)
	}
	// Distinct names must never share a slot.
	seen := map[int32]string{}
	var walk func(s ast.Stmt)
	record := func(name string, slot int32) {
		if slot == 0 {
			t.Errorf("local %s left unresolved", name)
			return
		}
		if prev, dup := seen[slot]; dup && prev != name {
			t.Errorf("slot %d shared by %s and %s", slot, prev, name)
		}
		seen[slot] = name
	}
	walk = func(s ast.Stmt) {
		switch n := s.(type) {
		case *ast.Block:
			for _, st := range n.Stmts {
				walk(st)
			}
		case *ast.LocalVar:
			record(n.Name, n.Slot)
		case *ast.For:
			if n.Init != nil {
				walk(n.Init)
			}
			walk(n.Body)
		}
	}
	walk(m.Body)
	if len(seen) != 3 {
		t.Errorf("found %d distinct local slots, want 3 (x, y, i)", len(seen))
	}
}

// Locals are dynamically scoped within the frame: on a loop's first
// iteration an identifier can execute before its declaration statement has
// run, and must resolve to the instance field or static of the same name.
func TestResolveUseBeforeDeclareFallsBack(t *testing.T) {
	v, _ := runProgram(t, `class B {
		static int x = 40;
		static int f() {
			int s = 0;
			for (int i = 0; i < 2; i++) {
				s = s + x;    // iteration 0: static x (40); iteration 1: local x (1)
				int x = 1;
			}
			return s;
		}
	}`, "B", "f")
	if v.I != 41 {
		t.Errorf("got %d, want 41 (static read then local read)", v.I)
	}
}

// A name that is an instance field in the enclosing class must not be
// slot-bound in a static method, because static methods can execute with a
// this reference (obj.staticMethod()), where the field ladder applies.
func TestResolveStaticShadowedByMultipleClasses(t *testing.T) {
	// n is a static in both A and B, so the resolver must NOT pin it to a
	// slot pointer: statics resolve through the frame's dynamic class.
	// B.geta() invokes the inherited get() with frame class B, so even the
	// read written inside A sees B.n — the seed interpreter's semantics,
	// preserved bit-for-bit by the resolver's multiStatic conservatism.
	v, _ := runProgram(t, `class A { static int n = 1; static int get() { return n; } }
	class B extends A { static int n = 2; static int geta() { return get(); } static int getb() { return n; } }
	class T { static int f() { return B.geta() * 10 + B.getb(); } }`, "T", "f")
	if v.I != 22 {
		t.Errorf("got %d, want 22 (frame class B makes both reads see B.n=2)", v.I)
	}
}

func TestResolveInheritedFieldSlots(t *testing.T) {
	v, _ := runProgram(t, `class A { int a; int sum() { return a; } }
	class B extends A { int b; int total() { return sum() + b; } }
	class T { static int f() {
		B o = new B();
		o.a = 7; o.b = 30;
		return o.total();
	} }`, "T", "f")
	if v.I != 37 {
		t.Errorf("got %d, want 37", v.I)
	}
}

func TestResolveCallSitesPinned(t *testing.T) {
	prog, f := loadOnly(t, `class B {
		static int twice(int x) { return x + x; }
		static int f() { return B.twice(4) + twice(3); }
	}`)
	if len(prog.sites) == 0 {
		t.Fatal("no call sites recorded")
	}
	pinned := 0
	for i := range prog.sites {
		if prog.sites[i].kind == siteStaticCall {
			pinned++
		}
	}
	if pinned != 1 {
		t.Errorf("pinned static call sites = %d, want 1 (the qualified B.twice)", pinned)
	}
	m := findMethodDecl(t, f, "B", "f")
	if m.NSlots != 0 {
		t.Errorf("f has no locals, NSlots = %d", m.NSlots)
	}
}

// Re-loading the same AST must fully overwrite every annotation, not
// accumulate stale site indices.
func TestResolveReloadIsIdempotent(t *testing.T) {
	f, err := parser.Parse("reload.java", `class B {
		static int g() { return 2; }
		static int f() { int a = B.g(); return a + B.g(); }
	}`)
	if err != nil {
		t.Fatal(err)
	}
	p1, err := Load(f)
	if err != nil {
		t.Fatal(err)
	}
	p1.prepare()
	n1 := len(p1.sites)
	if n1 == 0 {
		t.Fatal("no call sites recorded; the reload check would be vacuous")
	}
	p2, err := Load(f)
	if err != nil {
		t.Fatal(err)
	}
	p2.prepare()
	if len(p2.sites) != n1 {
		t.Errorf("site table grew across reload: %d then %d", n1, len(p2.sites))
	}
	in := New(p2, energy.NewMeter(energy.DefaultCosts()))
	v, err := in.CallStatic("B", "f")
	if err != nil {
		t.Fatal(err)
	}
	if v.I != 4 {
		t.Errorf("got %d, want 4", v.I)
	}
}

func TestBindCoercesHostValues(t *testing.T) {
	src := `class C {
		static double rate;
		static int count;
		static int[] data;
		static double f() { return rate * count + data[0]; }
	}`
	f, err := parser.Parse("bind.java", src)
	if err != nil {
		t.Fatal(err)
	}
	prog, err := Load(f)
	if err != nil {
		t.Fatal(err)
	}
	in := New(prog, energy.NewMeter(energy.DefaultCosts()))
	if err := in.InitStatics(); err != nil {
		t.Fatal(err)
	}
	// An int value bound to a double field must be converted, and vice versa.
	if err := in.Bind("C", "rate", IntVal(3)); err != nil {
		t.Fatalf("bind int->double: %v", err)
	}
	if err := in.Bind("C", "count", DoubleVal(4)); err != nil {
		t.Fatalf("bind double->int: %v", err)
	}
	arr := in.NewIntArray([]int64{5})
	if err := in.Bind("C", "data", arr); err != nil {
		t.Fatalf("bind array: %v", err)
	}
	v, err := in.CallStatic("C", "f")
	if err != nil {
		t.Fatal(err)
	}
	if v.K != KDouble || v.D != 17 {
		t.Errorf("got %v %v, want double 17", v.K, v.D)
	}
	// Binding a non-numeric value to a numeric field must error.
	if err := in.Bind("C", "count", NullVal()); err == nil {
		t.Error("bind null->int accepted")
	}
}

// Frames come from a pool and are released by defer, so a mini-Java
// exception unwinding through nested calls must leave the pool balanced:
// repeated throwing calls must not grow allocation.
func TestFramePoolSurvivesExceptions(t *testing.T) {
	src := `class B {
		static int depth(int n) {
			if (n == 0) { throw new RuntimeException("boom"); }
			return depth(n - 1);
		}
		static int f() {
			int caught = 0;
			for (int i = 0; i < 50; i++) {
				try { depth(10); } catch (RuntimeException e) { caught++; }
			}
			return caught;
		}
	}`
	v, in := runProgram(t, src, "B", "f")
	if v.I != 50 {
		t.Fatalf("caught = %d, want 50", v.I)
	}
	// After unwinding, every pooled frame slice must have been returned:
	// run the same workload again on the same interpreter and confirm the
	// free list served it (pool is LIFO; depth 11 chain + f's frame).
	if len(in.framePool) == 0 {
		t.Error("frame pool empty after exception unwinding; defers leaked frames")
	}
	before := len(in.framePool)
	if _, err := in.CallStatic("B", "f"); err != nil {
		t.Fatal(err)
	}
	if len(in.framePool) != before {
		t.Errorf("frame pool drifted across runs: %d then %d", before, len(in.framePool))
	}
}

func TestResolveDiagnosticsUnchanged(t *testing.T) {
	// Unknown identifiers must still produce the original error shape.
	f, err := parser.Parse("bad.java", `class B { static int f() { return nosuch; } }`)
	if err != nil {
		t.Fatal(err)
	}
	prog, err := Load(f)
	if err != nil {
		t.Fatal(err)
	}
	in := New(prog, energy.NewMeter(energy.DefaultCosts()))
	_, err = in.CallStatic("B", "f")
	if err == nil || !strings.Contains(err.Error(), "unknown identifier") {
		t.Errorf("err = %v, want unknown identifier", err)
	}
}
