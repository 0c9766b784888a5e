package interp

import (
	"reflect"
	"sync"
	"testing"

	"jepo/internal/energy"
	"jepo/internal/minijava/parser"
)

// The laziness contract: Load only links; resolution and compilation run
// once, on the first execution, and never for a program that cannot run.

// libSrc has no static fields: static slots live in the shared Program, so
// only static-free programs may run on concurrent interpreters.
const libSrc = `class Base {
	int n;
	int get() { int k = n; return k + 1; }
}
class Lib extends Base {
	static int twice(int x) { return x * 2; }
	int use() { return Lib.twice(get()); }
}`

func TestNoMainIsNeverPrepared(t *testing.T) {
	f, err := parser.Parse("lib.java", libSrc)
	if err != nil {
		t.Fatal(err)
	}
	pristine, err := parser.Parse("lib.java", libSrc)
	if err != nil {
		t.Fatal(err)
	}
	prog, err := Load(f)
	if err != nil {
		t.Fatal(err)
	}
	err = New(prog, energy.NewMeter(energy.DefaultCosts())).RunMain("")
	if err == nil || err.Error() != "interp: no class with a main method" {
		t.Fatalf("RunMain error = %v, want exactly %q", err, "interp: no class with a main method")
	}
	if len(prog.funcs) != 0 || len(prog.sites) != 0 {
		t.Errorf("program without main was prepared: %d funcs, %d sites", len(prog.funcs), len(prog.sites))
	}
	if !reflect.DeepEqual(f, pristine) {
		t.Error("program without main annotated its AST")
	}
}

// TestSharedProgramPreparedOnce: eight interpreters race to be the first to
// run one fresh program. Under -race this checks that sync.Once orders the
// AST annotation before every reader; the table sizes check that the
// program was resolved and compiled exactly once (a second compileProgram
// would append a second copy of every function).
func TestSharedProgramPreparedOnce(t *testing.T) {
	f, err := parser.Parse("lib.java", libSrc+`
class Main {
	static int f() {
		Lib l = new Lib();
		int s = 0;
		for (int i = 0; i < 50; i++) { s += l.use() + Lib.twice(i); }
		return s;
	}
}`)
	if err != nil {
		t.Fatal(err)
	}
	prog, err := Load(f)
	if err != nil {
		t.Fatal(err)
	}
	bodies := 0
	for _, c := range f.Classes {
		for _, m := range c.Methods {
			if m.Body != nil {
				bodies++
			}
		}
	}
	const workers = 8
	var results [workers]int64
	var wg sync.WaitGroup
	start := make(chan struct{})
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			<-start
			in := New(prog, energy.NewMeter(energy.DefaultCosts()), WithMaxOps(1_000_000))
			v, err := in.CallStatic("Main", "f")
			if err != nil {
				t.Errorf("worker %d: %v", w, err)
				return
			}
			results[w] = v.I
		}(w)
	}
	close(start)
	wg.Wait()
	for w := 1; w < workers; w++ {
		if results[w] != results[0] {
			t.Errorf("worker %d got %d, worker 0 got %d", w, results[w], results[0])
		}
	}
	if len(prog.funcs) != bodies {
		t.Errorf("compiled function table has %d entries for %d method bodies", len(prog.funcs), bodies)
	}
	sites := len(prog.sites)
	prog.prepare()
	if len(prog.sites) != sites || len(prog.funcs) != bodies {
		t.Error("a later prepare re-ran resolution or compilation")
	}
}
