package parser

import (
	"testing"
	"unicode"

	"jepo/internal/minijava/ast"
	"jepo/internal/minijava/lexer"
	"jepo/internal/minijava/token"
)

// FuzzScan asserts the lexer never panics or loops on arbitrary input: it
// either produces a token stream ending in EOF or returns an error. On
// success every token's Text is the source at its Pos, keyword spellings
// carry their token.Keywords kind (and nothing else does), and operator
// kinds agree with their Kind names both ways.
func FuzzScan(f *testing.F) {
	for _, seed := range []string{
		"", "class T { }", "int x = 5;", `"unterminated`, "'a'", "1e", "0x",
		"/* open", "a %= b << 3;", "1_000_000L", "\x00\xff", "class 🚀 {}",
		"for(;;){}", "новый int", "a <<= b >>= c; x===y", "doo in int_ Int $for",
	} {
		f.Add(seed)
	}
	ops := make(map[string]token.Kind)
	for k := token.EOF; k <= token.XorEq; k++ {
		if s := k.String(); !unicode.IsLetter(rune(s[0])) {
			ops[s] = k
		}
	}
	f.Fuzz(func(t *testing.T, src string) {
		toks, err := lexer.Scan(src)
		if err != nil {
			return
		}
		if len(toks) == 0 {
			t.Fatal("no tokens and no error")
		}
		if toks[len(toks)-1].Kind != token.EOF {
			t.Fatal("token stream not EOF-terminated")
		}
		lineStart := []int{0}
		for i := 0; i < len(src); i++ {
			if src[i] == '\n' {
				lineStart = append(lineStart, i+1)
			}
		}
		for _, tk := range toks {
			if tk.Pos.Line < 1 || tk.Pos.Line > len(lineStart) || tk.Pos.Col < 1 {
				t.Fatalf("token %q has position %v outside the source", tk.Text, tk.Pos)
			}
			off := lineStart[tk.Pos.Line-1] + tk.Pos.Col - 1
			if off+len(tk.Text) > len(src) || src[off:off+len(tk.Text)] != tk.Text {
				t.Fatalf("token %v %q at %v is not the source there", tk.Kind, tk.Text, tk.Pos)
			}
			if tk.Kind == token.EOF {
				if off != len(src) {
					t.Fatalf("EOF at %v, before the end of the source", tk.Pos)
				}
				continue
			}
			kw, isKw := token.Keywords[tk.Text]
			if isKw != (tk.Kind >= token.KwPackage && tk.Kind <= token.KwDo) || isKw && tk.Kind != kw {
				t.Fatalf("token %q scanned as %v; token.Keywords says %v (%v)", tk.Text, tk.Kind, kw, isKw)
			}
			op, isOp := ops[tk.Text]
			if isOp != (tk.Kind >= token.LParen) || isOp && tk.Kind != op {
				t.Fatalf("token %q scanned as %v; the operator names say %v (%v)", tk.Text, tk.Kind, op, isOp)
			}
		}
	})
}

// FuzzParse asserts the parser never panics, and that anything it accepts
// prints to source that re-parses (a printer/parser round-trip invariant).
func FuzzParse(f *testing.F) {
	for _, seed := range []string{
		"class T { }",
		"class T { int f(int a) { return a > 0 ? a : -a; } }",
		"class T { void f() { try { } catch (E e) { } finally { } } }",
		"class T { double[][] m = new double[3][4]; }",
		"class T { String s = \"x\" + 1 + true; }",
		"class T extends U { T() { this.x = 1; } }",
		"class T { void f() { for (int i = 0, j = 1; i < j; i++, j--) { } } }",
		"class T { static int x = 100000; }",
		"package p.q; import a.b.*; class T { }",
		"class T { boolean b = x instanceof Y; }",
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, src string) {
		file, err := Parse("fuzz.java", src)
		if err != nil {
			return
		}
		printed := ast.Print(file)
		if _, err := Parse("fuzz2.java", printed); err != nil {
			t.Fatalf("accepted source does not round-trip: %v\noriginal:\n%s\nprinted:\n%s",
				err, src, printed)
		}
	})
}
