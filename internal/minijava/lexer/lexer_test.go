package lexer

import (
	"testing"
	"unsafe"

	"jepo/internal/minijava/token"
)

func kinds(t *testing.T, src string) []token.Kind {
	t.Helper()
	toks, err := Scan(src)
	if err != nil {
		t.Fatalf("Scan(%q): %v", src, err)
	}
	out := make([]token.Kind, 0, len(toks))
	for _, tk := range toks {
		out = append(out, tk.Kind)
	}
	return out
}

func TestScanBasics(t *testing.T) {
	got := kinds(t, `int x = a % 3;`)
	want := []token.Kind{token.KwInt, token.IDENT, token.Assign, token.IDENT,
		token.Percent, token.INTLIT, token.Semi, token.EOF}
	if len(got) != len(want) {
		t.Fatalf("got %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("token %d = %v, want %v", i, got[i], want[i])
		}
	}
}

// operatorKinds lists every punctuation/operator kind with its spelling,
// taken from the Kind names (operator kinds name themselves).
func operatorKinds() map[string]token.Kind {
	ops := make(map[string]token.Kind)
	for k := token.EOF; k <= token.XorEq; k++ {
		s := k.String()
		if c := s[0]; !isLetter(c) && !isDigit(c) {
			ops[s] = k
		}
	}
	return ops
}

// scanOne scans src and requires exactly one token of the given kind whose
// text is src.
func scanOne(t *testing.T, src string, want token.Kind) {
	t.Helper()
	toks, err := Scan(src)
	if err != nil {
		t.Fatalf("Scan(%q): %v", src, err)
	}
	if len(toks) != 2 || toks[0].Kind != want || toks[0].Text != src || toks[1].Kind != token.EOF {
		t.Errorf("Scan(%q) = %v, want one %v token", src, toks, want)
	}
}

// TestScanOperators: every operator spelling of the Kind names scans to its
// kind, and longer runs split longest-match-first.
func TestScanOperators(t *testing.T) {
	ops := operatorKinds()
	if want := int(token.XorEq-token.LParen) + 1; len(ops) != want {
		t.Fatalf("found %d operator spellings, want %d", len(ops), want)
	}
	for text, k := range ops {
		scanOne(t, text, k)
	}
	// The dialect has no shift-assign: <<= and >>= split after the shift.
	for src, want := range map[string][]token.Kind{
		"c <<= 0": {token.IDENT, token.Shl, token.Assign, token.INTLIT, token.EOF},
		">>=":     {token.Shr, token.Assign, token.EOF},
		"<<<":     {token.Shl, token.Lt, token.EOF},
		"===":     {token.Eq, token.Assign, token.EOF},
		"+++":     {token.Inc, token.Plus, token.EOF},
		"=>":      {token.Assign, token.Gt, token.EOF},
	} {
		got := kinds(t, src)
		if len(got) != len(want) {
			t.Errorf("Scan(%q) = %v, want %v", src, got, want)
			continue
		}
		for i := range want {
			if got[i] != want[i] {
				t.Errorf("Scan(%q) = %v, want %v", src, got, want)
				break
			}
		}
	}
}

// TestTokenTextAliasesSource: every token's Text is a substring of the
// source, sharing its bytes, one-char operators included.
func TestTokenTextAliasesSource(t *testing.T) {
	src := `class T { int f(int a) { a += 1; return a % 3 == 0 ? a : -a; } }`
	toks, err := Scan(src)
	if err != nil {
		t.Fatal(err)
	}
	base := uintptr(unsafe.Pointer(unsafe.StringData(src)))
	for _, tk := range toks[:len(toks)-1] {
		p := uintptr(unsafe.Pointer(unsafe.StringData(tk.Text)))
		if p < base || p+uintptr(len(tk.Text)) > base+uintptr(len(src)) {
			t.Errorf("token %q at %v does not alias the source", tk.Text, tk.Pos)
		}
	}
}

func TestScanNumbers(t *testing.T) {
	cases := []struct {
		src  string
		kind token.Kind
	}{
		{"42", token.INTLIT},
		{"42L", token.LONGLIT},
		{"0x1F", token.INTLIT},
		{"0xFFL", token.LONGLIT},
		{"3.14", token.DOUBLELIT},
		{"3.14f", token.FLOATLIT},
		{"1e5", token.DOUBLELIT},
		{"1.5e-3", token.DOUBLELIT},
		{"2d", token.DOUBLELIT},
		{".5", token.DOUBLELIT},
		{"1_000_000", token.INTLIT},
	}
	for _, c := range cases {
		toks, err := Scan(c.src)
		if err != nil {
			t.Errorf("Scan(%q): %v", c.src, err)
			continue
		}
		if toks[0].Kind != c.kind {
			t.Errorf("Scan(%q) kind = %v, want %v", c.src, toks[0].Kind, c.kind)
		}
		if toks[0].Text != c.src {
			t.Errorf("Scan(%q) text = %q", c.src, toks[0].Text)
		}
	}
}

func TestScanStringsAndChars(t *testing.T) {
	toks, err := Scan(`"hello \"world\"" 'a' '\n' '\''`)
	if err != nil {
		t.Fatal(err)
	}
	if toks[0].Kind != token.STRINGLIT || toks[0].Text != `"hello \"world\""` {
		t.Errorf("string token = %v %q", toks[0].Kind, toks[0].Text)
	}
	if toks[1].Kind != token.CHARLIT || toks[2].Kind != token.CHARLIT || toks[3].Kind != token.CHARLIT {
		t.Error("char literals not scanned")
	}
}

func TestScanComments(t *testing.T) {
	got := kinds(t, "int /* block \n comment */ x; // line\n y")
	want := []token.Kind{token.KwInt, token.IDENT, token.Semi, token.IDENT, token.EOF}
	if len(got) != len(want) {
		t.Fatalf("got %v, want %v", got, want)
	}
}

func TestScanPositions(t *testing.T) {
	toks, err := Scan("int x;\n  y = 2;")
	if err != nil {
		t.Fatal(err)
	}
	if toks[0].Pos.Line != 1 || toks[0].Pos.Col != 1 {
		t.Errorf("first token at %v, want 1:1", toks[0].Pos)
	}
	// 'y' is on line 2, col 3.
	if toks[3].Pos.Line != 2 || toks[3].Pos.Col != 3 {
		t.Errorf("'y' at %v, want 2:3", toks[3].Pos)
	}
}

func TestScanErrors(t *testing.T) {
	for src, msg := range map[string]string{
		`"unterminated`: "",
		`'`:             "",
		`''`:            "",
		`'ab`:           "",
		`#`:             `1:1: unexpected character "#"`,
		"x\n\xc3":       `2:1: unexpected character "Ã"`,
		`/* open`:       "",
		`1e`:            "",
		`1.5L`:          "",
	} {
		_, err := Scan(src)
		if err == nil {
			t.Errorf("Scan(%q): want error", src)
		} else if msg != "" && err.Error() != msg {
			t.Errorf("Scan(%q) error = %v, want %s", src, err, msg)
		}
	}
}

// TestKeywords: every token.Keywords spelling scans to its kind, and
// near-keywords stay identifiers.
func TestKeywords(t *testing.T) {
	for text, k := range token.Keywords {
		scanOne(t, text, k)
	}
	for _, near := range []string{"doo", "in", "int_", "Int", "$for", "instanceOf", "classes", "d", "x1"} {
		scanOne(t, near, token.IDENT)
	}
}

func TestIsScientific(t *testing.T) {
	if !IsScientific("1e5") || !IsScientific("2.5E-3") {
		t.Error("scientific literals not recognized")
	}
	if IsScientific("15.0") || IsScientific("0xE") {
		t.Error("non-scientific literals misclassified")
	}
}
