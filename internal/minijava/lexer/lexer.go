// Package lexer implements the scanner for the mini-Java dialect.
package lexer

import (
	"fmt"
	"strings"

	"jepo/internal/minijava/token"
)

// Error is a lexical error with its position.
type Error struct {
	Pos token.Pos
	Msg string
}

func (e *Error) Error() string { return fmt.Sprintf("%s: %s", e.Pos, e.Msg) }

// Lexer scans mini-Java source text into tokens.
type Lexer struct {
	src  string
	off  int
	line int
	col  int
}

// New builds a lexer over src.
func New(src string) *Lexer {
	return &Lexer{src: src, line: 1, col: 1}
}

// Scan tokenizes the whole input, returning the token stream (terminated by
// an EOF token) or the first lexical error.
func Scan(src string) ([]token.Token, error) {
	lx := New(src)
	// The generated corpus averages 4.76 source bytes per token and no file
	// goes below 2.8, so a quarter of the length rarely regrows; denser
	// input just grows the slice.
	toks := make([]token.Token, 0, len(src)/4+1)
	for {
		t, err := lx.Next()
		if err != nil {
			return nil, err
		}
		toks = append(toks, t)
		if t.Kind == token.EOF {
			return toks, nil
		}
	}
}

func (lx *Lexer) peek() byte {
	if lx.off >= len(lx.src) {
		return 0
	}
	return lx.src[lx.off]
}

func (lx *Lexer) peek2() byte {
	if lx.off+1 >= len(lx.src) {
		return 0
	}
	return lx.src[lx.off+1]
}

func (lx *Lexer) advance() byte {
	c := lx.src[lx.off]
	lx.off++
	if c == '\n' {
		lx.line++
		lx.col = 1
	} else {
		lx.col++
	}
	return c
}

func (lx *Lexer) pos() token.Pos { return token.Pos{Line: lx.line, Col: lx.col} }

func (lx *Lexer) errf(pos token.Pos, format string, args ...any) error {
	return &Error{Pos: pos, Msg: fmt.Sprintf(format, args...)}
}

// skipSpaceAndComments consumes whitespace, // and /* */ comments.
func (lx *Lexer) skipSpaceAndComments() error {
	for lx.off < len(lx.src) {
		c := lx.peek()
		switch {
		case c == ' ' || c == '\t' || c == '\r' || c == '\n':
			lx.advance()
		case c == '/' && lx.peek2() == '/':
			for lx.off < len(lx.src) && lx.peek() != '\n' {
				lx.advance()
			}
		case c == '/' && lx.peek2() == '*':
			start := lx.pos()
			lx.advance()
			lx.advance()
			for {
				if lx.off >= len(lx.src) {
					return lx.errf(start, "unterminated block comment")
				}
				if lx.peek() == '*' && lx.peek2() == '/' {
					lx.advance()
					lx.advance()
					break
				}
				lx.advance()
			}
		default:
			return nil
		}
	}
	return nil
}

func isLetter(c byte) bool {
	return c == '_' || c == '$' || ('a' <= c && c <= 'z') || ('A' <= c && c <= 'Z')
}

func isDigit(c byte) bool { return '0' <= c && c <= '9' }

// Next scans the next token.
func (lx *Lexer) Next() (token.Token, error) {
	if err := lx.skipSpaceAndComments(); err != nil {
		return token.Token{}, err
	}
	pos := lx.pos()
	if lx.off >= len(lx.src) {
		return token.Token{Kind: token.EOF, Pos: pos}, nil
	}
	c := lx.peek()
	switch {
	case isLetter(c):
		return lx.scanIdent(pos), nil
	case isDigit(c):
		return lx.scanNumber(pos)
	case c == '.' && isDigit(lx.peek2()):
		return lx.scanNumber(pos)
	case c == '"':
		return lx.scanString(pos)
	case c == '\'':
		return lx.scanChar(pos)
	}
	return lx.scanOperator(pos)
}

// scanIdent scans an identifier or keyword. Identifiers never span a
// newline, so the column advances by the spelling's length.
func (lx *Lexer) scanIdent(pos token.Pos) token.Token {
	start := lx.off
	for lx.off < len(lx.src) && (isLetter(lx.src[lx.off]) || isDigit(lx.src[lx.off])) {
		lx.off++
	}
	lx.col += lx.off - start
	text := lx.src[start:lx.off]
	return token.Token{Kind: keyword(text), Text: text, Pos: pos}
}

// keywordEntry is one token.Keywords spelling with its kind.
type keywordEntry struct {
	text string
	kind token.Kind
}

// keywordBuckets holds token.Keywords bucketed by spelling length and first
// letter (every keyword is lower-case ASCII), so an identifier is compared
// against at most a few spellings and never hashed.
var keywordBuckets = func() [][26][]keywordEntry {
	var b [][26][]keywordEntry
	for text, k := range token.Keywords {
		for len(b) <= len(text) {
			b = append(b, [26][]keywordEntry{})
		}
		b[len(text)][text[0]-'a'] = append(b[len(text)][text[0]-'a'], keywordEntry{text, k})
	}
	return b
}()

// keyword returns the keyword kind spelled by an identifier, or IDENT.
func keyword(text string) token.Kind {
	if len(text) >= len(keywordBuckets) {
		return token.IDENT
	}
	c := text[0] - 'a'
	if c >= 26 {
		return token.IDENT
	}
	for _, e := range keywordBuckets[len(text)][c] {
		if e.text == text {
			return e.kind
		}
	}
	return token.IDENT
}

func (lx *Lexer) scanNumber(pos token.Pos) (token.Token, error) {
	start := lx.off
	kind := token.INTLIT
	sawDot, sawExp := false, false
	if lx.peek() == '0' && (lx.peek2() == 'x' || lx.peek2() == 'X') {
		lx.advance()
		lx.advance()
		for lx.off < len(lx.src) && isHex(lx.peek()) {
			lx.advance()
		}
		if lx.peek() == 'L' || lx.peek() == 'l' {
			lx.advance()
			kind = token.LONGLIT
		}
		return token.Token{Kind: kind, Text: lx.src[start:lx.off], Pos: pos}, nil
	}
	for lx.off < len(lx.src) {
		c := lx.peek()
		switch {
		case isDigit(c) || c == '_':
			lx.advance()
		case c == '.' && !sawDot && !sawExp:
			sawDot = true
			kind = token.DOUBLELIT
			lx.advance()
		case (c == 'e' || c == 'E') && !sawExp:
			sawExp = true
			kind = token.DOUBLELIT
			lx.advance()
			if lx.peek() == '+' || lx.peek() == '-' {
				lx.advance()
			}
			if !isDigit(lx.peek()) {
				return token.Token{}, lx.errf(pos, "malformed exponent in numeric literal")
			}
		default:
			goto suffix
		}
	}
suffix:
	if lx.off < len(lx.src) {
		switch lx.peek() {
		case 'L', 'l':
			if kind != token.INTLIT {
				return token.Token{}, lx.errf(pos, "L suffix on floating-point literal")
			}
			lx.advance()
			kind = token.LONGLIT
		case 'f', 'F':
			lx.advance()
			kind = token.FLOATLIT
		case 'd', 'D':
			lx.advance()
			kind = token.DOUBLELIT
		}
	}
	return token.Token{Kind: kind, Text: lx.src[start:lx.off], Pos: pos}, nil
}

func isHex(c byte) bool {
	return isDigit(c) || ('a' <= c && c <= 'f') || ('A' <= c && c <= 'F')
}

func (lx *Lexer) scanString(pos token.Pos) (token.Token, error) {
	start := lx.off
	lx.advance() // opening quote
	for {
		if lx.off >= len(lx.src) || lx.peek() == '\n' {
			return token.Token{}, lx.errf(pos, "unterminated string literal")
		}
		c := lx.advance()
		if c == '\\' {
			if lx.off >= len(lx.src) {
				return token.Token{}, lx.errf(pos, "unterminated escape in string literal")
			}
			lx.advance()
			continue
		}
		if c == '"' {
			break
		}
	}
	return token.Token{Kind: token.STRINGLIT, Text: lx.src[start:lx.off], Pos: pos}, nil
}

func (lx *Lexer) scanChar(pos token.Pos) (token.Token, error) {
	start := lx.off
	lx.advance() // opening quote
	if lx.off >= len(lx.src) {
		return token.Token{}, lx.errf(pos, "unterminated char literal")
	}
	if lx.peek() == '\\' {
		lx.advance()
		if lx.off >= len(lx.src) {
			return token.Token{}, lx.errf(pos, "unterminated char literal")
		}
		lx.advance()
	} else if lx.peek() == '\'' {
		return token.Token{}, lx.errf(pos, "empty char literal")
	} else {
		lx.advance()
	}
	if lx.off >= len(lx.src) || lx.peek() != '\'' {
		return token.Token{}, lx.errf(pos, "unterminated char literal")
	}
	lx.advance()
	return token.Token{Kind: token.CHARLIT, Text: lx.src[start:lx.off], Pos: pos}, nil
}

// Operator tables indexed by the first byte. EOF (kind 0) is never an
// operator, so 0 means "none". Two-char forms are either the byte doubled
// (doubled) or the byte followed by '=' (withEq); they win over the one-char
// form, and there are no longer operators (<<= lexes as << then =).
var (
	oneChar = [256]token.Kind{
		'(': token.LParen, ')': token.RParen, '{': token.LBrace, '}': token.RBrace,
		'[': token.LBracket, ']': token.RBracket, ';': token.Semi, ',': token.Comma,
		'.': token.Dot, '?': token.Question, ':': token.Colon, '=': token.Assign,
		'+': token.Plus, '-': token.Minus, '*': token.Star, '/': token.Slash,
		'%': token.Percent, '!': token.Not, '&': token.BitAnd, '|': token.BitOr,
		'^': token.BitXor, '<': token.Lt, '>': token.Gt,
	}
	doubled = [256]token.Kind{
		'<': token.Shl, '>': token.Shr, '&': token.AndAnd, '|': token.OrOr,
		'+': token.Inc, '-': token.Dec,
	}
	withEq = [256]token.Kind{
		'=': token.Eq, '!': token.Ne, '<': token.Le, '>': token.Ge,
		'+': token.PlusEq, '-': token.MinusEq, '*': token.StarEq,
		'/': token.SlashEq, '%': token.PercentEq,
		'&': token.AndEq, '|': token.OrEq, '^': token.XorEq,
	}
)

// scanOperator scans punctuation and operators. None spans a newline, so
// the column advances by the token's length.
func (lx *Lexer) scanOperator(pos token.Pos) (token.Token, error) {
	c := lx.src[lx.off]
	if lx.off+1 < len(lx.src) {
		var k token.Kind
		switch d := lx.src[lx.off+1]; d {
		case '=':
			k = withEq[c]
		case c:
			k = doubled[c]
		}
		if k != 0 {
			lx.off += 2
			lx.col += 2
			return token.Token{Kind: k, Text: lx.src[lx.off-2 : lx.off], Pos: pos}, nil
		}
	}
	if k := oneChar[c]; k != 0 {
		lx.off++
		lx.col++
		return token.Token{Kind: k, Text: lx.src[lx.off-1 : lx.off], Pos: pos}, nil
	}
	return token.Token{}, lx.errf(pos, "unexpected character %q", string(c))
}

// IsScientific reports whether a floating-point literal spelling uses
// scientific notation — the distinction Table I's second row is about.
func IsScientific(text string) bool {
	return strings.ContainsAny(text, "eE") && !strings.HasPrefix(text, "0x") && !strings.HasPrefix(text, "0X")
}
