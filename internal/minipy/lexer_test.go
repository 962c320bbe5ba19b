package minipy

import (
	"strings"
	"testing"
)

// kinds extracts the token kinds of a source.
func kinds(t *testing.T, src string) []TokKind {
	t.Helper()
	toks, err := Tokenize("t.py", src)
	if err != nil {
		t.Fatalf("tokenize: %v", err)
	}
	out := make([]TokKind, len(toks))
	for i, tok := range toks {
		out[i] = tok.Kind
	}
	return out
}

func kindsEqual(a, b []TokKind) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func TestTokenizeSimple(t *testing.T) {
	got := kinds(t, "x = 1 + 2\n")
	want := []TokKind{Name, Assign, IntLit, Plus, IntLit, Newline, EOF}
	if !kindsEqual(got, want) {
		t.Errorf("kinds = %v, want %v", got, want)
	}
}

func TestIndentDedentStructure(t *testing.T) {
	src := "if a:\n    x = 1\n    if b:\n        y = 2\nz = 3\n"
	got := kinds(t, src)
	want := []TokKind{
		KwIf, Name, Colon, Newline,
		Indent, Name, Assign, IntLit, Newline,
		KwIf, Name, Colon, Newline,
		Indent, Name, Assign, IntLit, Newline,
		Dedent, Dedent,
		Name, Assign, IntLit, Newline,
		EOF,
	}
	if !kindsEqual(got, want) {
		t.Errorf("kinds = %v\nwant    %v", got, want)
	}
}

func TestBlankAndCommentLinesNoIndent(t *testing.T) {
	src := "if a:\n    x = 1\n\n    # comment only\n    y = 2\n"
	got := kinds(t, src)
	// No INDENT/DEDENT around the blank/comment lines.
	want := []TokKind{
		KwIf, Name, Colon, Newline,
		Indent, Name, Assign, IntLit, Newline,
		Name, Assign, IntLit, Newline,
		Dedent, EOF,
	}
	if !kindsEqual(got, want) {
		t.Errorf("kinds = %v\nwant    %v", got, want)
	}
}

func TestTabIndentation(t *testing.T) {
	// A tab advances to the next multiple of 8 and must match itself.
	src := "if a:\n\tx = 1\n\ty = 2\n"
	toks, err := Tokenize("t.py", src)
	if err != nil {
		t.Fatalf("tabs rejected: %v", err)
	}
	indents := 0
	for _, tok := range toks {
		if tok.Kind == Indent {
			indents++
		}
	}
	if indents != 1 {
		t.Errorf("indents = %d", indents)
	}
}

func TestEOFClosesAllIndents(t *testing.T) {
	got := kinds(t, "if a:\n    if b:\n        x = 1")
	dedents := 0
	for _, k := range got {
		if k == Dedent {
			dedents++
		}
	}
	if dedents != 2 {
		t.Errorf("dedents at EOF = %d, want 2", dedents)
	}
}

func TestImplicitJoinNoNewline(t *testing.T) {
	got := kinds(t, "x = [1,\n     2]\n")
	for i, k := range got[:len(got)-2] {
		if k == Newline && i < 6 {
			t.Errorf("newline emitted inside brackets: %v", got)
			break
		}
	}
}

func TestBackslashContinuation(t *testing.T) {
	got := kinds(t, "x = 1 + \\\n    2\n")
	want := []TokKind{Name, Assign, IntLit, Plus, IntLit, Newline, EOF}
	if !kindsEqual(got, want) {
		t.Errorf("kinds = %v", got)
	}
}

func TestNumberTokens(t *testing.T) {
	toks, err := Tokenize("t.py", "a = 42 0x1F 3.5 1e3 2.5e-1\n")
	if err != nil {
		t.Fatal(err)
	}
	var ints []int64
	var floats []float64
	for _, tok := range toks {
		switch tok.Kind {
		case IntLit:
			ints = append(ints, tok.Int)
		case FloatLit:
			floats = append(floats, tok.Float)
		}
	}
	if len(ints) != 2 || ints[0] != 42 || ints[1] != 31 {
		t.Errorf("ints = %v", ints)
	}
	if len(floats) != 3 || floats[0] != 3.5 || floats[1] != 1000 || floats[2] != 0.25 {
		t.Errorf("floats = %v", floats)
	}
}

func TestStringTokens(t *testing.T) {
	toks, err := Tokenize("t.py", `s = "a\tb" + 'c\'d' + "\x41"`+"\n")
	if err != nil {
		t.Fatal(err)
	}
	var strs []string
	for _, tok := range toks {
		if tok.Kind == StrLit {
			strs = append(strs, tok.Text)
		}
	}
	if len(strs) != 3 || strs[0] != "a\tb" || strs[1] != "c'd" || strs[2] != "A" {
		t.Errorf("strings = %q", strs)
	}
}

func TestKeywordVsName(t *testing.T) {
	toks, err := Tokenize("t.py", "iffy = None\n")
	if err != nil {
		t.Fatal(err)
	}
	if toks[0].Kind != Name || toks[0].Text != "iffy" {
		t.Errorf("iffy lexed as %v", toks[0])
	}
	if toks[2].Kind != KwNone {
		t.Errorf("None lexed as %v", toks[2])
	}
}

func TestOperatorsThreeChar(t *testing.T) {
	got := kinds(t, "a //= 2\nb **= 2\n")
	want := []TokKind{Name, DblSlashEq, IntLit, Newline, Name, StarStarEq, IntLit, Newline, EOF}
	if !kindsEqual(got, want) {
		t.Errorf("kinds = %v", got)
	}
}

func TestLexErrors(t *testing.T) {
	cases := []string{
		"x = 'unterminated\n",
		"x = \"bad \\q escape\"\n",
		"x = 0x\n",
		"if a:\n        x = 1\n    y = 2\n", // inconsistent dedent
		"x ? 2\n",
	}
	for _, src := range cases {
		if _, err := Tokenize("e.py", src); err == nil {
			t.Errorf("Tokenize(%q) succeeded", src)
		} else if !strings.Contains(err.Error(), "e.py:") {
			t.Errorf("error lacks position: %v", err)
		}
	}
}

func TestTokenPositions(t *testing.T) {
	toks, err := Tokenize("t.py", "x = 1\ny = 2\n")
	if err != nil {
		t.Fatal(err)
	}
	if toks[0].Line != 1 || toks[0].Col != 1 {
		t.Errorf("first token at %d:%d", toks[0].Line, toks[0].Col)
	}
	// Find y.
	for _, tok := range toks {
		if tok.Kind == Name && tok.Text == "y" {
			if tok.Line != 2 || tok.Col != 1 {
				t.Errorf("y at %d:%d", tok.Line, tok.Col)
			}
		}
	}
}

func TestTokenStrings(t *testing.T) {
	toks, _ := Tokenize("t.py", "x = 'hi'\n")
	if s := toks[0].String(); s != "NAME(x)" {
		t.Errorf("token string = %q", s)
	}
	if s := toks[1].String(); s != "=" {
		t.Errorf("token string = %q", s)
	}
	if s := toks[2].String(); s != `STRING("hi")` {
		t.Errorf("token string = %q", s)
	}
}

// TestNamesAreIdentifiers: a MiniPy name is an underscore or a Unicode
// letter, then letters, digits and underscores (core.IsIdentStart and
// IsIdentPart, the rule watch IDs and conditions read names with), so a
// name any probe can refer to is exactly a name a program can bind. As in
// Python 3, a superscript or a math symbol is no name character.
func TestNamesAreIdentifiers(t *testing.T) {
	for _, name := range []string{"π", "année", "x٣", "_x1", "函数"} {
		toks, err := Tokenize("t.py", name+" = 0\n")
		if err != nil {
			t.Errorf("%q: %v", name, err)
			continue
		}
		if toks[0].Kind != Name || toks[0].Text != name {
			t.Errorf("%q lexed as %v %q", name, toks[0].Kind, toks[0].Text)
		}
	}
	for _, src := range []string{"x² = 0\n", "∑ = 0\n", "٣x = 0\n"} {
		if _, err := Parse("t.py", src); err == nil {
			t.Errorf("%q parsed; want a syntax error", src)
		}
	}
}
