package minipy

import (
	"fmt"
	"strconv"
	"strings"

	"easytracker/internal/core"
)

// Lexer turns MiniPy source into a token stream with Python-style
// INDENT/DEDENT bracketing. Implicit line joining inside (), [] and {} is
// supported; tabs advance the indent column to the next multiple of 8.
type Lexer struct {
	file     string
	src      []rune
	pos      int
	line     int
	col      int
	indent   []int // indentation stack, starts [0]
	pend     []Token
	parens   int     // depth of open brackets for implicit joining
	atBOL    bool    // at beginning of logical line
	eofOK    bool    // emitted final NEWLINE/DEDENTs
	lastKind TokKind // kind of the previously returned token
}

// NewLexer builds a lexer over src; file is used in error positions.
func NewLexer(file, src string) *Lexer {
	return &Lexer{
		file:   file,
		src:    []rune(src),
		line:   1,
		col:    1,
		indent: []int{0},
		atBOL:  true,
	}
}

func (l *Lexer) errf(line, col int, format string, args ...any) *SyntaxError {
	return &SyntaxError{File: l.file, Line: line, Col: col, Msg: fmt.Sprintf(format, args...)}
}

func (l *Lexer) peekRune() rune {
	if l.pos >= len(l.src) {
		return 0
	}
	return l.src[l.pos]
}

func (l *Lexer) peekRuneAt(off int) rune {
	if l.pos+off >= len(l.src) {
		return 0
	}
	return l.src[l.pos+off]
}

func (l *Lexer) advance() rune {
	r := l.src[l.pos]
	l.pos++
	if r == '\n' {
		l.line++
		l.col = 1
	} else {
		l.col++
	}
	return r
}

// Next returns the next token.
func (l *Lexer) Next() (Token, error) {
	tok, err := l.next()
	if err == nil {
		l.lastKind = tok.Kind
	}
	return tok, err
}

func (l *Lexer) next() (Token, error) {
	if len(l.pend) > 0 {
		t := l.pend[0]
		l.pend = l.pend[1:]
		return t, nil
	}
	if l.atBOL && l.parens == 0 {
		if toks, err := l.handleIndent(); err != nil {
			return Token{}, err
		} else if len(toks) > 0 {
			l.pend = append(l.pend, toks[1:]...)
			return toks[0], nil
		}
	}
	return l.scanToken()
}

// handleIndent consumes leading whitespace/comments at the beginning of a
// line and returns INDENT/DEDENT tokens as needed. Blank and comment-only
// lines produce no tokens.
func (l *Lexer) handleIndent() ([]Token, error) {
	for {
		startLine := l.line
		width := 0
		for {
			switch l.peekRune() {
			case ' ':
				width++
				l.advance()
				continue
			case '\t':
				width = (width/8 + 1) * 8
				l.advance()
				continue
			}
			break
		}
		r := l.peekRune()
		if r == '#' {
			for l.peekRune() != '\n' && l.peekRune() != 0 {
				l.advance()
			}
		}
		if l.peekRune() == '\n' {
			l.advance()
			continue // blank line: no indent processing
		}
		if l.peekRune() == 0 {
			// EOF: emit pending dedents in scanToken.
			l.atBOL = false
			return nil, nil
		}
		l.atBOL = false
		cur := l.indent[len(l.indent)-1]
		switch {
		case width > cur:
			l.indent = append(l.indent, width)
			return []Token{{Kind: Indent, Line: startLine, Col: 1}}, nil
		case width < cur:
			var toks []Token
			for len(l.indent) > 1 && l.indent[len(l.indent)-1] > width {
				l.indent = l.indent[:len(l.indent)-1]
				toks = append(toks, Token{Kind: Dedent, Line: startLine, Col: 1})
			}
			if l.indent[len(l.indent)-1] != width {
				return nil, l.errf(startLine, 1, "unindent does not match any outer indentation level")
			}
			return toks, nil
		default:
			return nil, nil
		}
	}
}

func (l *Lexer) scanToken() (Token, error) {
	for {
		r := l.peekRune()
		switch {
		case r == 0:
			if !l.eofOK {
				// Synthesize a final NEWLINE (unless the source
				// already ended with one), then DEDENTs.
				l.eofOK = true
				var toks []Token
				if l.lastKind != Newline && l.lastKind != EOF && l.lastKind != 0 {
					toks = append(toks, Token{Kind: Newline, Line: l.line, Col: l.col})
				}
				for len(l.indent) > 1 {
					l.indent = l.indent[:len(l.indent)-1]
					toks = append(toks, Token{Kind: Dedent, Line: l.line, Col: l.col})
				}
				toks = append(toks, Token{Kind: EOF, Line: l.line, Col: l.col})
				l.pend = append(l.pend, toks[1:]...)
				return toks[0], nil
			}
			return Token{Kind: EOF, Line: l.line, Col: l.col}, nil
		case r == ' ' || r == '\t' || r == '\r':
			l.advance()
			continue
		case r == '#':
			for l.peekRune() != '\n' && l.peekRune() != 0 {
				l.advance()
			}
			continue
		case r == '\\' && l.peekRuneAt(1) == '\n':
			l.advance()
			l.advance()
			continue
		case r == '\n':
			line, col := l.line, l.col
			l.advance()
			if l.parens > 0 {
				continue // implicit joining inside brackets
			}
			l.atBOL = true
			return Token{Kind: Newline, Line: line, Col: col}, nil
		}
		break
	}

	line, col := l.line, l.col
	r := l.peekRune()
	switch {
	case core.IsIdentStart(r):
		return l.scanName(line, col), nil
	case r >= '0' && r <= '9':
		return l.scanNumber(line, col)
	case r == '.' && isDigit(l.peekRuneAt(1)):
		return l.scanNumber(line, col)
	case r == '"' || r == '\'':
		return l.scanString(line, col)
	}
	return l.scanOperator(line, col)
}

func isDigit(r rune) bool { return r >= '0' && r <= '9' }

func (l *Lexer) scanName(line, col int) Token {
	var b strings.Builder
	for core.IsIdentPart(l.peekRune()) {
		b.WriteRune(l.advance())
	}
	text := b.String()
	if kw, ok := keywords[text]; ok {
		return Token{Kind: kw, Text: text, Line: line, Col: col}
	}
	return Token{Kind: Name, Text: text, Line: line, Col: col}
}

func (l *Lexer) scanNumber(line, col int) (Token, error) {
	var b strings.Builder
	isFloat := false
	if l.peekRune() == '0' && (l.peekRuneAt(1) == 'x' || l.peekRuneAt(1) == 'X') {
		b.WriteRune(l.advance())
		b.WriteRune(l.advance())
		for isHex(l.peekRune()) {
			b.WriteRune(l.advance())
		}
		v, err := strconv.ParseInt(b.String()[2:], 16, 64)
		if err != nil {
			return Token{}, l.errf(line, col, "bad hex literal %q", b.String())
		}
		return Token{Kind: IntLit, Text: b.String(), Int: v, Line: line, Col: col}, nil
	}
	for isDigit(l.peekRune()) {
		b.WriteRune(l.advance())
	}
	if l.peekRune() == '.' && l.peekRuneAt(1) != '.' {
		isFloat = true
		b.WriteRune(l.advance())
		for isDigit(l.peekRune()) {
			b.WriteRune(l.advance())
		}
	}
	if r := l.peekRune(); r == 'e' || r == 'E' {
		nxt := l.peekRuneAt(1)
		if isDigit(nxt) || ((nxt == '+' || nxt == '-') && isDigit(l.peekRuneAt(2))) {
			isFloat = true
			b.WriteRune(l.advance())
			if l.peekRune() == '+' || l.peekRune() == '-' {
				b.WriteRune(l.advance())
			}
			for isDigit(l.peekRune()) {
				b.WriteRune(l.advance())
			}
		}
	}
	text := b.String()
	if isFloat {
		v, err := strconv.ParseFloat(text, 64)
		if err != nil {
			return Token{}, l.errf(line, col, "bad float literal %q", text)
		}
		return Token{Kind: FloatLit, Text: text, Float: v, Line: line, Col: col}, nil
	}
	v, err := strconv.ParseInt(text, 10, 64)
	if err != nil {
		return Token{}, l.errf(line, col, "bad int literal %q", text)
	}
	return Token{Kind: IntLit, Text: text, Int: v, Line: line, Col: col}, nil
}

func isHex(r rune) bool {
	return isDigit(r) || (r >= 'a' && r <= 'f') || (r >= 'A' && r <= 'F')
}

func (l *Lexer) scanString(line, col int) (Token, error) {
	quote := l.advance()
	var b strings.Builder
	for {
		r := l.peekRune()
		switch r {
		case 0, '\n':
			return Token{}, l.errf(line, col, "unterminated string literal")
		case quote:
			l.advance()
			return Token{Kind: StrLit, Text: b.String(), Line: line, Col: col}, nil
		case '\\':
			l.advance()
			// The source may end right after the backslash; advancing
			// unchecked would index past the buffer.
			if l.peekRune() == 0 {
				return Token{}, l.errf(line, col, "unterminated string literal")
			}
			esc := l.advance()
			switch esc {
			case 'n':
				b.WriteRune('\n')
			case 't':
				b.WriteRune('\t')
			case 'r':
				b.WriteRune('\r')
			case '0':
				b.WriteRune(0)
			case '\\', '\'', '"':
				b.WriteRune(esc)
			case 'x':
				h1, h2 := l.peekRune(), l.peekRuneAt(1)
				if !isHex(h1) || !isHex(h2) {
					return Token{}, l.errf(l.line, l.col, "bad \\x escape")
				}
				l.advance()
				l.advance()
				v, _ := strconv.ParseInt(string([]rune{h1, h2}), 16, 32)
				b.WriteRune(rune(v))
			default:
				return Token{}, l.errf(l.line, l.col, "unknown escape \\%c", esc)
			}
		default:
			b.WriteRune(l.advance())
		}
	}
}

func (l *Lexer) scanOperator(line, col int) (Token, error) {
	mk := func(k TokKind, n int) (Token, error) {
		for i := 0; i < n; i++ {
			l.advance()
		}
		return Token{Kind: k, Line: line, Col: col}, nil
	}
	r := l.peekRune()
	r2 := l.peekRuneAt(1)
	switch r {
	case '+':
		if r2 == '=' {
			return mk(PlusEq, 2)
		}
		return mk(Plus, 1)
	case '-':
		if r2 == '=' {
			return mk(MinusEq, 2)
		}
		return mk(Minus, 1)
	case '*':
		if r2 == '*' {
			if l.peekRuneAt(2) == '=' {
				return mk(StarStarEq, 3)
			}
			return mk(StarStar, 2)
		}
		if r2 == '=' {
			return mk(StarEq, 2)
		}
		return mk(Star, 1)
	case '/':
		if r2 == '/' {
			if l.peekRuneAt(2) == '=' {
				return mk(DblSlashEq, 3)
			}
			return mk(DblSlash, 2)
		}
		if r2 == '=' {
			return mk(SlashEq, 2)
		}
		return mk(Slash, 1)
	case '%':
		if r2 == '=' {
			return mk(PercentEq, 2)
		}
		return mk(Percent, 1)
	case '=':
		if r2 == '=' {
			return mk(Eq, 2)
		}
		return mk(Assign, 1)
	case '!':
		if r2 == '=' {
			return mk(Ne, 2)
		}
	case '<':
		if r2 == '=' {
			return mk(Le, 2)
		}
		return mk(Lt, 1)
	case '>':
		if r2 == '=' {
			return mk(Ge, 2)
		}
		return mk(Gt, 1)
	case '(':
		l.parens++
		return mk(Lparen, 1)
	case ')':
		if l.parens > 0 {
			l.parens--
		}
		return mk(Rparen, 1)
	case '[':
		l.parens++
		return mk(Lbracket, 1)
	case ']':
		if l.parens > 0 {
			l.parens--
		}
		return mk(Rbracket, 1)
	case '{':
		l.parens++
		return mk(Lbrace, 1)
	case '}':
		if l.parens > 0 {
			l.parens--
		}
		return mk(Rbrace, 1)
	case ',':
		return mk(Comma, 1)
	case ':':
		return mk(Colon, 1)
	case '.':
		return mk(Dot, 1)
	}
	return Token{}, l.errf(line, col, "unexpected character %q", string(r))
}

// Tokenize lexes the whole source, returning all tokens through EOF.
func Tokenize(file, src string) ([]Token, error) {
	l := NewLexer(file, src)
	toks := make([]Token, 0, len(src)/3+8)
	for {
		t, err := l.Next()
		if err != nil {
			return nil, err
		}
		toks = append(toks, t)
		if t.Kind == EOF {
			return toks, nil
		}
	}
}
