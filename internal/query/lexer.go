package query

import (
	"strconv"
	"strings"
	"unicode/utf8"

	"easytracker/internal/core"
)

// token kinds
type tokKind uint8

const (
	tEOF tokKind = iota
	tInt
	tFloat
	tStr
	tIdent // bare identifier, including keywords
	tLParen
	tRParen
	tLBracket
	tRBracket
	tDot
	tColon      // ':'
	tColonColon // '::'
	tPipe       // '|'
	tAndAnd
	tOrOr
	tNot
	tEq
	tNe
	tLt
	tLe
	tGt
	tGe
	tPlus
	tMinus
	tStar
	tSlash
	tPercent
)

type token struct {
	kind tokKind
	pos  int
	s    string  // ident / string payload
	i    int64   // int payload
	f    float64 // float payload
}

func (t token) String() string {
	switch t.kind {
	case tEOF:
		return "end of expression"
	case tInt:
		return strconv.FormatInt(t.i, 10)
	case tFloat:
		return strconv.FormatFloat(t.f, 'g', -1, 64)
	case tStr:
		return strconv.Quote(t.s)
	case tIdent:
		return t.s
	default:
		for lit, k := range opTokens {
			if k == t.kind {
				return lit
			}
		}
		return "?"
	}
}

// opTokens maps operator spellings onto kinds; longest match wins.
var opTokens = map[string]tokKind{
	"(": tLParen, ")": tRParen, "[": tLBracket, "]": tRBracket,
	".": tDot, "::": tColonColon, ":": tColon, "|": tPipe,
	"&&": tAndAnd, "||": tOrOr, "!": tNot,
	"==": tEq, "!=": tNe, "<": tLt, "<=": tLe, ">": tGt, ">=": tGe,
	"+": tPlus, "-": tMinus, "*": tStar, "/": tSlash, "%": tPercent,
}

type lexer struct {
	src string
	pos int
}

// next scans one token.
func (l *lexer) next() (token, error) {
	for l.pos < len(l.src) {
		c := l.src[l.pos]
		if c == ' ' || c == '\t' || c == '\n' || c == '\r' {
			l.pos++
			continue
		}
		break
	}
	if l.pos >= len(l.src) {
		return token{kind: tEOF, pos: l.pos}, nil
	}
	start := l.pos
	c := l.src[l.pos]

	// Numbers.
	if c >= '0' && c <= '9' {
		end := l.pos
		isFloat := false
		for end < len(l.src) && (l.src[end] >= '0' && l.src[end] <= '9') {
			end++
		}
		if end < len(l.src) && l.src[end] == '.' &&
			end+1 < len(l.src) && l.src[end+1] >= '0' && l.src[end+1] <= '9' {
			isFloat = true
			end++
			for end < len(l.src) && (l.src[end] >= '0' && l.src[end] <= '9') {
				end++
			}
		}
		text := l.src[start:end]
		l.pos = end
		if isFloat {
			f, err := strconv.ParseFloat(text, 64)
			if err != nil {
				return token{}, errf(start, "bad number %q", text)
			}
			return token{kind: tFloat, pos: start, f: f}, nil
		}
		i, err := strconv.ParseInt(text, 10, 64)
		if err != nil {
			return token{}, errf(start, "integer %q out of range", text)
		}
		return token{kind: tInt, pos: start, i: i}, nil
	}

	// Strings: double- or single-quoted with backslash escapes.
	if c == '"' || c == '\'' {
		quote := c
		var sb strings.Builder
		i := l.pos + 1
		for i < len(l.src) {
			ch := l.src[i]
			if ch == quote {
				l.pos = i + 1
				return token{kind: tStr, pos: start, s: sb.String()}, nil
			}
			if ch == '\\' {
				i++
				if i >= len(l.src) {
					break
				}
				switch l.src[i] {
				case 'n':
					sb.WriteByte('\n')
				case 't':
					sb.WriteByte('\t')
				case 'r':
					sb.WriteByte('\r')
				case '\\', '"', '\'':
					sb.WriteByte(l.src[i])
				default:
					return token{}, errf(i, "unknown escape \\%c", l.src[i])
				}
				i++
				continue
			}
			sb.WriteByte(ch)
			i++
		}
		return token{}, errf(start, "unterminated string")
	}

	// Identifiers.
	if r, _ := utf8.DecodeRuneInString(l.src[l.pos:]); core.IsIdentStart(r) {
		end := l.pos
		for end < len(l.src) {
			r, sz := utf8.DecodeRuneInString(l.src[end:])
			if !core.IsIdentPart(r) {
				break
			}
			end += sz
		}
		l.pos = end
		return token{kind: tIdent, pos: start, s: l.src[start:end]}, nil
	}

	// Operators, longest spelling first.
	if l.pos+1 < len(l.src) {
		if k, ok := opTokens[l.src[l.pos:l.pos+2]]; ok {
			l.pos += 2
			return token{kind: k, pos: start}, nil
		}
	}
	if k, ok := opTokens[l.src[l.pos:l.pos+1]]; ok {
		// A lone '&' or '|' would alias the first byte of '&&'/'||';
		// '|' is a real token (aggregation pipe), '&' is not an operator
		// at all, so only the map decides.
		l.pos++
		return token{kind: k, pos: start}, nil
	}
	r, _ := utf8.DecodeRuneInString(l.src[l.pos:])
	return token{}, errf(l.pos, "unexpected character %q", r)
}

// lexAll tokenizes the whole source.
func lexAll(src string) ([]token, error) {
	l := &lexer{src: src}
	var toks []token
	for {
		t, err := l.next()
		if err != nil {
			return nil, err
		}
		toks = append(toks, t)
		if t.kind == tEOF {
			return toks, nil
		}
	}
}
