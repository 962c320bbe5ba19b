// Package minipy implements MiniPy, a small dynamically-typed language with
// Python syntax and semantics, built as the interpreted-inferior substrate of
// the EasyTracker reproduction. Its bytecode interpreter exposes a
// settrace-style hook (call/line/return events) on which the MiniPy tracker
// implements the EasyTracker control interface, exactly as the paper's Python
// tracker builds on sys.settrace (Section II-C2).
//
// The language covers the teaching programs of the paper: integers, floats,
// booleans, strings, None, lists, tuples, dicts, functions with recursion,
// simple classes, and indentation-structured control flow.
package minipy

import "fmt"

// TokKind enumerates lexical token kinds.
type TokKind int

// Token kinds. Keyword tokens are distinguished from NAME during lexing.
const (
	EOF TokKind = iota
	Newline
	Indent
	Dedent
	Name
	IntLit
	FloatLit
	StrLit

	// Keywords
	KwDef
	KwReturn
	KwIf
	KwElif
	KwElse
	KwWhile
	KwFor
	KwIn
	KwBreak
	KwContinue
	KwPass
	KwAnd
	KwOr
	KwNot
	KwTrue
	KwFalse
	KwNone
	KwGlobal
	KwClass
	KwDel

	// Operators and delimiters
	Plus       // +
	Minus      // -
	Star       // *
	StarStar   // **
	Slash      // /
	DblSlash   // //
	Percent    // %
	Lparen     // (
	Rparen     // )
	Lbracket   // [
	Rbracket   // ]
	Lbrace     // {
	Rbrace     // }
	Comma      // ,
	Colon      // :
	Dot        // .
	Assign     // =
	PlusEq     // +=
	MinusEq    // -=
	StarEq     // *=
	SlashEq    // /=
	PercentEq  // %=
	DblSlashEq // //=
	StarStarEq // **=
	Eq         // ==
	Ne         // !=
	Lt         // <
	Le         // <=
	Gt         // >
	Ge         // >=
)

var tokNames = map[TokKind]string{
	EOF: "EOF", Newline: "NEWLINE", Indent: "INDENT", Dedent: "DEDENT",
	Name: "NAME", IntLit: "INT", FloatLit: "FLOAT", StrLit: "STRING",
	KwDef: "def", KwReturn: "return", KwIf: "if", KwElif: "elif",
	KwElse: "else", KwWhile: "while", KwFor: "for", KwIn: "in",
	KwBreak: "break", KwContinue: "continue", KwPass: "pass",
	KwAnd: "and", KwOr: "or", KwNot: "not", KwTrue: "True",
	KwFalse: "False", KwNone: "None", KwGlobal: "global", KwClass: "class",
	KwDel: "del",
	Plus:  "+", Minus: "-", Star: "*", StarStar: "**", Slash: "/",
	DblSlash: "//", Percent: "%", Lparen: "(", Rparen: ")",
	Lbracket: "[", Rbracket: "]", Lbrace: "{", Rbrace: "}",
	Comma: ",", Colon: ":", Dot: ".", Assign: "=",
	PlusEq: "+=", MinusEq: "-=", StarEq: "*=", SlashEq: "/=", PercentEq: "%=",
	DblSlashEq: "//=", StarStarEq: "**=",
	Eq: "==", Ne: "!=", Lt: "<", Le: "<=", Gt: ">", Ge: ">=",
}

// String returns the display name of the token kind.
func (k TokKind) String() string {
	if n, ok := tokNames[k]; ok {
		return n
	}
	return fmt.Sprintf("TokKind(%d)", int(k))
}

var keywords = map[string]TokKind{
	"def": KwDef, "return": KwReturn, "if": KwIf, "elif": KwElif,
	"else": KwElse, "while": KwWhile, "for": KwFor, "in": KwIn,
	"break": KwBreak, "continue": KwContinue, "pass": KwPass,
	"and": KwAnd, "or": KwOr, "not": KwNot, "True": KwTrue,
	"False": KwFalse, "None": KwNone, "global": KwGlobal, "class": KwClass,
	"del": KwDel,
}

// Token is one lexical token with its source position.
type Token struct {
	Kind TokKind
	// Text is the raw text for NAME and literal tokens.
	Text string
	// Int and Float carry decoded numeric payloads.
	Int   int64
	Float float64
	// Line and Col are 1-based source coordinates.
	Line, Col int
}

// String renders the token for diagnostics.
func (t Token) String() string {
	switch t.Kind {
	case Name, IntLit, FloatLit:
		return fmt.Sprintf("%s(%s)", t.Kind, t.Text)
	case StrLit:
		return fmt.Sprintf("STRING(%q)", t.Text)
	default:
		return t.Kind.String()
	}
}

// SyntaxError is a lexing or parsing failure with position information.
type SyntaxError struct {
	File string
	Line int
	Col  int
	Msg  string
}

// Error implements error.
func (e *SyntaxError) Error() string {
	return fmt.Sprintf("%s:%d:%d: %s", e.File, e.Line, e.Col, e.Msg)
}
