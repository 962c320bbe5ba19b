package query

// Recursive-descent parser for the expression grammar (DESIGN.md §14):
//
//	expr    := or
//	or      := and ("||" and)*
//	and     := not ("&&" not)*
//	not     := "!" not | cmp
//	cmp     := sum (("=="|"!="|"<"|"<="|">"|">=") sum)?
//	sum     := term (("+"|"-") term)*
//	term    := unary (("*"|"/"|"%") unary)*
//	unary   := "-" unary | primary
//	primary := INT | FLOAT | STRING | "true" | "false" | "none"
//	         | "(" expr ")"
//	         | "exists" "(" varref ")" | "len" "(" expr ")"
//	         | varref | field
//	varref  := NAME | "::" NAME | NAME ":" NAME
//	         | "globals" "." NAME
//	         | "frames" "[" INT "]" "." "locals" "." NAME
//	field   := "line" | "depth" | "event" | "function" | "file"
//
// Field names shadow inferior variables of the same name; a shadowed
// variable remains reachable through an explicit scope
// (frames[0].locals.line) or a function-scoped reference (f:line).

// AST node kinds.
type node interface {
	pos() int
}

type litNode struct {
	at  int
	val Scalar
}

func (n *litNode) pos() int { return n.at }

// fieldNode is a typed event field: line, depth, event, function, file.
type fieldNode struct {
	at   int
	name string
}

func (n *fieldNode) pos() int { return n.at }

// varNode is an inferior-variable reference. Scope is a core.ParseVarRef
// scope: "" = current scope chain, "::" = global, anything else = innermost
// live activation of that function.
type varNode struct {
	at    int
	scope string
	name  string
}

func (n *varNode) pos() int { return n.at }

// frameVarNode is frames[idx].locals.name.
type frameVarNode struct {
	at   int
	idx  int
	name string
}

func (n *frameVarNode) pos() int { return n.at }

// callNode is one of the two builtins, exists(varref) or len(expr).
type callNode struct {
	at  int
	fn  string
	arg node
}

func (n *callNode) pos() int { return n.at }

type unaryNode struct {
	at int
	op tokKind // tNot or tMinus
	x  node
}

func (n *unaryNode) pos() int { return n.at }

type binNode struct {
	at   int
	op   tokKind
	x, y node
}

func (n *binNode) pos() int { return n.at }

// fieldNames lists the typed event fields and their static types.
var fieldNames = map[string]valType{
	"line":     tyInt,
	"depth":    tyInt,
	"event":    tyStr,
	"function": tyStr,
	"file":     tyStr,
}

type parser struct {
	toks []token
	i    int
}

func (p *parser) cur() token { return p.toks[p.i] }
func (p *parser) advance()   { p.i++ }
func (p *parser) at(k tokKind) bool {
	return p.toks[p.i].kind == k
}

func (p *parser) expect(k tokKind, what string) (token, error) {
	t := p.cur()
	if t.kind != k {
		return token{}, errf(t.pos, "expected %s, found %s", what, t)
	}
	p.advance()
	return t, nil
}

// parseExpr parses a full expression from toks[i:]. The caller checks the
// terminator (EOF for Compile, EOF-or-'|' for ParseQuery).
func (p *parser) parseExpr() (node, error) { return p.parseOr() }

func (p *parser) parseOr() (node, error) {
	x, err := p.parseAnd()
	if err != nil {
		return nil, err
	}
	for p.at(tOrOr) {
		at := p.cur().pos
		p.advance()
		y, err := p.parseAnd()
		if err != nil {
			return nil, err
		}
		x = &binNode{at: at, op: tOrOr, x: x, y: y}
	}
	return x, nil
}

func (p *parser) parseAnd() (node, error) {
	x, err := p.parseNot()
	if err != nil {
		return nil, err
	}
	for p.at(tAndAnd) {
		at := p.cur().pos
		p.advance()
		y, err := p.parseNot()
		if err != nil {
			return nil, err
		}
		x = &binNode{at: at, op: tAndAnd, x: x, y: y}
	}
	return x, nil
}

func (p *parser) parseNot() (node, error) {
	if p.at(tNot) {
		at := p.cur().pos
		p.advance()
		x, err := p.parseNot()
		if err != nil {
			return nil, err
		}
		return &unaryNode{at: at, op: tNot, x: x}, nil
	}
	return p.parseCmp()
}

func (p *parser) parseCmp() (node, error) {
	x, err := p.parseSum()
	if err != nil {
		return nil, err
	}
	switch k := p.cur().kind; k {
	case tEq, tNe, tLt, tLe, tGt, tGe:
		at := p.cur().pos
		p.advance()
		y, err := p.parseSum()
		if err != nil {
			return nil, err
		}
		// Comparisons do not chain: a < b < c is a syntax error, caught
		// by the caller seeing a stray comparison token.
		return &binNode{at: at, op: k, x: x, y: y}, nil
	}
	return x, nil
}

func (p *parser) parseSum() (node, error) {
	x, err := p.parseTerm()
	if err != nil {
		return nil, err
	}
	for p.at(tPlus) || p.at(tMinus) {
		op := p.cur().kind
		at := p.cur().pos
		p.advance()
		y, err := p.parseTerm()
		if err != nil {
			return nil, err
		}
		x = &binNode{at: at, op: op, x: x, y: y}
	}
	return x, nil
}

func (p *parser) parseTerm() (node, error) {
	x, err := p.parseUnary()
	if err != nil {
		return nil, err
	}
	for p.at(tStar) || p.at(tSlash) || p.at(tPercent) {
		op := p.cur().kind
		at := p.cur().pos
		p.advance()
		y, err := p.parseUnary()
		if err != nil {
			return nil, err
		}
		x = &binNode{at: at, op: op, x: x, y: y}
	}
	return x, nil
}

func (p *parser) parseUnary() (node, error) {
	if p.at(tMinus) {
		at := p.cur().pos
		p.advance()
		x, err := p.parseUnary()
		if err != nil {
			return nil, err
		}
		return &unaryNode{at: at, op: tMinus, x: x}, nil
	}
	return p.parsePrimary()
}

func (p *parser) parsePrimary() (node, error) {
	t := p.cur()
	switch t.kind {
	case tInt:
		p.advance()
		return &litNode{at: t.pos, val: IntScalar(t.i)}, nil
	case tFloat:
		p.advance()
		return &litNode{at: t.pos, val: FloatScalar(t.f)}, nil
	case tStr:
		p.advance()
		return &litNode{at: t.pos, val: StrScalar(t.s)}, nil
	case tLParen:
		p.advance()
		x, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		if _, err := p.expect(tRParen, `")"`); err != nil {
			return nil, err
		}
		return x, nil
	case tColonColon:
		p.advance()
		name, err := p.expect(tIdent, "global variable name after ::")
		if err != nil {
			return nil, err
		}
		return &varNode{at: t.pos, scope: "::", name: name.s}, nil
	case tIdent:
		return p.parseIdent()
	}
	return nil, errf(t.pos, "expected a value, found %s", t)
}

// parseIdent disambiguates everything that starts with a name: literals,
// builtins, frames[..], globals.x, scoped and bare variables, typed fields.
func (p *parser) parseIdent() (node, error) {
	t := p.cur()
	p.advance()
	switch t.s {
	case "true":
		return &litNode{at: t.pos, val: BoolScalar(true)}, nil
	case "false":
		return &litNode{at: t.pos, val: BoolScalar(false)}, nil
	case "none", "None":
		return &litNode{at: t.pos, val: Scalar{Kind: KNone}}, nil
	case "exists", "len":
		if _, err := p.expect(tLParen, `"(" after `+t.s); err != nil {
			return nil, err
		}
		arg, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		if _, err := p.expect(tRParen, `")"`); err != nil {
			return nil, err
		}
		if t.s == "exists" {
			switch arg.(type) {
			case *varNode, *frameVarNode:
			default:
				return nil, errf(t.pos, "exists() takes a variable reference")
			}
		}
		return &callNode{at: t.pos, fn: t.s, arg: arg}, nil
	case "frames":
		if p.at(tLBracket) {
			p.advance()
			idx, err := p.expect(tInt, "frame index")
			if err != nil {
				return nil, err
			}
			if idx.i < 0 {
				return nil, errf(idx.pos, "frame index must be >= 0")
			}
			if _, err := p.expect(tRBracket, `"]"`); err != nil {
				return nil, err
			}
			if _, err := p.expect(tDot, `"." after frames[..]`); err != nil {
				return nil, err
			}
			sel, err := p.expect(tIdent, `"locals"`)
			if err != nil {
				return nil, err
			}
			if sel.s != "locals" {
				return nil, errf(sel.pos, `frames[..] supports only ".locals", found %q`, sel.s)
			}
			if _, err := p.expect(tDot, `"." after locals`); err != nil {
				return nil, err
			}
			name, err := p.expect(tIdent, "variable name")
			if err != nil {
				return nil, err
			}
			return &frameVarNode{at: t.pos, idx: int(idx.i), name: name.s}, nil
		}
	case "globals":
		if p.at(tDot) {
			p.advance()
			name, err := p.expect(tIdent, "variable name after globals.")
			if err != nil {
				return nil, err
			}
			return &varNode{at: t.pos, scope: "::", name: name.s}, nil
		}
	}
	// NAME ":" NAME — a function-scoped variable. Only when the colon is
	// immediately followed by a name; a stray colon is a syntax error.
	if p.at(tColon) {
		p.advance()
		name, err := p.expect(tIdent, "variable name after scope:")
		if err != nil {
			return nil, err
		}
		return &varNode{at: t.pos, scope: t.s, name: name.s}, nil
	}
	if _, ok := fieldNames[t.s]; ok {
		return &fieldNode{at: t.pos, name: t.s}, nil
	}
	return &varNode{at: t.pos, scope: "", name: t.s}, nil
}
