package minipy

// walker is the tree-walking MiniPy interpreter: the reference the bytecode
// VM is checked against by the engines differential suite,
// FuzzMiniPyDifferential, the reach tests and the session converter oracle.
// It runs the parsed statements directly on an Interp, sharing the VM's
// object model, operators, builtins, write barriers and trace hook, so any
// divergence between the two is a miscompile. The side tables hold what the
// walker alone needs.
type walker struct {
	*Interp
	retval *Object // value being returned, for EventReturn
	// fns maps each Function the walker created to its def's body and the
	// names the body declares global.
	fns map[*Function]walkerFunc
}

type walkerFunc struct {
	body    []Stmt
	globals map[string]bool
}

// control-flow signals inside statement execution
type ctrlSignal int

const (
	ctrlNone ctrlSignal = iota
	ctrlReturn
	ctrlBreak
	ctrlContinue
)

// runWalker executes in's module on the tree walker; it is Run with the
// walker in place of the VM.
func runWalker(in *Interp) (int, error) {
	w := &walker{Interp: in, fns: map[*Function]walkerFunc{}}
	mod := in.startModule()
	return in.exitStatus(mod, w.execBody(mod, in.module.Body))
}

// newFunc builds a fresh function object each time def s runs.
func (w *walker) newFunc(s *FuncDef) *Object {
	fn := &Function{Name: s.Name, Params: s.Params, DefLine: s.Pos(), EndLine: s.EndLine}
	w.fns[fn] = walkerFunc{body: s.Body, globals: collectGlobals(s.Body)}
	return w.alloc(&Object{Kind: OFunc, Fn: fn})
}

func (w *walker) execBody(fr *RTFrame, body []Stmt) error {
	for _, st := range body {
		sig, err := w.execStmt(fr, st)
		if err != nil {
			return err
		}
		switch sig {
		case ctrlReturn:
			return nil
		case ctrlBreak:
			return w.rtErr(st.Pos(), "'break' outside loop")
		case ctrlContinue:
			return w.rtErr(st.Pos(), "'continue' outside loop")
		}
	}
	return nil
}

// execBlock runs a nested statement list, passing signals upward.
func (w *walker) execBlock(fr *RTFrame, body []Stmt) (ctrlSignal, error) {
	for _, st := range body {
		sig, err := w.execStmt(fr, st)
		if err != nil || sig != ctrlNone {
			return sig, err
		}
	}
	return ctrlNone, nil
}

func (w *walker) execStmt(fr *RTFrame, st Stmt) (ctrlSignal, error) {
	switch s := st.(type) {
	case *FuncDef:
		if err := w.fireLine(fr, s.Pos()); err != nil {
			return ctrlNone, err
		}
		w.assignName(fr, s.Name, w.newFunc(s))
		return ctrlNone, nil

	case *ClassDef:
		if err := w.fireLine(fr, s.Pos()); err != nil {
			return ctrlNone, err
		}
		cls := &Class{Name: s.Name, Methods: map[string]*Object{}, DefLine: s.Pos()}
		for _, bs := range s.Body {
			switch m := bs.(type) {
			case *FuncDef:
				cls.Methods[m.Name] = w.newFunc(m)
				cls.MethodOrder = append(cls.MethodOrder, m.Name)
			case *PassStmt:
				// allowed
			case *AssignStmt:
				if len(m.Targets) == 1 {
					if n, ok := m.Targets[0].(*NameExpr); ok {
						v, err := w.eval(fr, m.Value)
						if err != nil {
							return ctrlNone, err
						}
						cls.Methods[n.Name] = v
						cls.MethodOrder = append(cls.MethodOrder, n.Name)
						continue
					}
				}
				return ctrlNone, w.rtErr(m.Pos(), "unsupported statement in class body")
			default:
				return ctrlNone, w.rtErr(bs.Pos(), "unsupported statement in class body")
			}
		}
		w.assignName(fr, s.Name, w.alloc(&Object{Kind: OClass, Cls: cls}))
		return ctrlNone, nil

	case *ExprStmt:
		if err := w.fireLine(fr, s.Pos()); err != nil {
			return ctrlNone, err
		}
		_, err := w.eval(fr, s.X)
		return ctrlNone, err

	case *AssignStmt:
		if err := w.fireLine(fr, s.Pos()); err != nil {
			return ctrlNone, err
		}
		v, err := w.eval(fr, s.Value)
		if err != nil {
			return ctrlNone, err
		}
		for _, tgt := range s.Targets {
			if err := w.assign(fr, tgt, v); err != nil {
				return ctrlNone, err
			}
		}
		return ctrlNone, nil

	case *AugAssignStmt:
		if err := w.fireLine(fr, s.Pos()); err != nil {
			return ctrlNone, err
		}
		old, err := w.eval(fr, s.Target)
		if err != nil {
			return ctrlNone, err
		}
		rhs, err := w.eval(fr, s.Value)
		if err != nil {
			return ctrlNone, err
		}
		// Python in-place semantics on lists: `xs += ys` extends in place.
		if s.Op == Plus && old.Kind == OList && rhs.Kind == OList {
			old.L = append(old.L, rhs.L...)
			w.stamp(old)
			return ctrlNone, nil
		}
		nv, err := w.binOp(s.Pos(), s.Op, old, rhs)
		if err != nil {
			return ctrlNone, err
		}
		return ctrlNone, w.assign(fr, s.Target, nv)

	case *DelStmt:
		if err := w.fireLine(fr, s.Pos()); err != nil {
			return ctrlNone, err
		}
		return ctrlNone, w.deleteTarget(fr, s.Target)

	case *IfStmt:
		if err := w.fireLine(fr, s.Pos()); err != nil {
			return ctrlNone, err
		}
		c, err := w.eval(fr, s.Cond)
		if err != nil {
			return ctrlNone, err
		}
		if c.Truthy() {
			return w.execBlock(fr, s.Body)
		}
		return w.execBlock(fr, s.Else)

	case *WhileStmt:
		for {
			if err := w.fireLine(fr, s.Pos()); err != nil {
				return ctrlNone, err
			}
			c, err := w.eval(fr, s.Cond)
			if err != nil {
				return ctrlNone, err
			}
			if !c.Truthy() {
				return ctrlNone, nil
			}
			sig, err := w.execBlock(fr, s.Body)
			if err != nil {
				return ctrlNone, err
			}
			switch sig {
			case ctrlBreak:
				return ctrlNone, nil
			case ctrlReturn:
				return ctrlReturn, nil
			}
		}

	case *ForStmt:
		if err := w.fireLine(fr, s.Pos()); err != nil {
			return ctrlNone, err
		}
		iter, err := w.eval(fr, s.Iter)
		if err != nil {
			return ctrlNone, err
		}
		items, err := w.iterate(s.Pos(), iter)
		if err != nil {
			return ctrlNone, err
		}
		for i, item := range items {
			if i > 0 {
				// Python re-traces the `for` line on each iteration.
				if err := w.fireLine(fr, s.Pos()); err != nil {
					return ctrlNone, err
				}
			}
			if err := w.assign(fr, s.Target, item); err != nil {
				return ctrlNone, err
			}
			sig, err := w.execBlock(fr, s.Body)
			if err != nil {
				return ctrlNone, err
			}
			switch sig {
			case ctrlBreak:
				return ctrlNone, nil
			case ctrlReturn:
				return ctrlReturn, nil
			}
		}
		return ctrlNone, nil

	case *ReturnStmt:
		if err := w.fireLine(fr, s.Pos()); err != nil {
			return ctrlNone, err
		}
		if fr.Fn == nil {
			return ctrlNone, w.rtErr(s.Pos(), "'return' outside function")
		}
		val := w.noneO
		if s.Value != nil {
			v, err := w.eval(fr, s.Value)
			if err != nil {
				return ctrlNone, err
			}
			val = v
		}
		w.retval = val
		return ctrlReturn, nil

	case *BreakStmt:
		if err := w.fireLine(fr, s.Pos()); err != nil {
			return ctrlNone, err
		}
		return ctrlBreak, nil

	case *ContinueStmt:
		if err := w.fireLine(fr, s.Pos()); err != nil {
			return ctrlNone, err
		}
		return ctrlContinue, nil

	case *PassStmt:
		return ctrlNone, w.fireLine(fr, s.Pos())

	case *GlobalStmt:
		// The names were collected when the def ran (newFunc); at module
		// level every name is global already.
		return ctrlNone, w.fireLine(fr, s.Pos())
	}
	return ctrlNone, w.rtErr(st.Pos(), "unsupported statement %T", st)
}

// isGlobal reports whether name is declared `global` in fr's function.
func (w *walker) isGlobal(fr *RTFrame, name string) bool {
	return fr.Fn != nil && w.fns[fr.Fn].globals[name]
}

// assignName writes a name respecting `global` declarations.
func (w *walker) assignName(fr *RTFrame, name string, v *Object) {
	if w.isGlobal(fr, name) {
		w.Globals.Set(name, v)
		return
	}
	fr.Locals.Set(name, v)
}

func (w *walker) assign(fr *RTFrame, target Expr, v *Object) error {
	switch t := target.(type) {
	case *NameExpr:
		w.assignName(fr, t.Name, v)
		return nil
	case *IndexExpr:
		obj, err := w.eval(fr, t.X)
		if err != nil {
			return err
		}
		idx, err := w.eval(fr, t.Index)
		if err != nil {
			return err
		}
		return w.setIndex(t.Pos(), obj, idx, v)
	case *AttrExpr:
		obj, err := w.eval(fr, t.X)
		if err != nil {
			return err
		}
		if obj.Kind != OInstance {
			return w.rtErr(t.Pos(), "'%s' object has no settable attribute '%s'", obj.TypeName(), t.Name)
		}
		obj.Attrs.SetStr(t.Name, v)
		w.stamp(obj)
		return nil
	case *TupleLitExpr:
		return w.unpack(fr, t, v)
	case *ListLitExpr:
		return w.unpack(fr, &TupleLitExpr{pos: pos{t.Pos()}, Elems: t.Elems}, v)
	}
	return w.rtErr(target.Pos(), "cannot assign to %T", target)
}

func (w *walker) unpack(fr *RTFrame, t *TupleLitExpr, v *Object) error {
	var items []*Object
	switch v.Kind {
	case OList, OTuple:
		items = v.L
	case OStr:
		for _, r := range v.S {
			items = append(items, w.newStr(string(r)))
		}
	default:
		return w.rtErr(t.Pos(), "cannot unpack non-sequence %s", v.TypeName())
	}
	if len(items) != len(t.Elems) {
		return w.rtErr(t.Pos(), "cannot unpack %d values into %d targets", len(items), len(t.Elems))
	}
	for i, el := range t.Elems {
		if err := w.assign(fr, el, items[i]); err != nil {
			return err
		}
	}
	return nil
}

func (w *walker) deleteTarget(fr *RTFrame, target Expr) error {
	switch t := target.(type) {
	case *NameExpr:
		if _, ok := fr.Locals.Get(t.Name); ok {
			fr.Locals.Delete(t.Name)
			return nil
		}
		if _, ok := w.Globals.Get(t.Name); ok && w.isGlobal(fr, t.Name) {
			w.Globals.Delete(t.Name)
			return nil
		}
		return w.rtErr(t.Pos(), "name '%s' is not defined", t.Name)
	case *IndexExpr:
		obj, err := w.eval(fr, t.X)
		if err != nil {
			return err
		}
		idx, err := w.eval(fr, t.Index)
		if err != nil {
			return err
		}
		switch obj.Kind {
		case OList:
			i, err := w.seqIndex(t.Pos(), obj, idx)
			if err != nil {
				return err
			}
			obj.L = append(obj.L[:i], obj.L[i+1:]...)
			w.stamp(obj)
			return nil
		case ODict:
			ok, err := obj.D.Delete(idx)
			if err != nil {
				return w.rtErr(t.Pos(), "%s", err)
			}
			if !ok {
				return w.rtErr(t.Pos(), "KeyError: %s", idx.Repr())
			}
			w.stamp(obj)
			return nil
		}
		return w.rtErr(t.Pos(), "cannot delete items of '%s'", obj.TypeName())
	}
	return w.rtErr(target.Pos(), "cannot delete %T", target)
}

// lookupName resolves a name: locals, then globals, then error.
func (w *walker) lookupName(fr *RTFrame, line int, name string) (*Object, error) {
	if fr.Fn != nil && !w.isGlobal(fr, name) {
		if v, ok := fr.Locals.Get(name); ok {
			return v, nil
		}
	}
	if v, ok := w.Globals.Get(name); ok {
		return v, nil
	}
	if fr.Fn == nil {
		if v, ok := fr.Locals.Get(name); ok {
			return v, nil
		}
	}
	return nil, w.rtErr(line, "name '%s' is not defined", name)
}

// callFunction is CallFunction for the functions and classes the walker
// defines; builtins and the not-callable error go to the shared one.
func (w *walker) callFunction(line int, fn *Object, args []*Object) (*Object, error) {
	switch fn.Kind {
	case OFunc:
		return w.callUser(line, fn.Fn, args)
	case OMethod:
		return w.callUser(line, fn.Fn, append([]*Object{fn.Self}, args...))
	case OClass:
		inst := w.alloc(&Object{Kind: OInstance, Cls: fn.Cls, Attrs: NewOrderedDict()})
		if init, ok := fn.Cls.Methods["__init__"]; ok && init.Kind == OFunc {
			if _, err := w.callUser(line, init.Fn, append([]*Object{inst}, args...)); err != nil {
				return nil, err
			}
		} else if len(args) != 0 {
			return nil, w.rtErr(line, "%s() takes no arguments", fn.Cls.Name)
		}
		return inst, nil
	}
	return w.CallFunction(line, fn, args)
}

func (w *walker) callUser(line int, fn *Function, args []*Object) (*Object, error) {
	if len(args) != len(fn.Params) {
		return nil, w.rtErr(line, "%s() takes %d arguments but %d were given",
			fn.Name, len(fn.Params), len(args))
	}
	fr := &RTFrame{
		Name: fn.Name, Fn: fn, Locals: &Scope{vals: map[string]*Object{}, in: w.Interp},
		Parent: w.cur, Line: fn.DefLine, Depth: w.cur.Depth + 1,
	}
	for i, p := range fn.Params {
		fr.Locals.Set(p, args[i])
	}
	w.cur = fr
	defer func() { w.cur = fr.Parent }()
	w.frameEvents++
	if w.trace != nil {
		if err := w.trace(fr, EventCall, nil); err != nil {
			return nil, err
		}
	}
	w.retval = w.noneO
	err := w.execBody(fr, w.fns[fn].body)
	if err != nil {
		return nil, err
	}
	ret := w.retval
	w.retval = w.noneO
	w.frameEvents++
	if w.trace != nil {
		if err := w.trace(fr, EventReturn, ret); err != nil {
			return nil, err
		}
	}
	return ret, nil
}

func (w *walker) eval(fr *RTFrame, e Expr) (*Object, error) {
	switch x := e.(type) {
	case *NameExpr:
		return w.lookupName(fr, x.Pos(), x.Name)
	case *IntLitExpr:
		return w.newInt(x.Value), nil
	case *FloatLitExpr:
		return w.newFloat(x.Value), nil
	case *StrLitExpr:
		return w.newStr(x.Value), nil
	case *BoolLitExpr:
		return w.newBool(x.Value), nil
	case *NoneLitExpr:
		return w.noneO, nil
	case *ListLitExpr:
		elems := make([]*Object, len(x.Elems))
		for i, el := range x.Elems {
			v, err := w.eval(fr, el)
			if err != nil {
				return nil, err
			}
			elems[i] = v
		}
		return w.newList(elems), nil
	case *TupleLitExpr:
		elems := make([]*Object, len(x.Elems))
		for i, el := range x.Elems {
			v, err := w.eval(fr, el)
			if err != nil {
				return nil, err
			}
			elems[i] = v
		}
		return w.newTuple(elems), nil
	case *DictLitExpr:
		d := w.newDict()
		for i := range x.Keys {
			k, err := w.eval(fr, x.Keys[i])
			if err != nil {
				return nil, err
			}
			v, err := w.eval(fr, x.Vals[i])
			if err != nil {
				return nil, err
			}
			if err := d.D.Set(k, v); err != nil {
				return nil, w.rtErr(x.Pos(), "%s", err)
			}
		}
		return d, nil
	case *BinOpExpr:
		l, err := w.eval(fr, x.L)
		if err != nil {
			return nil, err
		}
		r, err := w.eval(fr, x.R)
		if err != nil {
			return nil, err
		}
		return w.binOp(x.Pos(), x.Op, l, r)
	case *UnaryExpr:
		v, err := w.eval(fr, x.X)
		if err != nil {
			return nil, err
		}
		switch x.Op {
		case Minus:
			switch v.Kind {
			case OInt:
				return w.newInt(-v.I), nil
			case OFloat:
				return w.newFloat(-v.F), nil
			case OBool:
				if v.B {
					return w.newInt(-1), nil
				}
				return w.newInt(0), nil
			}
			return nil, w.rtErr(x.Pos(), "bad operand type for unary -: '%s'", v.TypeName())
		case Plus:
			if n, ok := numVal(v); ok {
				_ = n
				return v, nil
			}
			return nil, w.rtErr(x.Pos(), "bad operand type for unary +: '%s'", v.TypeName())
		case KwNot:
			return w.newBool(!v.Truthy()), nil
		}
		return nil, w.rtErr(x.Pos(), "unsupported unary op %s", x.Op)
	case *BoolOpExpr:
		l, err := w.eval(fr, x.L)
		if err != nil {
			return nil, err
		}
		if x.Op == KwAnd {
			if !l.Truthy() {
				return l, nil
			}
			return w.eval(fr, x.R)
		}
		if l.Truthy() {
			return l, nil
		}
		return w.eval(fr, x.R)
	case *CompareExpr:
		l, err := w.eval(fr, x.First)
		if err != nil {
			return nil, err
		}
		for i, op := range x.Ops {
			r, err := w.eval(fr, x.Rest[i])
			if err != nil {
				return nil, err
			}
			ok, err := w.compare(x.Pos(), op, l, r)
			if err != nil {
				return nil, err
			}
			if !ok {
				return w.falseO, nil
			}
			l = r
		}
		return w.trueO, nil
	case *CallExpr:
		fn, err := w.eval(fr, x.Fn)
		if err != nil {
			return nil, err
		}
		args := make([]*Object, len(x.Args))
		for i, a := range x.Args {
			v, err := w.eval(fr, a)
			if err != nil {
				return nil, err
			}
			args[i] = v
		}
		return w.callFunction(x.Pos(), fn, args)
	case *IndexExpr:
		obj, err := w.eval(fr, x.X)
		if err != nil {
			return nil, err
		}
		idx, err := w.eval(fr, x.Index)
		if err != nil {
			return nil, err
		}
		return w.getIndex(x.Pos(), obj, idx)
	case *SliceExpr:
		obj, err := w.eval(fr, x.X)
		if err != nil {
			return nil, err
		}
		return w.getSlice(fr, x, obj)
	case *AttrExpr:
		obj, err := w.eval(fr, x.X)
		if err != nil {
			return nil, err
		}
		return w.getAttr(x.Pos(), obj, x.Name)
	}
	return nil, w.rtErr(e.Pos(), "unsupported expression %T", e)
}

func (w *walker) getSlice(fr *RTFrame, x *SliceExpr, obj *Object) (*Object, error) {
	var n int
	switch obj.Kind {
	case OList, OTuple:
		n = len(obj.L)
	case OStr:
		n = len([]rune(obj.S))
	default:
		return nil, w.rtErr(x.Pos(), "'%s' object is not sliceable", obj.TypeName())
	}
	bound := func(e Expr, def int) (int, error) {
		if e == nil {
			return def, nil
		}
		v, err := w.eval(fr, e)
		if err != nil {
			return 0, err
		}
		if v.Kind != OInt {
			return 0, w.rtErr(x.Pos(), "slice indices must be integers")
		}
		i := int(v.I)
		if i < 0 {
			i += n
		}
		if i < 0 {
			i = 0
		}
		if i > n {
			i = n
		}
		return i, nil
	}
	lo, err := bound(x.Lo, 0)
	if err != nil {
		return nil, err
	}
	hi, err := bound(x.Hi, n)
	if err != nil {
		return nil, err
	}
	if hi < lo {
		hi = lo
	}
	switch obj.Kind {
	case OList:
		return w.newList(append([]*Object(nil), obj.L[lo:hi]...)), nil
	case OTuple:
		return w.newTuple(append([]*Object(nil), obj.L[lo:hi]...)), nil
	default:
		return w.newStr(string([]rune(obj.S)[lo:hi])), nil
	}
}

// engine names one of the two MiniPy interpreters the tests compare.
type engine int

const (
	engineVM engine = iota
	engineWalker
)

// engines lists both interpreters, the VM first.
var engines = []engine{engineVM, engineWalker}

func (e engine) String() string {
	if e == engineWalker {
		return "walker"
	}
	return "vm"
}

// run executes in's module on e.
func (e engine) run(in *Interp) (int, error) {
	if e == engineWalker {
		return runWalker(in)
	}
	return in.Run()
}
