package minipy

import "fmt"

// The bytecode dispatch loop. One runCode activation executes one code
// object (the module body or a function body) over a preallocated operand
// stack. The loop keeps MiniPy's observable contract, which the package
// tests check against a tree-walking reference interpreter:
//
//   - trace hooks: opLine/opIterNextLine route through fireLine, so line
//     events fire once per executed statement in source order, charge the
//     step budget, and propagate hook errors (tracker aborts) verbatim; a
//     line reaches the hook while attention is up or its line is armed;
//   - write barriers: every binding write goes through Scope.setSlot /
//     Scope.Set and every in-place mutation through Interp.stamp, so the
//     mutation epoch and ReachableEpoch stay valid for the watch fast path;
//   - errors: runtime failures use the rtErr formats at the source line,
//     and panics escape to the tracker's containment barrier unchanged.
type iterReg struct {
	items []*Object
	idx   int
}

// runModule compiles the module (once per Module) and executes its body.
func (in *Interp) runModule(mod *RTFrame) error {
	prog := in.module.program()
	in.prog = prog
	in.consts = make([]*Object, len(prog.consts))
	for i, k := range prog.consts {
		switch k.kind {
		case OInt:
			in.consts[i] = in.newInt(k.i)
		case OFloat:
			in.consts[i] = in.newFloat(k.f)
		default:
			in.consts[i] = in.newStr(k.s)
		}
	}
	in.Globals.attachSlots(prog.modSyms)
	_, err := in.runCode(mod, prog.code)
	return err
}

// callUser invokes a compiled function, with parameters bound into slots
// before the call event fires.
func (in *Interp) callUser(line int, fn *Function, args []*Object) (*Object, error) {
	if len(args) != len(fn.Params) {
		return nil, in.rtErr(line, "%s() takes %d arguments but %d were given",
			fn.Name, len(fn.Params), len(args))
	}
	code := fn.code
	locals := &Scope{
		in:    in,
		syms:  code.syms,
		slots: make([]*Object, len(code.syms.names)),
	}
	if in.codeMarks != nil {
		locals.mark = in.codeMarks[code.idx]
	}
	fr := &RTFrame{
		Name: fn.Name, Fn: fn, Locals: locals,
		Parent: in.cur, Line: fn.DefLine,
		Depth: in.cur.Depth + 1,
	}
	for i := range args {
		locals.setSlot(int(code.paramSlots[i]), args[i])
	}
	// in.cur is restored on every return but not by a deferred call, so
	// a panic leaves it at the frame that panicked (CurrentFrame).
	in.cur = fr
	ret, err := in.runFrame(fr, code)
	in.cur = fr.Parent
	return ret, err
}

// runFrame runs a called frame between its call and return events. Each
// event reaches the hook, and raises attention for the line after it,
// where the innermost frame has changed.
func (in *Interp) runFrame(fr *RTFrame, code *Code) (*Object, error) {
	in.frameEvents++
	if in.trace != nil {
		if err := in.trace(fr, EventCall, nil); err != nil {
			return nil, err
		}
		in.RaiseAttention()
	}
	ret, err := in.runCode(fr, code)
	if err != nil {
		return nil, err
	}
	in.frameEvents++
	if in.trace != nil {
		if err := in.trace(fr, EventReturn, ret); err != nil {
			return nil, err
		}
		in.RaiseAttention()
	}
	return ret, nil
}

func (in *Interp) runCode(fr *RTFrame, code *Code) (*Object, error) {
	// A small headroom over the computed bound keeps a compiler
	// mis-accounting from corrupting memory; the slice bound still traps.
	stack := make([]*Object, code.maxStack+4)
	var iters []iterReg
	if code.numIters > 0 {
		iters = make([]iterReg, code.numIters)
	}
	ops := code.ops
	prog := code.prog
	g := in.Globals
	sp := 0
	for pc := 0; pc < len(ops); pc++ {
		ins := ops[pc]
		switch ins.Op {
		case opLine:
			if err := in.fireLine(fr, int(ins.Line)); err != nil {
				return nil, err
			}

		case opConst:
			stack[sp] = in.consts[ins.A]
			sp++
		case opNone:
			stack[sp] = in.noneO
			sp++
		case opTrue:
			stack[sp] = in.trueO
			sp++
		case opFalse:
			stack[sp] = in.falseO
			sp++

		case opLoadLocal:
			v := fr.Locals.slots[ins.A]
			if v == nil {
				// Not locally bound (yet): fall back to globals.
				name := prog.names[ins.B]
				gv, ok := g.Get(name)
				if !ok {
					return nil, in.rtErr(int(ins.Line), "name '%s' is not defined", name)
				}
				v = gv
			}
			stack[sp] = v
			sp++
		case opStoreLocal:
			sp--
			fr.Locals.setSlot(int(ins.A), stack[sp])
		case opDelLocal:
			if fr.Locals.slots[ins.A] == nil {
				return nil, in.rtErr(int(ins.Line), "name '%s' is not defined", prog.names[ins.B])
			}
			fr.Locals.Delete(prog.names[ins.B])
		case opLoadGlobal:
			v := g.slots[ins.A]
			if v == nil {
				return nil, in.rtErr(int(ins.Line), "name '%s' is not defined", prog.names[ins.B])
			}
			stack[sp] = v
			sp++
		case opStoreGlobal:
			sp--
			g.setSlot(int(ins.A), stack[sp])
		case opDelGlobal:
			if g.slots[ins.A] == nil {
				return nil, in.rtErr(int(ins.Line), "name '%s' is not defined", prog.names[ins.B])
			}
			g.Delete(prog.names[ins.B])
		case opLoadGlobalN:
			name := prog.names[ins.B]
			v, ok := g.Get(name)
			if !ok {
				return nil, in.rtErr(int(ins.Line), "name '%s' is not defined", name)
			}
			stack[sp] = v
			sp++
		case opStoreGlobalN:
			sp--
			g.Set(prog.names[ins.B], stack[sp])
		case opDelGlobalN:
			name := prog.names[ins.B]
			if _, ok := g.Get(name); !ok {
				return nil, in.rtErr(int(ins.Line), "name '%s' is not defined", name)
			}
			g.Delete(name)
		case opRaiseNameErr:
			return nil, in.rtErr(int(ins.Line), "name '%s' is not defined", prog.names[ins.B])

		case opPop:
			sp--
		case opDup:
			stack[sp] = stack[sp-1]
			sp++
		case opJump:
			pc = int(ins.A) - 1
		case opJumpIfFalse:
			sp--
			if !stack[sp].Truthy() {
				pc = int(ins.A) - 1
			}
		case opJumpAndKeep:
			if !stack[sp-1].Truthy() {
				pc = int(ins.A) - 1
			} else {
				sp--
			}
		case opJumpOrKeep:
			if stack[sp-1].Truthy() {
				pc = int(ins.A) - 1
			} else {
				sp--
			}

		case opNeg:
			v := stack[sp-1]
			switch v.Kind {
			case OInt:
				stack[sp-1] = in.newInt(-v.I)
			case OFloat:
				stack[sp-1] = in.newFloat(-v.F)
			case OBool:
				if v.B {
					stack[sp-1] = in.newInt(-1)
				} else {
					stack[sp-1] = in.newInt(0)
				}
			default:
				return nil, in.rtErr(int(ins.Line), "bad operand type for unary -: '%s'", v.TypeName())
			}
		case opPos:
			if _, ok := numVal(stack[sp-1]); !ok {
				return nil, in.rtErr(int(ins.Line), "bad operand type for unary +: '%s'", stack[sp-1].TypeName())
			}
		case opNot:
			stack[sp-1] = in.newBool(!stack[sp-1].Truthy())

		case opBinOp:
			r := stack[sp-1]
			l := stack[sp-2]
			sp -= 2
			op := TokKind(ins.A)
			if l.Kind == OInt && r.Kind == OInt {
				var v *Object
				switch op {
				case Plus:
					v = in.newInt(l.I + r.I)
				case Minus:
					v = in.newInt(l.I - r.I)
				case Star:
					v = in.newInt(l.I * r.I)
				}
				if v != nil {
					stack[sp] = v
					sp++
					continue
				}
			}
			v, err := in.binOp(int(ins.Line), op, l, r)
			if err != nil {
				return nil, err
			}
			stack[sp] = v
			sp++
		case opAugAdd:
			r := stack[sp-1]
			l := stack[sp-2]
			sp -= 2
			if l.Kind == OList && r.Kind == OList {
				l.L = append(l.L, r.L...)
				in.stamp(l)
				pc = int(ins.A) - 1
				continue
			}
			v, err := in.binOp(int(ins.Line), Plus, l, r)
			if err != nil {
				return nil, err
			}
			stack[sp] = v
			sp++
		case opCompare:
			r := stack[sp-1]
			l := stack[sp-2]
			sp -= 2
			op := TokKind(ins.A)
			if l.Kind == OInt && r.Kind == OInt {
				var v *Object
				switch op {
				case Lt:
					v = in.newBool(l.I < r.I)
				case Le:
					v = in.newBool(l.I <= r.I)
				case Gt:
					v = in.newBool(l.I > r.I)
				case Ge:
					v = in.newBool(l.I >= r.I)
				case Eq:
					v = in.newBool(l.I == r.I)
				case Ne:
					v = in.newBool(l.I != r.I)
				}
				if v != nil {
					stack[sp] = v
					sp++
					continue
				}
			}
			ok, err := in.compare(int(ins.Line), op, l, r)
			if err != nil {
				return nil, err
			}
			stack[sp] = in.newBool(ok)
			sp++
		case opCmpMid:
			r := stack[sp-1]
			l := stack[sp-2]
			ok, err := in.compare(int(ins.Line), TokKind(ins.B), l, r)
			if err != nil {
				return nil, err
			}
			if ok {
				stack[sp-2] = r
				sp--
			} else {
				sp -= 2
				stack[sp] = in.falseO
				sp++
				pc = int(ins.A) - 1
			}

		case opMakeList:
			n := int(ins.A)
			elems := make([]*Object, n)
			copy(elems, stack[sp-n:sp])
			sp -= n
			stack[sp] = in.newList(elems)
			sp++
		case opMakeTuple:
			n := int(ins.A)
			elems := make([]*Object, n)
			copy(elems, stack[sp-n:sp])
			sp -= n
			stack[sp] = in.newTuple(elems)
			sp++
		case opMakeDict:
			stack[sp] = in.newDict()
			sp++
		case opDictSet:
			v := stack[sp-1]
			k := stack[sp-2]
			d := stack[sp-3]
			sp -= 2
			if err := d.D.Set(k, v); err != nil {
				return nil, in.rtErr(int(ins.Line), "%s", err)
			}

		case opIndex:
			idx := stack[sp-1]
			obj := stack[sp-2]
			sp -= 2
			v, err := in.getIndex(int(ins.Line), obj, idx)
			if err != nil {
				return nil, err
			}
			stack[sp] = v
			sp++
		case opStoreIndex:
			idx := stack[sp-1]
			obj := stack[sp-2]
			val := stack[sp-3]
			sp -= 3
			if err := in.setIndex(int(ins.Line), obj, idx, val); err != nil {
				return nil, err
			}
		case opDelIndex:
			idx := stack[sp-1]
			obj := stack[sp-2]
			sp -= 2
			line := int(ins.Line)
			switch obj.Kind {
			case OList:
				i, err := in.seqIndex(line, obj, idx)
				if err != nil {
					return nil, err
				}
				obj.L = append(obj.L[:i], obj.L[i+1:]...)
				in.stamp(obj)
			case ODict:
				ok, err := obj.D.Delete(idx)
				if err != nil {
					return nil, in.rtErr(line, "%s", err)
				}
				if !ok {
					return nil, in.rtErr(line, "KeyError: %s", idx.Repr())
				}
				in.stamp(obj)
			default:
				return nil, in.rtErr(line, "cannot delete items of '%s'", obj.TypeName())
			}

		case opSliceCheck:
			switch stack[sp-1].Kind {
			case OList, OTuple, OStr:
			default:
				return nil, in.rtErr(int(ins.Line), "'%s' object is not sliceable", stack[sp-1].TypeName())
			}
		case opSliceBound:
			if stack[sp-1].Kind != OInt {
				return nil, in.rtErr(int(ins.Line), "slice indices must be integers")
			}
		case opSlice:
			mask := ins.A
			var loO, hiO *Object
			if mask&2 != 0 {
				sp--
				hiO = stack[sp]
			}
			if mask&1 != 0 {
				sp--
				loO = stack[sp]
			}
			sp--
			obj := stack[sp]
			var n int
			if obj.Kind == OStr {
				n = len([]rune(obj.S))
			} else {
				n = len(obj.L)
			}
			lo, hi := 0, n
			if loO != nil {
				lo = clampIndex(int(loO.I), n)
			}
			if hiO != nil {
				hi = clampIndex(int(hiO.I), n)
			}
			if hi < lo {
				hi = lo
			}
			var v *Object
			switch obj.Kind {
			case OList:
				v = in.newList(append([]*Object(nil), obj.L[lo:hi]...))
			case OTuple:
				v = in.newTuple(append([]*Object(nil), obj.L[lo:hi]...))
			default:
				v = in.newStr(string([]rune(obj.S)[lo:hi]))
			}
			stack[sp] = v
			sp++

		case opAttr:
			v, err := in.getAttr(int(ins.Line), stack[sp-1], prog.names[ins.B])
			if err != nil {
				return nil, err
			}
			stack[sp-1] = v
		case opStoreAttr:
			obj := stack[sp-1]
			val := stack[sp-2]
			sp -= 2
			name := prog.names[ins.B]
			if obj.Kind != OInstance {
				return nil, in.rtErr(int(ins.Line), "'%s' object has no settable attribute '%s'", obj.TypeName(), name)
			}
			obj.Attrs.SetStr(name, val)
			in.stamp(obj)
		case opUnpack:
			sp--
			v := stack[sp]
			n := int(ins.A)
			line := int(ins.Line)
			var items []*Object
			switch v.Kind {
			case OList, OTuple:
				items = v.L
			case OStr:
				for _, r := range v.S {
					items = append(items, in.newStr(string(r)))
				}
			default:
				return nil, in.rtErr(line, "cannot unpack non-sequence %s", v.TypeName())
			}
			if len(items) != n {
				return nil, in.rtErr(line, "cannot unpack %d values into %d targets", len(items), n)
			}
			for i := n - 1; i >= 0; i-- {
				stack[sp] = items[i]
				sp++
			}

		case opCall:
			argc := int(ins.A)
			base := sp - argc
			// The stack window is passed directly: no builtin or
			// user call retains the args slice past its return.
			ret, err := in.CallFunction(int(ins.Line), stack[base-1], stack[base:sp])
			if err != nil {
				return nil, err
			}
			sp = base - 1
			stack[sp] = ret
			sp++
		case opReturn:
			sp--
			return stack[sp], nil
		case opMakeFunc:
			p := prog.funcs[ins.A]
			fn := &Function{
				Name: p.name, Params: p.params,
				DefLine: p.defLine, EndLine: p.endLine, code: p.code,
			}
			stack[sp] = in.alloc(&Object{Kind: OFunc, Fn: fn})
			sp++
		case opMakeClass:
			p := prog.classes[ins.A]
			n := int(ins.B)
			cls := &Class{Name: p.name, Methods: map[string]*Object{}, DefLine: p.defLine}
			base := sp - n
			for i := 0; i < n; i++ {
				cls.Methods[p.members[i]] = stack[base+i]
				cls.MethodOrder = append(cls.MethodOrder, p.members[i])
			}
			sp = base
			stack[sp] = in.alloc(&Object{Kind: OClass, Cls: cls})
			sp++

		case opIterNew:
			sp--
			items, err := in.iterate(int(ins.Line), stack[sp])
			if err != nil {
				return nil, err
			}
			iters[ins.A] = iterReg{items: items}
		case opIterNext:
			it := &iters[ins.B]
			if it.idx >= len(it.items) {
				it.items = nil
				pc = int(ins.A) - 1
			} else {
				stack[sp] = it.items[it.idx]
				sp++
				it.idx++
			}
		case opIterNextLine:
			it := &iters[ins.B]
			if it.idx >= len(it.items) {
				it.items = nil
				pc = int(ins.A) - 1
			} else {
				// Exhaustion is checked before the line event: the
				// `for` line only re-fires when another iteration
				// actually runs.
				if err := in.fireLine(fr, int(ins.Line)); err != nil {
					return nil, err
				}
				stack[sp] = it.items[it.idx]
				sp++
				it.idx++
			}

		case opRaise:
			return nil, in.rtErr(int(ins.Line), "%s", prog.msgs[ins.A])

		default:
			panic(fmt.Sprintf("minipy: invalid opcode %s at pc %d", ins.Op, pc))
		}
	}
	// Unreachable: every code object ends in opReturn.
	return in.noneO, nil
}

// clampIndex resolves a possibly-negative slice bound against length n,
// clamping to [0, n].
func clampIndex(i, n int) int {
	if i < 0 {
		i += n
	}
	if i < 0 {
		i = 0
	}
	if i > n {
		i = n
	}
	return i
}
