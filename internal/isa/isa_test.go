package isa

import (
	"encoding/json"
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"
)

func TestRegNames(t *testing.T) {
	cases := []struct {
		r    Reg
		name string
	}{
		{Zero, "zero"}, {RA, "ra"}, {SP, "sp"}, {FP, "fp"},
		{A0, "a0"}, {A7, "a7"}, {T6, "t6"}, {S11, "s11"},
	}
	for _, c := range cases {
		if c.r.String() != c.name {
			t.Errorf("%d.String() = %q, want %q", c.r, c.r.String(), c.name)
		}
		back, ok := RegByName(c.name)
		if !ok || back != c.r {
			t.Errorf("RegByName(%q) = %v, %v", c.name, back, ok)
		}
	}
	if r, ok := RegByName("s0"); !ok || r != FP {
		t.Errorf("s0 alias = %v, %v", r, ok)
	}
	if r, ok := RegByName("x31"); !ok || r != T6 {
		t.Errorf("x31 = %v, %v", r, ok)
	}
	if _, ok := RegByName("bogus"); ok {
		t.Error("RegByName accepted bogus")
	}
	if len(RegNames()) != 32 {
		t.Error("RegNames size")
	}
}

func TestOpNames(t *testing.T) {
	for op := Op(0); op < numOps; op++ {
		back, ok := OpByName(op.String())
		if !ok || back != op {
			t.Errorf("OpByName(%q) = %v, %v", op.String(), back, ok)
		}
	}
	if _, ok := OpByName("frobnicate"); ok {
		t.Error("OpByName accepted bogus")
	}
}

func randInstr(r *rand.Rand) Instr {
	return Instr{
		Op:  Op(r.Intn(int(numOps))),
		Rd:  Reg(r.Intn(NumRegs)),
		Rs1: Reg(r.Intn(NumRegs)),
		Rs2: Reg(r.Intn(NumRegs)),
		Imm: int32(r.Uint32()),
	}
}

func TestEncodeDecodeRoundTrip(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		ins := randInstr(r)
		back, err := Decode(ins.Encode())
		return err == nil && back == ins
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 1000}); err != nil {
		t.Error(err)
	}
}

func TestDecodeRejectsGarbage(t *testing.T) {
	if _, err := Decode([WordSize]byte{255}); err == nil {
		t.Error("bad opcode accepted")
	}
	if _, err := Decode([WordSize]byte{byte(ADD), 40}); err == nil {
		t.Error("bad register accepted")
	}
}

func TestInstrJSONRoundTrip(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		ins := randInstr(r)
		data, err := json.Marshal(ins)
		if err != nil {
			return false
		}
		var back Instr
		if err := json.Unmarshal(data, &back); err != nil {
			return false
		}
		return back == ins
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

func TestInstrString(t *testing.T) {
	cases := []struct {
		i    Instr
		want string
	}{
		{Instr{Op: ADD, Rd: A0, Rs1: A1, Rs2: A2}, "add a0, a1, a2"},
		{Instr{Op: ADDI, Rd: SP, Rs1: SP, Imm: -16}, "addi sp, sp, -16"},
		{Instr{Op: LD, Rd: A0, Rs1: FP, Imm: -24}, "ld a0, -24(fp)"},
		{Instr{Op: SD, Rs2: A0, Rs1: SP, Imm: 8}, "sd a0, 8(sp)"},
		{Instr{Op: BEQ, Rs1: A0, Rs2: Zero, Imm: 16}, "beq a0, zero, 16"},
		{Instr{Op: JAL, Rd: RA, Imm: -32}, "jal ra, -32"},
		{Ret(), "ret"},
		{Nop(), "nop"},
		{Instr{Op: ECALL}, "ecall"},
		{Instr{Op: FADD, Rd: T0, Rs1: T1, Rs2: T2}, "fadd t0, t1, t2"},
		{Instr{Op: ITOF, Rd: T0, Rs1: T1}, "itof t0, t1"},
	}
	for _, c := range cases {
		if got := c.i.String(); got != c.want {
			t.Errorf("String() = %q, want %q", got, c.want)
		}
	}
}

func TestIsRetAndStore(t *testing.T) {
	if !Ret().IsRet() {
		t.Error("Ret not recognized")
	}
	if (Instr{Op: JALR, Rd: RA, Rs1: RA}).IsRet() {
		t.Error("jalr ra, ra is not ret")
	}
	if !(Instr{Op: SD}).IsStore() || (Instr{Op: LD}).IsStore() {
		t.Error("IsStore wrong")
	}
	if (Instr{Op: SW}).StoreSize() != 4 || (Instr{Op: SB}).StoreSize() != 1 ||
		(Instr{Op: SD}).StoreSize() != 8 || (Instr{Op: ADD}).StoreSize() != 0 {
		t.Error("StoreSize wrong")
	}
}

func TestPCConversions(t *testing.T) {
	for _, idx := range []int{0, 1, 77} {
		pc := IndexToPC(idx)
		back, ok := PCToIndex(pc)
		if !ok || back != idx {
			t.Errorf("round trip of index %d failed", idx)
		}
	}
	if _, ok := PCToIndex(TextBase + 3); ok {
		t.Error("unaligned pc accepted")
	}
	if _, ok := PCToIndex(TextBase - WordSize); ok {
		t.Error("pc below text accepted")
	}
}

func TestTypeInfo(t *testing.T) {
	structs := map[string]*StructLayout{
		"point": {Name: "point", Size: 16, Fields: []FieldInfo{
			{Name: "x", Type: IntType(), Offset: 0},
			{Name: "y", Type: IntType(), Offset: 8},
		}},
	}
	cases := []struct {
		ty   *TypeInfo
		str  string
		size int64
	}{
		{IntType(), "int", 8},
		{CharType(), "char", 1},
		{DoubleType(), "double", 8},
		{PtrTo(IntType()), "int*", 8},
		{PtrTo(PtrTo(CharType())), "char**", 8},
		{ArrayOf(IntType(), 5), "int[5]", 40},
		{StructType("point"), "struct point", 16},
		{ArrayOf(StructType("point"), 3), "struct point[3]", 48},
		{VoidType(), "void", 0},
	}
	for _, c := range cases {
		if got := c.ty.String(); got != c.str {
			t.Errorf("String() = %q, want %q", got, c.str)
		}
		if got := c.ty.Sizeof(structs); got != c.size {
			t.Errorf("Sizeof(%s) = %d, want %d", c.str, got, c.size)
		}
	}
	if !PtrTo(IntType()).Equal(PtrTo(IntType())) {
		t.Error("equal types unequal")
	}
	if PtrTo(IntType()).Equal(PtrTo(CharType())) {
		t.Error("unequal types equal")
	}
}

func sampleProgram() *Program {
	return &Program{
		SourceFile: "t.c",
		Instrs: []Instr{
			{Op: ADDI, Rd: A0, Rs1: Zero, Imm: 1},
			{Op: ADDI, Rd: A1, Rs1: Zero, Imm: 2},
			{Op: ADD, Rd: A0, Rs1: A0, Rs2: A1},
			Ret(),
		},
		Entry: TextBase,
		Funcs: []FuncInfo{
			{Name: "main", Entry: TextBase, End: IndexToPC(4)},
		},
		Lines: []LineEntry{
			{PC: TextBase, Line: 1},
			{PC: IndexToPC(1), Line: 2},
			{PC: IndexToPC(2), Line: 3},
			{PC: IndexToPC(3), Line: 3},
		},
	}
}

func TestProgramQueries(t *testing.T) {
	p := sampleProgram()
	if err := p.Validate(); err != nil {
		t.Fatalf("Validate: %v", err)
	}
	if f := p.FuncAt(IndexToPC(2)); f == nil || f.Name != "main" {
		t.Errorf("FuncAt = %v", f)
	}
	if p.FuncAt(IndexToPC(9)) != nil {
		t.Error("FuncAt out of range found something")
	}
	if f := p.FuncByName("main"); f == nil {
		t.Error("FuncByName failed")
	}
	if p.FuncByName("nope") != nil {
		t.Error("FuncByName phantom")
	}
	if l := p.LineAt(IndexToPC(3)); l != 3 {
		t.Errorf("LineAt = %d", l)
	}
	if l := p.LineAt(TextBase - WordSize); l != 0 {
		t.Errorf("LineAt below text = %d", l)
	}
	pcs := p.PCsForLine(3)
	if len(pcs) != 1 || pcs[0] != IndexToPC(2) {
		t.Errorf("PCsForLine(3) = %v", pcs)
	}
	if len(p.PCsForLine(99)) != 0 {
		t.Error("PCsForLine phantom")
	}
	dis := p.Disassemble(TextBase, IndexToPC(4))
	if len(dis) != 4 || dis[3].Text != "ret" {
		t.Errorf("Disassemble = %v", dis)
	}
	if len(p.EncodeText()) != 4*WordSize {
		t.Error("EncodeText size")
	}
}

func TestAppendLineKeepsAnswers(t *testing.T) {
	// sampleProgram's table has an entry per instruction; built with
	// AppendLine it has one per run and answers every query the same.
	per, runs := sampleProgram(), sampleProgram()
	runs.Lines = nil
	for _, e := range per.Lines {
		runs.Lines = AppendLine(runs.Lines, e.PC, e.Line)
	}
	if len(runs.Lines) != 3 || runs.Validate() != nil {
		t.Fatalf("runs = %v", runs.Lines)
	}
	for i := range per.Instrs {
		if got, want := runs.LineAt(IndexToPC(i)), per.LineAt(IndexToPC(i)); got != want {
			t.Errorf("LineAt(%#x) = %d, want %d", IndexToPC(i), got, want)
		}
	}
	for line := 0; line <= 4; line++ {
		if got, want := runs.PCsForLine(line), per.PCsForLine(line); !reflect.DeepEqual(got, want) {
			t.Errorf("PCsForLine(%d) = %v, want %v", line, got, want)
		}
	}
}

func TestProgramValidateErrors(t *testing.T) {
	p := &Program{}
	if p.Validate() == nil {
		t.Error("empty program validated")
	}
	p = sampleProgram()
	p.Entry = TextBase + 1
	if p.Validate() == nil {
		t.Error("unaligned entry validated")
	}
	p = sampleProgram()
	p.Funcs[0].End = p.Funcs[0].Entry
	if p.Validate() == nil {
		t.Error("empty function range validated")
	}
	p = sampleProgram()
	p.Lines = []LineEntry{{PC: IndexToPC(2), Line: 1}, {PC: TextBase, Line: 2}}
	if p.Validate() == nil {
		t.Error("unsorted lines validated")
	}
}

func TestProgramJSONRoundTrip(t *testing.T) {
	p := sampleProgram()
	p.Globals = []VarInfo{{Name: "g", Type: ArrayOf(IntType(), 3), Offset: int64(DataBase)}}
	p.Structs = map[string]*StructLayout{
		"node": {Name: "node", Size: 16, Fields: []FieldInfo{
			{Name: "v", Type: IntType()},
			{Name: "next", Type: PtrTo(StructType("node")), Offset: 8},
		}},
	}
	p.Data = []byte{1, 2, 3}
	data, err := json.Marshal(p)
	if err != nil {
		t.Fatal(err)
	}
	var back Program
	if err := json.Unmarshal(data, &back); err != nil {
		t.Fatal(err)
	}
	if len(back.Instrs) != len(p.Instrs) || back.Instrs[2] != p.Instrs[2] {
		t.Error("instructions lost")
	}
	if back.Globals[0].Type.String() != "int[3]" {
		t.Error("global type lost")
	}
	if back.Structs["node"].Fields[1].Type.String() != "struct node*" {
		t.Error("struct layout lost")
	}
	if err := back.Validate(); err != nil {
		t.Errorf("Validate after round trip: %v", err)
	}
}
