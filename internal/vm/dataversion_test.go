package vm

import (
	"testing"

	"easytracker/internal/isa"
)

// storeProg stores A1 to [A0] with SD, then exits.
func storeProg(n int) *isa.Program {
	var instrs []isa.Instr
	for i := 0; i < n; i++ {
		instrs = append(instrs, isa.Instr{Op: isa.SD, Rs1: isa.A0, Rs2: isa.A1, Imm: 0})
	}
	p := exitProg(instrs...)
	p.Data = make([]byte, 128) // writable data segment at DataBase
	return p
}

func TestDataVersionAdvancesOnStores(t *testing.T) {
	m := mustMachine(t, storeProg(3), Config{})
	m.SetReg(isa.A0, isa.DataBase)
	v0 := m.DataVersion()
	for i := 1; i <= 3; i++ {
		if s := m.StepOne(); s.Kind != StopStep {
			t.Fatalf("step %d: stop %v (%v)", i, s.Kind, s.Err)
		}
		if got := m.DataVersion(); got != v0+uint64(i) {
			t.Errorf("after store %d: DataVersion = %d, want %d", i, got, v0+uint64(i))
		}
	}
	// Non-store instructions must not advance the version.
	before := m.DataVersion()
	if s := m.StepOne(); s.Kind != StopStep { // the ADDI of the exit stub
		t.Fatalf("stop %v (%v)", s.Kind, s.Err)
	}
	if got := m.DataVersion(); got != before {
		t.Errorf("ADDI advanced DataVersion: %d -> %d", before, got)
	}
}

func TestDataVersionAdvancesOnWriteMemAndReset(t *testing.T) {
	m := mustMachine(t, storeProg(0), Config{})
	v0 := m.DataVersion()
	if err := m.WriteMem(isa.DataBase, []byte{1, 2, 3}); err != nil {
		t.Fatal(err)
	}
	if m.DataVersion() <= v0 {
		t.Error("WriteMem did not advance DataVersion")
	}
	v1 := m.DataVersion()
	m.Reset()
	if m.DataVersion() <= v1 {
		t.Error("Reset did not advance DataVersion (must stay monotonic so stale caches cannot validate against a fresh run)")
	}
}

// TestFirstOverlappedWatchReportsStore: a store that overlaps several
// armed watches stops once, reported by the first-armed watch it overlaps.
func TestFirstOverlappedWatchReportsStore(t *testing.T) {
	// One SD spans [DataBase, DataBase+8); two watches each overlap half
	// of it, and one armed before them lies elsewhere.
	m := mustMachine(t, storeProg(1), Config{})
	m.SetReg(isa.A0, isa.DataBase)
	m.AddWatch(isa.DataBase+64, 8)
	first := m.AddWatch(isa.DataBase, 4)
	m.AddWatch(isa.DataBase+4, 4)
	s := m.StepOne()
	if s.Kind != StopWatch || s.Watch == nil {
		t.Fatalf("stop %v (%v)", s.Kind, s.Err)
	}
	if s.Watch.ID != first {
		t.Errorf("reported watch %d, want first-armed overlapping %d", s.Watch.ID, first)
	}
}
