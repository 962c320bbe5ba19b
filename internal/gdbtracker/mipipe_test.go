package gdbtracker

import (
	"strings"
	"testing"

	"easytracker/internal/core"
	"easytracker/internal/mi"
)

// TestStepAllocs bounds the allocations of one Step through mi.Connect on
// a looping program: the command line, the reply the server copies out of
// its pooled buffer, the *stopped record's results, the Response, and the
// flight recorder's events. No record field costs an allocation of its
// own on either side of the pipe.
func TestStepAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector makes sync.Pool drop pooled reply buffers")
	}
	const src = `int main() {
    int i = 0;
    while (i >= 0) {
        i = i + 1;
    }
    return 0;
}`
	tr := New()
	if err := tr.LoadProgram("loop.c", core.WithSource(src)); err != nil {
		t.Fatal(err)
	}
	defer tr.Terminate()
	if err := tr.Start(); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(200, func() {
		if err := tr.Step(); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 8 {
		t.Errorf("a Step makes %v allocations, want at most 8", allocs)
	}
	t.Logf("%v allocations per Step", allocs)
}

// TestReturnPauseIsOneCommand tracks a recursive function and resumes
// through every CALL and RETURN pause. A RETURN pause costs its one
// -exec-continue: the return value rides the *stopped record, and it is
// a0 as -data-list-register-values reads it at the same pause.
func TestReturnPauseIsOneCommand(t *testing.T) {
	const src = `int fib(int n) {
    if (n < 2) {
        return n;
    }
    return fib(n - 1) + fib(n - 2);
}
int main() {
    int r = fib(6);
    printf("%d\n", r);
    return 0;
}`
	log := &opLog{}
	tr := New()
	tr.SetConnWrapper(func(c mi.Conn) mi.Conn { log.Conn = c; return log })
	if err := tr.LoadProgram("fib.c", core.WithSource(src), core.WithStdout(&strings.Builder{})); err != nil {
		t.Fatal(err)
	}
	defer tr.Terminate()
	if err := tr.Start(); err != nil {
		t.Fatal(err)
	}
	if err := tr.TrackFunction("fib"); err != nil {
		t.Fatal(err)
	}
	returns := 0
	for {
		before := len(log.ops)
		if err := tr.Resume(); err != nil {
			t.Fatal(err)
		}
		if _, done := tr.ExitCode(); done {
			break
		}
		r := tr.PauseReason()
		if r.Type != core.PauseReturn {
			continue
		}
		returns++
		if sent := log.ops[before:]; len(sent) != 1 || sent[0] != "-exec-continue" {
			t.Fatalf("RETURN pause %d sent %q, want one -exec-continue", returns, sent)
		}
		regs, err := tr.Registers()
		if err != nil {
			t.Fatal(err)
		}
		if r.ReturnValue == nil || r.ReturnValue.Content != int64(regs["a0"]) {
			t.Fatalf("RETURN pause %d: ReturnValue %v, a0 = %d", returns, r.ReturnValue, int64(regs["a0"]))
		}
	}
	if returns != 25 { // fib(6) makes 25 calls
		t.Errorf("%d RETURN pauses, want 25", returns)
	}
}
