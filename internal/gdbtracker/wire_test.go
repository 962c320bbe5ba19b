package gdbtracker

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"testing"
	"time"

	"easytracker/internal/core"
	"easytracker/internal/dbg"
	"easytracker/internal/isa"
	"easytracker/internal/mi"
	"easytracker/internal/minic"
	"easytracker/internal/vm"
)

// wireC puts quotes, backslashes, tabs and newlines in its State's strings.
const wireC = `struct pair { int a; char* s; };
char* g = "say \"hi\"\\n";
int main() {
    struct pair p;
    p.a = -3;
    p.s = "tab\there\nback\\slash";
    double d = 2.5;
    int* q = &p.a;
    *q = 4;
    printf("%d %s\n", p.a, g);
    return 0;
}`

// startMinigdb runs a minigdb child on an image of prog, reads its first
// prompt and returns the client's end of its stdio.
func startMinigdb(t *testing.T, prog *isa.Program) mi.Conn {
	t.Helper()
	bin := buildMinigdb(t)
	img, err := json.Marshal(prog)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "prog.mobj")
	if err := os.WriteFile(path, img, 0o644); err != nil {
		t.Fatal(err)
	}
	cmd := exec.Command(bin, path)
	stdin, err := cmd.StdinPipe()
	if err != nil {
		t.Fatal(err)
	}
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		t.Fatal(err)
	}
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		stdin.Close()
		_ = cmd.Wait()
	})
	conn := mi.NewStdioConn(stdout, stdin, stdin)
	if line, err := conn.Recv(); err != nil || line != "(gdb)" {
		t.Fatalf("minigdb greeted with %q, %v", line, err)
	}
	return conn
}

// resultLine sends one command line and returns its result record's line,
// as it crossed the transport.
func resultLine(t *testing.T, conn mi.Conn, cmd string) string {
	t.Helper()
	if err := conn.Send(cmd); err != nil {
		t.Fatal(err)
	}
	var result string
	for {
		line, err := conn.Recv()
		if err != nil {
			t.Fatalf("%s: %v", cmd, err)
		}
		if line == "(gdb)" {
			break
		}
		if rec, err := mi.ParseRecord(line); err == nil && rec.Kind == mi.ResultRecord {
			result = line
		}
	}
	if result == "" {
		t.Fatalf("%s: no result record", cmd)
	}
	return result
}

// TestInspectStateIsCodecBytes reads -et-inspect at every line of a
// program, over the in-process pipe and from a minigdb child. Each reply
// must carry the State as the codec wrote it, behind a length prefix and
// unquoted: the bytes of State().MarshalJSON() from a debugger stepped to
// the same pause.
func TestInspectStateIsCodecBytes(t *testing.T) {
	prog, err := minic.Compile("wire.c", wireC)
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name string
		dial func(t *testing.T) mi.Conn
	}{
		{"pipe", func(t *testing.T) mi.Conn {
			cl := mi.Connect(mi.NewServer(prog))
			t.Cleanup(func() { cl.Close() })
			return cl
		}},
		{"minigdb", func(t *testing.T) mi.Conn { return startMinigdb(t, prog) }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			conn := tc.dial(t)
			ref, err := dbg.New(prog, vm.Config{})
			if err != nil {
				t.Fatal(err)
			}
			stop, err := ref.Start()
			if err != nil {
				t.Fatal(err)
			}
			resultLine(t, conn, "-exec-run")
			var escaped bool
			for i := 1; stop.Reason != dbg.StopExited; i++ {
				want, err := ref.State().MarshalJSON()
				if err != nil {
					t.Fatal(err)
				}
				line := resultLine(t, conn, strconv.Itoa(i)+"-et-inspect")
				prefix := fmt.Sprintf("%d^done,state=#%d:%s,version=", i, len(want), want)
				if !strings.HasPrefix(line, prefix) {
					t.Fatalf("pause %d: reply\n%s\nwant it to start with\n%s", i, line, prefix)
				}
				rec, err := mi.ParseRecord(line)
				if err != nil || rec.GetString("state") != string(want) {
					t.Fatalf("pause %d: parsed state %q (%v), want %s", i, rec.GetString("state"), err, want)
				}
				escaped = escaped || bytes.Contains(want, []byte(`\"`)) && bytes.Contains(want, []byte(`\\`))
				if stop, err = ref.StepLine(nil); err != nil {
					t.Fatal(err)
				}
				resultLine(t, conn, "-exec-step")
			}
			if !escaped {
				t.Error("no State carried an escaped quote and backslash")
			}
		})
	}
}

// TestOutputBytesCrossUnchanged runs a program that prints a byte that is
// not UTF-8. The tracker must pass on the bytes a direct run writes, in
// process and through a minigdb child.
func TestOutputBytesCrossUnchanged(t *testing.T) {
	const src = `char s[3]; int main() { s[0] = 255; s[1] = 65; puts(s); return 0; }`
	prog, err := minic.Compile("bytes.c", src)
	if err != nil {
		t.Fatal(err)
	}
	var direct bytes.Buffer
	m, err := vm.New(prog, vm.Config{Stdout: &direct})
	if err != nil {
		t.Fatal(err)
	}
	if stop := m.Run(0); stop.Kind != vm.StopExit {
		t.Fatalf("direct run stopped with %v", stop.Kind)
	}
	if direct.String() != "\xffA\n" {
		t.Fatalf("direct run wrote %q", direct.Bytes())
	}
	for _, tc := range []struct {
		name string
		tr   func(t *testing.T) *Tracker
	}{
		{"in-process", func(*testing.T) *Tracker { return New() }},
		{"minigdb", func(t *testing.T) *Tracker { return NewSubprocess(buildMinigdb(t)) }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var out bytes.Buffer
			tr := tc.tr(t)
			if err := tr.LoadProgram("bytes.c", core.WithSource(src), core.WithStdout(&out)); err != nil {
				t.Fatal(err)
			}
			t.Cleanup(func() { _ = tr.Terminate() })
			if err := tr.Start(); err != nil {
				t.Fatal(err)
			}
			for i := 0; i < 10; i++ {
				if _, done := tr.ExitCode(); done {
					break
				}
				if err := tr.Resume(); err != nil {
					t.Fatal(err)
				}
			}
			if _, done := tr.ExitCode(); !done {
				t.Fatal("program did not exit")
			}
			if !bytes.Equal(out.Bytes(), direct.Bytes()) {
				t.Errorf("tracker output %q, direct run %q", out.Bytes(), direct.Bytes())
			}
		})
	}
}

// spinC loops forever: only an interrupt ends a Resume of it.
const spinC = `int main() {
    int n = 0;
    while (1) {
        n = n + 1;
    }
    return 0;
}`

// TestInterruptPausesResume interrupts a Resume of an endless loop from
// another goroutine, in process and through a minigdb child. The Resume
// returns an ordinary INTERRUPTED pause, and the session steps on from it.
func TestInterruptPausesResume(t *testing.T) {
	for _, tc := range []struct {
		name string
		tr   func(t *testing.T) *Tracker
	}{
		{"in-process", func(*testing.T) *Tracker { return New() }},
		{"minigdb", func(t *testing.T) *Tracker { return NewSubprocess(buildMinigdb(t)) }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			tr := tc.tr(t)
			if err := tr.LoadProgram("spin.c", core.WithSource(spinC)); err != nil {
				t.Fatal(err)
			}
			t.Cleanup(func() { _ = tr.Terminate() })
			if err := tr.Start(); err != nil {
				t.Fatal(err)
			}
			// An interrupt that lands before the Resume is latched and
			// stops it all the same.
			timer := time.AfterFunc(20*time.Millisecond, tr.Interrupt)
			defer timer.Stop()
			if err := tr.Resume(); err != nil {
				t.Fatal(err)
			}
			if r := tr.PauseReason(); r.Type != core.PauseInterrupted || r.Detail != "interrupt" {
				t.Fatalf("pause = %v, want INTERRUPTED (interrupt)", r)
			}
			if err := tr.Step(); err != nil {
				t.Fatal(err)
			}
			if r := tr.PauseReason(); r.Type != core.PauseStep {
				t.Fatalf("step after the interrupt paused with %v", r)
			}
		})
	}
}

// TestInProcessSessionStartsNoGoroutine pins the in-process transport:
// MiniGDB runs each command on the goroutine that sends it, so a live
// session holds no goroutine in internal/mi. Not parallel, since it counts
// the process's goroutines.
func TestInProcessSessionStartsNoGoroutine(t *testing.T) {
	before := miGoroutines()
	tr := start(t, fibC)
	if err := tr.Step(); err != nil {
		t.Fatal(err)
	}
	if _, err := tr.State(); err != nil {
		t.Fatal(err)
	}
	if after := miGoroutines(); len(after) > len(before) {
		t.Fatalf("the session holds %d goroutines in internal/mi:\n%s",
			len(after)-len(before), strings.Join(after, "\n\n"))
	}
}

// miGoroutines returns the stacks of the goroutines other than the
// caller's that have a frame in internal/mi.
func miGoroutines() []string {
	buf := make([]byte, 1<<16)
	for {
		n := runtime.Stack(buf, true)
		if n < len(buf) {
			buf = buf[:n]
			break
		}
		buf = make([]byte, 2*len(buf))
	}
	var out []string
	for i, g := range strings.Split(string(buf), "\n\n") {
		if i > 0 && strings.Contains(g, "easytracker/internal/mi.") {
			out = append(out, g)
		}
	}
	return out
}
