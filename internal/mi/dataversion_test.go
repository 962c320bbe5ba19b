package mi

import (
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"testing"

	"easytracker/internal/minic"
)

// getVersion reads the data version -et-inspect reports.
func getVersion(t *testing.T, cl *Client) uint64 {
	t.Helper()
	resp, err := cl.Send("-et-inspect")
	if err != nil {
		t.Fatal(err)
	}
	v, err := strconv.ParseUint(resp.Result.GetString("version"), 10, 64)
	if err != nil {
		t.Fatalf("bad version %q: %v", resp.Result.GetString("version"), err)
	}
	return v
}

// TestInspectVersionTracksStores: the data version -et-inspect reports
// advances across stores and holds still with no execution between two
// reads.
func TestInspectVersionTracksStores(t *testing.T) {
	src := `int g = 0;
int main() {
    g = 1;
    g = 2;
    return 0;
}`
	cl := startServer(t, src)
	if _, err := cl.Send("-exec-run"); err != nil {
		t.Fatal(err)
	}
	if _, err := cl.Send("-break-watch", "g"); err != nil {
		t.Fatal(err)
	}
	v0 := getVersion(t, cl)

	// First watch hit: stores happened, so the data version advanced.
	resp, err := cl.Send("-exec-continue")
	if err != nil {
		t.Fatal(err)
	}
	stopped, _ := resp.Stopped()
	if stopped.GetString("reason") != "watchpoint-trigger" {
		t.Fatalf("stop = %s", refPrint(stopped))
	}
	v1 := getVersion(t, cl)
	if v1 <= v0 {
		t.Errorf("version did not advance across stores: %d -> %d", v0, v1)
	}

	// No execution between two queries: the version is stable (this is
	// what lets clients reuse cached state).
	if a, b := getVersion(t, cl), getVersion(t, cl); a != b {
		t.Errorf("version changed with no execution: %d -> %d", a, b)
	}
}

func TestEtInspectCarriesVersion(t *testing.T) {
	src := `int main() {
    int x = 1;
    x = 2;
    return 0;
}`
	cl := startServer(t, src)
	if _, err := cl.Send("-exec-run"); err != nil {
		t.Fatal(err)
	}
	resp, err := cl.Send("-et-inspect")
	if err != nil {
		t.Fatal(err)
	}
	if resp.Result.GetString("state") == "" {
		t.Fatal("-et-inspect returned no state")
	}
	if _, err := strconv.ParseUint(resp.Result.GetString("version"), 10, 64); err != nil {
		t.Errorf("-et-inspect version = %q, want a number", resp.Result.GetString("version"))
	}
}

// stopsC stops at entry, after steps into and out of a call, at a
// breakpoint, at a watch trigger, after a finish and at exit.
const stopsC = `int g = 0;
int bump(int x) {
    g = g + x;
    return g;
}
int main() {
    int s = 0;
    for (int i = 0; i < 3; i++) {
        s = s + bump(i);
    }
    return s;
}`

var stopsCmds = []string{
	"-exec-run", "-exec-step", "-exec-next", "-exec-step", "-exec-step",
	"-exec-finish", "-break-insert 3", "-exec-continue", "-break-watch g",
}

// checkStopsCarryVersion sends stopsCmds over cl, then continues to the
// exit. Every *stopped record but the exit must carry a version and an
// addr equal to own()'s, read right after the stop; the exit must carry
// neither.
func checkStopsCarryVersion(t *testing.T, cl *Client, own func() (version, addr string)) {
	t.Helper()
	stops := map[string]int{}
	send := func(line string) {
		t.Helper()
		f := strings.Fields(line)
		resp, err := cl.Send(f[0], f[1:]...)
		if err != nil {
			t.Fatalf("%s: %v", line, err)
		}
		st, ok := resp.Stopped()
		if !ok {
			return
		}
		reason := st.GetString("reason")
		stops[reason]++
		ver, addr := st.GetString("version"), st.GetString("addr")
		if reason == "exited" {
			if ver != "" || addr != "" {
				t.Errorf("%s: exit record carries version %q, addr %q", line, ver, addr)
			}
			return
		}
		if wantVer, wantAddr := own(); ver != wantVer || addr != wantAddr {
			t.Errorf("%s (%s): *stopped version %q addr %q, the debugger's are %q and %q",
				line, reason, ver, addr, wantVer, wantAddr)
		}
	}
	for _, line := range stopsCmds {
		send(line)
	}
	for i := 0; i < 40 && stops["exited"] == 0; i++ {
		send("-exec-continue")
	}
	for _, r := range []string{"entry", "end-stepping-range", "breakpoint-hit", "watchpoint-trigger", "exited"} {
		if stops[r] == 0 {
			t.Errorf("no %s stop among %v", r, stops)
		}
	}
}

// TestStoppedCarriesVersionAndAddr checks the in-process server against
// its debugger's own counters, and a minigdb child against the version
// -et-inspect reports and the pc -data-list-register-values reads.
func TestStoppedCarriesVersionAndAddr(t *testing.T) {
	t.Run("pipe", func(t *testing.T) {
		prog, err := minic.Compile("stops.c", stopsC)
		if err != nil {
			t.Fatal(err)
		}
		srv := NewServer(prog)
		cl := NewClient(Connect(srv))
		defer cl.Close()
		checkStopsCarryVersion(t, cl, func() (string, string) {
			return strconv.FormatUint(srv.d.DataVersion(), 10), fmt.Sprintf("%#x", srv.d.Machine().PC())
		})
	})
	t.Run("minigdb", func(t *testing.T) {
		dir := t.TempDir()
		bin := filepath.Join(dir, "minigdb")
		if out, err := exec.Command("go", "build", "-o", bin, "easytracker/cmd/minigdb").CombinedOutput(); err != nil {
			t.Skipf("cannot build minigdb: %v\n%s", err, out)
		}
		src := filepath.Join(dir, "stops.c")
		if err := os.WriteFile(src, []byte(stopsC), 0o644); err != nil {
			t.Fatal(err)
		}
		cmd := exec.Command(bin, src)
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
		defer func() {
			stdin.Close()
			_ = cmd.Wait()
		}()
		conn := NewStdioConn(stdout, stdin, stdin)
		if line, err := conn.Recv(); err != nil || line != "(gdb)" {
			t.Fatalf("minigdb greeted with %q, %v", line, err)
		}
		cl := NewClient(conn)
		checkStopsCarryVersion(t, cl, func() (string, string) {
			resp, err := cl.Send("-data-list-register-values", "x")
			if err != nil {
				t.Fatal(err)
			}
			regs, _ := resp.Result.Results.Get("register-values").(List)
			for _, r := range regs {
				if r, _ := r.(Tuple); r.GetString("name") == "pc" {
					pc, err := strconv.ParseUint(r.GetString("value"), 10, 64)
					if err != nil {
						t.Fatal(err)
					}
					return strconv.FormatUint(getVersion(t, cl), 10), fmt.Sprintf("%#x", pc)
				}
			}
			t.Fatalf("no pc among %s", refPrint(resp.Result))
			return "", ""
		})
	})
}
