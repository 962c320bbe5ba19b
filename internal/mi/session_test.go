package mi

import (
	"errors"
	"testing"
	"time"

	"easytracker/internal/minic"
)

// faultSession wires a client through a FaultConn to a live in-process MI
// server, the setup every session-layer test shares.
func faultSession(t *testing.T) (*Client, *FaultConn) {
	t.Helper()
	prog, err := minic.Compile("p.c", `int main() {
    int x = 1;
    x = x + 1;
    return 0;
}`)
	if err != nil {
		t.Fatal(err)
	}
	fc := NewFaultConn(Connect(NewServer(prog)))
	return NewClient(fc), fc
}

func TestClientTimeoutPassthrough(t *testing.T) {
	cl, _ := faultSession(t)
	cl.Timeout = 5 * time.Second
	defer cl.Close()
	resp, err := cl.Send("-exec-run")
	if err != nil {
		t.Fatal(err)
	}
	if stop, ok := resp.Stopped(); !ok || stop.GetString("reason") != "entry" {
		t.Fatalf("entry stop within a deadline: %v", refPrint(resp.Result))
	}
}

func TestClientTimeoutPoisons(t *testing.T) {
	cl, fc := faultSession(t)
	cl.Timeout = 80 * time.Millisecond
	if _, err := cl.Send("-exec-run"); err != nil {
		t.Fatal(err)
	}
	// Swallow the whole next response: the client hangs on a reply that
	// never arrives, and only the deadline gets control back.
	fc.DropResponses(1000)
	start := time.Now()
	resp, err := cl.Send("-exec-next")
	if resp != nil || err == nil {
		t.Fatalf("want transport failure, got resp=%v err=%v", resp, err)
	}
	if !errors.Is(err, ErrTimeout) {
		t.Fatalf("want ErrTimeout, got %v", err)
	}
	if d := time.Since(start); d > 3*time.Second {
		t.Fatalf("deadline did not bound the round trip: %v", d)
	}
	// The connection is poisoned: reusing it fails immediately rather
	// than desynchronizing on a late response.
	fc.DropResponses(0)
	if resp, err := cl.Send("-exec-next"); err == nil {
		t.Fatalf("poisoned client accepted a command: %v", refPrint(resp.Result))
	}
}

func TestClientTimeoutZeroMeansNoDeadline(t *testing.T) {
	cl, fc := faultSession(t)
	defer cl.Close()
	fc.DelayRecv(20 * time.Millisecond) // a delay no zero-deadline should trip on
	if _, err := cl.Send("-exec-run"); err != nil {
		t.Fatal(err)
	}
}

func TestFaultConnKillAfterCommands(t *testing.T) {
	cl, fc := faultSession(t)
	fc.KillAfterCommands(2)
	if _, err := cl.Send("-exec-run"); err != nil {
		t.Fatal(err)
	}
	if _, err := cl.Send("-exec-next"); err != nil {
		t.Fatal(err)
	}
	resp, err := cl.Send("-exec-next")
	if resp != nil || !errors.Is(err, ErrClosed) {
		t.Fatalf("want ErrClosed on command 3, got resp=%v err=%v", resp, err)
	}
	if fc.Sends() != 3 {
		t.Fatalf("sends = %d, want 3", fc.Sends())
	}
}

func TestFaultConnCorruptResponses(t *testing.T) {
	cl, fc := faultSession(t)
	fc.CorruptResponses(1)
	resp, err := cl.Send("-exec-run")
	if resp != nil || err == nil {
		t.Fatalf("want parse failure on corrupted line, got resp=%v err=%v", resp, err)
	}
}

func TestFaultConnNoFaultsIsTransparent(t *testing.T) {
	cl, _ := faultSession(t)
	for _, op := range []string{"-exec-run", "-exec-next", "-et-inspect"} {
		if _, err := cl.Send(op); err != nil {
			t.Fatalf("%s through idle FaultConn: %v", op, err)
		}
	}
}
