package mi

import (
	"io"
	"testing"
	"time"

	"easytracker/internal/minic"
)

// TestStdioTransportFullSession runs a complete client/server session over
// the byte-stream transport (what cmd/minigdb speaks on stdin/stdout),
// proving the line protocol is subprocess-safe.
func TestStdioTransportFullSession(t *testing.T) {
	prog, err := minic.Compile("p.c", `int main() {
    int x = 41;
    x = x + 1;
    printf("%d\n", x);
    return 0;
}`)
	if err != nil {
		t.Fatal(err)
	}

	// Two unidirectional byte pipes, like a subprocess's stdin/stdout.
	cliR, srvW := io.Pipe()
	srvR, cliW := io.Pipe()
	server := NewStdioConn(srvR, srvW, nil)
	client := NewStdioConn(cliR, cliW, nil)

	srv := NewServer(prog)
	done := make(chan struct{})
	go func() {
		_ = srv.Serve(server)
		close(done)
	}()

	cl := NewClient(client)
	resp, err := cl.Send("-exec-run")
	if err != nil {
		t.Fatal(err)
	}
	stopped, ok := resp.Stopped()
	if !ok || stopped.GetString("reason") != "entry" {
		t.Fatalf("entry stop: %v", refPrint(resp.Result))
	}
	if _, err := cl.Send("-exec-next"); err != nil {
		t.Fatal(err)
	}
	resp, err = cl.Send("-et-inspect")
	if err != nil {
		t.Fatal(err)
	}
	if resp.Result.GetString("state") == "" {
		t.Fatal("no state over stdio")
	}
	resp, err = cl.Send("-exec-continue")
	if err != nil {
		t.Fatal(err)
	}
	stopped, _ = resp.Stopped()
	if stopped.GetString("reason") != "exited" {
		t.Fatalf("final stop: %s", refPrint(stopped))
	}
	if out := cl.TakeOutput(); out != "42\n" {
		t.Errorf("inferior output = %q", out)
	}
	if _, err := cl.Send("-gdb-exit"); err != nil {
		t.Fatal(err)
	}
	<-done
}

func TestStdioConnLineFraming(t *testing.T) {
	r, w := io.Pipe()
	conn := NewStdioConn(r, w, nil)
	go func() {
		_ = conn.Send("first line")
		_ = conn.Send(`second with "quotes" and \escapes`)
		w.Close()
	}()
	reader := NewStdioConn(r, io.Discard, nil)
	l1, err := reader.Recv()
	if err != nil || l1 != "first line" {
		t.Fatalf("line 1: %q %v", l1, err)
	}
	l2, err := reader.Recv()
	if err != nil || l2 != `second with "quotes" and \escapes` {
		t.Fatalf("line 2: %q %v", l2, err)
	}
	if _, err := reader.Recv(); err == nil {
		t.Fatal("EOF not reported")
	}
}

// TestStdioInterruptDuringContinue interrupts an endless -exec-continue
// over the byte-stream transport, where Serve's reader goroutine must read
// the -exec-interrupt line while the loop runs. The interrupted stop
// answers the continue, and the next command's reply carries its own
// token: the interrupt got no reply of its own.
func TestStdioInterruptDuringContinue(t *testing.T) {
	prog, err := minic.Compile("spin.c", `int main() {
    int n = 0;
    while (1) {
        n = n + 1;
    }
    return 0;
}`)
	if err != nil {
		t.Fatal(err)
	}
	cliR, srvW := io.Pipe()
	srvR, cliW := io.Pipe()
	done := make(chan struct{})
	go func() {
		_ = NewServer(prog).Serve(NewStdioConn(srvR, srvW, nil))
		close(done)
	}()
	cl := NewClient(NewStdioConn(cliR, cliW, nil))
	if _, err := cl.Send("-exec-run"); err != nil {
		t.Fatal(err)
	}
	go func() {
		time.Sleep(20 * time.Millisecond)
		if err := cl.Interrupt(); err != nil {
			t.Error(err)
		}
	}()
	resp, err := cl.Send("-exec-continue")
	if err != nil {
		t.Fatal(err)
	}
	stopped, ok := resp.Stopped()
	if !ok || stopped.GetString("reason") != "interrupted" || stopped.GetString("detail") != "interrupt" {
		t.Fatalf("continue answered %s", refPrint(stopped))
	}
	resp, err = cl.Send("-et-inspect")
	if err != nil {
		t.Fatal(err)
	}
	if resp.Result.Token != "3" || resp.Result.GetString("version") == "" {
		t.Fatalf("third command answered %s", refPrint(resp.Result))
	}
	if _, err := cl.Send("-gdb-exit"); err != nil {
		t.Fatal(err)
	}
	<-done
}

// TestConnRecvBlocksUntilClose pins the in-process conn's end of life: a
// Recv with no reply queued waits, as on a hung debugger, until Close
// wakes it, and every call after Close fails with ErrClosed.
func TestConnRecvBlocksUntilClose(t *testing.T) {
	prog, err := minic.Compile("p.c", "int main() { return 0; }")
	if err != nil {
		t.Fatal(err)
	}
	c := Connect(NewServer(prog))
	if err := c.Send("1-exec-run"); err != nil {
		t.Fatal(err)
	}
	for {
		line, err := c.Recv()
		if err != nil {
			t.Fatal(err)
		}
		if line == "(gdb)" {
			break
		}
	}
	got := make(chan error, 1)
	go func() {
		_, err := c.Recv()
		got <- err
	}()
	select {
	case err := <-got:
		t.Fatalf("Recv with no reply queued returned %v", err)
	case <-time.After(50 * time.Millisecond):
	}
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
	if err := <-got; err != ErrClosed {
		t.Errorf("blocked recv woke with %v", err)
	}
	if err := c.Send("2-exec-next"); err != ErrClosed {
		t.Errorf("send after close = %v", err)
	}
	if _, err := c.Recv(); err != ErrClosed {
		t.Errorf("recv after close = %v", err)
	}
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
}
