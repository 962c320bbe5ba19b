package vnet

import (
	"bytes"
	"errors"
	"io"
	"net"
	"sync"
	"testing"
	"time"
)

// dialPair connects a client endpoint to a freshly accepted server side.
func dialPair(t *testing.T, n *Network, from, to string, l net.Listener) (net.Conn, net.Conn) {
	t.Helper()
	type res struct {
		c   net.Conn
		err error
	}
	ch := make(chan res, 1)
	go func() {
		c, err := l.Accept()
		ch <- res{c, err}
	}()
	client, err := n.Dial(from, to)
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	r := <-ch
	if r.err != nil {
		t.Fatalf("accept: %v", r.err)
	}
	return client, r.c
}

func TestVnetRoundTrip(t *testing.T) {
	n := New(1)
	l, err := n.Listen("srv")
	if err != nil {
		t.Fatal(err)
	}
	client, server := dialPair(t, n, "cli", "srv", l)
	defer client.Close()
	defer server.Close()

	if _, err := client.Write([]byte("hello")); err != nil {
		t.Fatalf("write: %v", err)
	}
	buf := make([]byte, 16)
	m, err := server.Read(buf)
	if err != nil || string(buf[:m]) != "hello" {
		t.Fatalf("read: %q, %v", buf[:m], err)
	}
	if _, err := server.Write([]byte("world")); err != nil {
		t.Fatalf("write back: %v", err)
	}
	m, err = client.Read(buf)
	if err != nil || string(buf[:m]) != "world" {
		t.Fatalf("read back: %q, %v", buf[:m], err)
	}
	if client.LocalAddr().String() != "cli" || client.RemoteAddr().String() != "srv" {
		t.Fatalf("addrs: %v -> %v", client.LocalAddr(), client.RemoteAddr())
	}
}

// TestVnetWriteDoesNotRetain reuses a written buffer before the peer reads
// it, as a writer with pooled frame buffers does: io.Writer forbids Write
// from keeping the slice, so the peer must read what was written.
func TestVnetWriteDoesNotRetain(t *testing.T) {
	n := New(1)
	l, err := n.Listen("srv")
	if err != nil {
		t.Fatal(err)
	}
	client, server := dialPair(t, n, "cli", "srv", l)
	defer client.Close()
	defer server.Close()

	b := []byte("hello")
	if _, err := client.Write(b); err != nil {
		t.Fatalf("write: %v", err)
	}
	copy(b, "XXXXX")
	buf := make([]byte, 16)
	m, err := server.Read(buf)
	if err != nil || string(buf[:m]) != "hello" {
		t.Fatalf("read: %q, %v; want the bytes as written", buf[:m], err)
	}
}

func TestVnetDialFailures(t *testing.T) {
	n := New(1)
	if _, err := n.Dial("cli", "nowhere"); !errors.Is(err, ErrRefused) {
		t.Fatalf("no listener: %v", err)
	}
	l, _ := n.Listen("srv")
	defer l.Close()

	n.RefuseNext("srv", 1)
	if _, err := n.Dial("cli", "srv"); !errors.Is(err, ErrRefused) {
		t.Fatalf("injected refusal: %v", err)
	}

	n.Partition("cli", "srv")
	if _, err := n.Dial("cli", "srv"); !errors.Is(err, ErrUnreachable) {
		t.Fatalf("partitioned dial: %v", err)
	}
	n.Heal("cli", "srv")
	c, s := dialPair(t, n, "cli", "srv", l)
	c.Close()
	s.Close()
}

func TestVnetPartitionBlackholesAndHeals(t *testing.T) {
	n := New(1)
	l, _ := n.Listen("srv")
	defer l.Close()
	client, server := dialPair(t, n, "cli", "srv", l)
	defer client.Close()
	defer server.Close()

	n.Partition("cli", "srv")
	if _, err := client.Write([]byte("lost")); err != nil {
		t.Fatalf("blackholed write must look successful: %v", err)
	}
	server.SetReadDeadline(time.Now().Add(30 * time.Millisecond))
	buf := make([]byte, 8)
	if _, err := server.Read(buf); err == nil {
		t.Fatal("read across a partition delivered data")
	} else {
		var ne net.Error
		if !errors.As(err, &ne) || !ne.Timeout() {
			t.Fatalf("want timeout net.Error, got %v", err)
		}
	}

	n.Heal("cli", "srv")
	server.SetReadDeadline(time.Time{})
	if _, err := client.Write([]byte("back")); err != nil {
		t.Fatal(err)
	}
	m, err := server.Read(buf)
	if err != nil || string(buf[:m]) != "back" {
		t.Fatalf("after heal: %q, %v (dropped data must stay lost)", buf[:m], err)
	}
}

func TestVnetPartitionOneWay(t *testing.T) {
	n := New(1)
	l, _ := n.Listen("srv")
	defer l.Close()
	client, server := dialPair(t, n, "cli", "srv", l)
	defer client.Close()
	defer server.Close()

	// Server -> client blackholed; client -> server still flows.
	n.PartitionOneWay("srv", "cli")
	if _, err := client.Write([]byte("ping")); err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 8)
	m, err := server.Read(buf)
	if err != nil || string(buf[:m]) != "ping" {
		t.Fatalf("forward direction: %q, %v", buf[:m], err)
	}
	if _, err := server.Write([]byte("pong")); err != nil {
		t.Fatal(err)
	}
	client.SetReadDeadline(time.Now().Add(30 * time.Millisecond))
	if _, err := client.Read(buf); err == nil {
		t.Fatal("reverse direction delivered across one-way partition")
	}
}

func TestVnetSeverResetsBothEnds(t *testing.T) {
	n := New(1)
	l, _ := n.Listen("srv")
	defer l.Close()
	client, server := dialPair(t, n, "cli", "srv", l)

	done := make(chan error, 1)
	go func() {
		_, err := server.Read(make([]byte, 8))
		done <- err
	}()
	time.Sleep(5 * time.Millisecond)
	n.Sever("cli", "srv")
	select {
	case err := <-done:
		if !errors.Is(err, ErrSevered) {
			t.Fatalf("blocked read after sever: %v", err)
		}
	case <-time.After(time.Second):
		t.Fatal("sever did not unblock reader")
	}
	if _, err := client.Write([]byte("x")); err == nil {
		t.Fatal("write on severed conn succeeded")
	}
}

func TestVnetSeverAfterTearsMidPrefix(t *testing.T) {
	n := New(1)
	l, _ := n.Listen("srv")
	defer l.Close()
	client, server := dialPair(t, n, "cli", "srv", l)
	defer client.Close()
	defer server.Close()

	// Tear after 2 bytes: a 4-byte length prefix is cut in half. The
	// reader drains the prefix and gets a clean EOF (FIN mid-frame); the
	// writer is reset.
	n.SeverAfter("cli", "srv", 2)
	if _, err := client.Write([]byte{0, 0, 0, 9}); err != nil {
		t.Fatalf("writer must not see the tear: %v", err)
	}
	got, err := io.ReadAll(server)
	if err != nil {
		t.Fatalf("want clean EOF after drain, got %v", err)
	}
	if !bytes.Equal(got, []byte{0, 0}) {
		t.Fatalf("delivered prefix = %v, want exactly 2 bytes", got)
	}
	if _, err := client.Write([]byte("more")); !errors.Is(err, ErrSevered) {
		t.Fatalf("writer after tear: %v, want ErrSevered", err)
	}
}

func TestVnetSeverAfterSpansWrites(t *testing.T) {
	n := New(1)
	l, _ := n.Listen("srv")
	defer l.Close()
	client, server := dialPair(t, n, "cli", "srv", l)
	defer client.Close()
	defer server.Close()

	// Budget 6 bytes across two writes: 4-byte prefix fully delivered,
	// payload torn after 2 bytes.
	n.SeverAfter("cli", "srv", 6)
	if _, err := client.Write([]byte{0, 0, 0, 9}); err != nil {
		t.Fatal(err)
	}
	if _, err := client.Write([]byte("payload--")); err != nil {
		t.Fatal(err)
	}
	got, err := io.ReadAll(server)
	if err != nil {
		t.Fatalf("want clean EOF, got %v", err)
	}
	if !bytes.Equal(got, []byte{0, 0, 0, 9, 'p', 'a'}) {
		t.Fatalf("delivered = %v, want prefix + 2 payload bytes", got)
	}
}

func TestVnetLatencyOrderingAndJitterDeterminism(t *testing.T) {
	n := New(42)
	l, _ := n.Listen("srv")
	defer l.Close()
	client, server := dialPair(t, n, "cli", "srv", l)
	defer client.Close()
	defer server.Close()

	n.SetFaults("cli", "srv", Faults{Latency: 20 * time.Millisecond, Jitter: 10 * time.Millisecond})
	t0 := time.Now()
	client.Write([]byte("a"))
	client.Write([]byte("b"))
	buf := make([]byte, 4)
	var got []byte
	for len(got) < 2 {
		m, err := server.Read(buf)
		if err != nil {
			t.Fatal(err)
		}
		got = append(got, buf[:m]...)
	}
	if string(got) != "ab" {
		t.Fatalf("jitter reordered delivery: %q", got)
	}
	if el := time.Since(t0); el < 20*time.Millisecond {
		t.Fatalf("latency not applied: %v", el)
	}
}

func TestVnetBandwidthDelaysLargeFrames(t *testing.T) {
	n := New(1)
	l, _ := n.Listen("srv")
	defer l.Close()
	client, server := dialPair(t, n, "cli", "srv", l)
	defer client.Close()
	defer server.Close()

	// 1000 bytes at 10 kB/s: ~100ms in flight.
	n.SetFaults("cli", "srv", Faults{Bandwidth: 10000})
	t0 := time.Now()
	client.Write(make([]byte, 1000))
	var total int
	buf := make([]byte, 2048)
	for total < 1000 {
		m, err := server.Read(buf)
		if err != nil {
			t.Fatal(err)
		}
		total += m
	}
	if el := time.Since(t0); el < 80*time.Millisecond {
		t.Fatalf("bandwidth cap not applied: %v", el)
	}
}

func TestVnetCorruptionIsDeterministic(t *testing.T) {
	run := func(seed uint64) []byte {
		n := New(seed)
		l, _ := n.Listen("srv")
		defer l.Close()
		client, server := dialPair(t, n, "cli", "srv", l)
		defer client.Close()
		defer server.Close()
		n.SetFaults("cli", "srv", Faults{CorruptProb: 0.2})
		src := bytes.Repeat([]byte("easytracker"), 20)
		client.Write(src)
		got := make([]byte, len(src))
		if _, err := io.ReadFull(server, got); err != nil {
			t.Fatal(err)
		}
		return got
	}
	a, b := run(7), run(7)
	if !bytes.Equal(a, b) {
		t.Fatal("same seed produced different corruption")
	}
	src := bytes.Repeat([]byte("easytracker"), 20)
	if bytes.Equal(a, src) {
		t.Fatal("corruption probability 0.2 altered nothing")
	}
}

func TestVnetHalfClose(t *testing.T) {
	n := New(1)
	l, _ := n.Listen("srv")
	defer l.Close()
	client, server := dialPair(t, n, "cli", "srv", l)
	defer client.Close()
	defer server.Close()

	client.Write([]byte("last"))
	if err := client.(*Conn).CloseWrite(); err != nil {
		t.Fatal(err)
	}
	got, err := io.ReadAll(server)
	if err != nil || string(got) != "last" {
		t.Fatalf("peer must drain then EOF: %q, %v", got, err)
	}
	// The half-closed side still reads.
	server.Write([]byte("reply"))
	buf := make([]byte, 8)
	m, err := client.Read(buf)
	if err != nil || string(buf[:m]) != "reply" {
		t.Fatalf("half-closed side read: %q, %v", buf[:m], err)
	}
	if _, err := client.Write([]byte("x")); err == nil {
		t.Fatal("write after CloseWrite succeeded")
	}
}

func TestVnetCloseGivesPeerEOF(t *testing.T) {
	n := New(1)
	l, _ := n.Listen("srv")
	defer l.Close()
	client, server := dialPair(t, n, "cli", "srv", l)
	defer server.Close()

	client.Write([]byte("bye"))
	client.Close()
	got, err := io.ReadAll(server)
	if err != nil || string(got) != "bye" {
		t.Fatalf("peer after close: %q, %v", got, err)
	}
	if _, err := client.Read(make([]byte, 1)); !errors.Is(err, ErrClosed) {
		t.Fatalf("read on closed conn: %v", err)
	}
}

func TestVnetReadDeadlineRearms(t *testing.T) {
	n := New(1)
	l, _ := n.Listen("srv")
	defer l.Close()
	client, server := dialPair(t, n, "cli", "srv", l)
	defer client.Close()
	defer server.Close()

	// The idle-eviction loop depends on a timed-out conn staying usable
	// once the deadline is re-armed.
	server.SetReadDeadline(time.Now().Add(20 * time.Millisecond))
	if _, err := server.Read(make([]byte, 4)); err == nil {
		t.Fatal("deadline did not fire")
	}
	server.SetReadDeadline(time.Now().Add(time.Second))
	client.Write([]byte("ok"))
	buf := make([]byte, 4)
	m, err := server.Read(buf)
	if err != nil || string(buf[:m]) != "ok" {
		t.Fatalf("read after re-arm: %q, %v", buf[:m], err)
	}
	// Immediate kick: a deadline in the past unblocks a parked reader.
	done := make(chan error, 1)
	go func() {
		server.SetReadDeadline(time.Time{})
		_, err := server.Read(make([]byte, 4))
		done <- err
	}()
	time.Sleep(10 * time.Millisecond)
	server.SetReadDeadline(time.Now())
	select {
	case err := <-done:
		var ne net.Error
		if !errors.As(err, &ne) || !ne.Timeout() {
			t.Fatalf("want timeout, got %v", err)
		}
	case <-time.After(time.Second):
		t.Fatal("past deadline did not unblock reader")
	}
}

func TestVnetListenerClose(t *testing.T) {
	n := New(1)
	l, _ := n.Listen("srv")
	accErr := make(chan error, 1)
	go func() {
		_, err := l.Accept()
		accErr <- err
	}()
	time.Sleep(5 * time.Millisecond)
	l.Close()
	if err := <-accErr; err == nil {
		t.Fatal("Accept returned nil after Close")
	}
	if _, err := n.Dial("cli", "srv"); !errors.Is(err, ErrRefused) {
		t.Fatalf("dial after listener close: %v", err)
	}
	// The address is reusable.
	if _, err := n.Listen("srv"); err != nil {
		t.Fatalf("rebind: %v", err)
	}
}

func TestVnetConcurrentTrafficRaceClean(t *testing.T) {
	n := New(99)
	l, _ := n.Listen("srv")
	defer l.Close()

	// Echo server.
	go func() {
		for {
			c, err := l.Accept()
			if err != nil {
				return
			}
			go func() {
				defer c.Close()
				io.Copy(c, c)
			}()
		}
	}()

	const peers = 32
	var wg sync.WaitGroup
	for i := 0; i < peers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			name := string(rune('a'+i%26)) + "-cli"
			c, err := n.Dial(name, "srv")
			if err != nil {
				t.Errorf("dial: %v", err)
				return
			}
			defer c.Close()
			msg := bytes.Repeat([]byte{byte(i)}, 128)
			for j := 0; j < 20; j++ {
				if _, err := c.Write(msg); err != nil {
					return
				}
				got := make([]byte, len(msg))
				if _, err := io.ReadFull(c, got); err != nil {
					return
				}
				if !bytes.Equal(got, msg) {
					t.Errorf("echo mismatch for peer %d", i)
					return
				}
			}
		}(i)
	}
	// Faults churn concurrently with traffic.
	stop := make(chan struct{})
	go func() {
		for {
			select {
			case <-stop:
				return
			default:
				n.SetFaults("a-cli", "srv", Faults{Latency: time.Millisecond})
				n.SetFaults("a-cli", "srv", Faults{})
				time.Sleep(100 * time.Microsecond)
			}
		}
	}()
	wg.Wait()
	close(stop)
}
