package remote

import (
	"context"
	"encoding/json"
	"io"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"easytracker/internal/core"
	"easytracker/internal/spanexport"
)

// get performs one request against the telemetry handler, returning status
// and body.
func get(t *testing.T, ts *httptest.Server, path string) (int, string) {
	t.Helper()
	resp, err := ts.Client().Get(ts.URL + path)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, string(body)
}

func TestTelemetryEndpoints(t *testing.T) {
	srv, addr := startServer(t)
	ts := httptest.NewServer(srv.TelemetryHandler())
	defer ts.Close()

	tr := connectPy(t, addr)
	if err := tr.Start(); err != nil {
		t.Fatal(err)
	}

	t.Run("healthz", func(t *testing.T) {
		code, body := get(t, ts, "/healthz")
		if code != 200 || !strings.Contains(body, "ok") {
			t.Fatalf("healthz: %d %q", code, body)
		}
	})

	t.Run("readyz live", func(t *testing.T) {
		code, body := get(t, ts, "/readyz")
		if code != 200 || !strings.Contains(body, "ready") {
			t.Fatalf("readyz: %d %q", code, body)
		}
	})

	t.Run("metrics", func(t *testing.T) {
		code, body := get(t, ts, "/metrics")
		if code != 200 || body == "" {
			t.Fatalf("metrics: %d empty=%v", code, body == "")
		}
		for _, want := range []string{
			"et_obs_enabled 1",
			"et_sessions_live 1",
			"et_draining 0",
			"et_remote_sessions_opened_total 1",
		} {
			if !strings.Contains(body, want) {
				t.Errorf("metrics exposition missing %q\n%s", want, body)
			}
		}
	})

	t.Run("sessions", func(t *testing.T) {
		code, body := get(t, ts, "/sessions")
		if code != 200 {
			t.Fatalf("sessions: %d", code)
		}
		var infos []SessionInfo
		if err := json.Unmarshal([]byte(body), &infos); err != nil {
			t.Fatalf("sessions JSON: %v\n%s", err, body)
		}
		if len(infos) != 1 {
			t.Fatalf("sessions = %d, want 1", len(infos))
		}
		in := infos[0]
		if in.Kind != "minipy" || !in.Loaded || in.Exited {
			t.Fatalf("session info drifted: %+v", in)
		}
		if in.FramesIn == 0 || in.FramesOut == 0 {
			t.Fatalf("frame counters not moving: %+v", in)
		}
		if want := tr.PauseReason().String(); in.Pause != want || want == "" {
			t.Fatalf("session pause = %q, want the client's %q", in.Pause, want)
		}
	})

	t.Run("spans", func(t *testing.T) {
		code, body := get(t, ts, "/spans")
		if code != 200 {
			t.Fatalf("spans: %d", code)
		}
		dump, err := spanexport.DecodeDump([]byte(body))
		if err != nil {
			t.Fatal(err)
		}
		if dump.Proc != "et-serve" || len(dump.Spans) == 0 {
			t.Fatalf("span dump drifted: proc=%q n=%d", dump.Proc, len(dump.Spans))
		}
		code, chrome := get(t, ts, "/spans?chrome=1")
		if code != 200 || !strings.Contains(chrome, `"traceEvents"`) {
			t.Fatalf("chrome spans: %d", code)
		}
	})

	t.Run("pprof", func(t *testing.T) {
		code, body := get(t, ts, "/debug/pprof/")
		if code != 200 || !strings.Contains(body, "goroutine") {
			t.Fatalf("pprof index: %d", code)
		}
	})
}

// TestTelemetryReadyzDrain proves the readiness flip: /readyz answers 503
// the moment Shutdown begins, while /healthz stays 200 — the handler remains
// serviceable through the drain.
func TestTelemetryReadyzDrain(t *testing.T) {
	srv, addr := startServer(t)
	ts := httptest.NewServer(srv.TelemetryHandler())
	defer ts.Close()

	tr := connectPy(t, addr)
	if err := tr.Start(); err != nil {
		t.Fatal(err)
	}

	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	done := make(chan struct{})
	go func() {
		defer close(done)
		srv.Shutdown(ctx)
	}()

	deadline := time.Now().Add(2 * time.Second)
	for {
		code, _ := get(t, ts, "/readyz")
		if code == 503 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("/readyz never flipped to 503 during drain")
		}
		time.Sleep(5 * time.Millisecond)
	}
	if code, _ := get(t, ts, "/healthz"); code != 200 {
		t.Fatalf("healthz during drain: %d", code)
	}
	if code, body := get(t, ts, "/metrics"); code != 200 || !strings.Contains(body, "et_draining 1") {
		t.Fatalf("metrics during drain: %d", code)
	}

	tr.Close() // release the session so the drain completes
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("drain never completed")
	}
}

// TestTelemetryConcurrentScrape hammers every endpoint while sessions run —
// the handler must hold under -race next to live wire traffic.
func TestTelemetryConcurrentScrape(t *testing.T) {
	srv, addr := startServer(t)
	ts := httptest.NewServer(srv.TelemetryHandler())
	defer ts.Close()

	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			tr, err := Connect(addr, "minipy")
			if err != nil {
				t.Error(err)
				return
			}
			defer tr.Close()
			if err := tr.LoadProgram("count.py", core.WithSource(countPy)); err != nil {
				t.Error(err)
				return
			}
			if err := tr.Start(); err != nil {
				t.Error(err)
				return
			}
			tr.Resume()
		}()
	}
	for i := 0; i < 3; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 20; j++ {
				for _, p := range []string{"/metrics", "/sessions", "/spans", "/readyz"} {
					if code, _ := get(t, ts, p); code != 200 {
						t.Errorf("%s returned %d under load", p, code)
						return
					}
				}
			}
		}()
	}
	wg.Wait()
}
