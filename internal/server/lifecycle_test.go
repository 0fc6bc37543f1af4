package server

import (
	"context"
	"net"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"repro"
)

// testEngine reuses the memoized test server's engine-building path but
// returns a raw engine for lifecycle tests that need their own Server.
func testEngineOnly(t *testing.T) *maprat.Engine {
	t.Helper()
	ds, err := maprat.Generate(maprat.SmallGenConfig())
	if err != nil {
		t.Fatalf("Generate: %v", err)
	}
	eng, err := maprat.Open(ds, nil)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	return eng
}

// TestRequestTimeoutAnswers504 runs the server with an unmeetable
// deadline; the mining handlers must answer 504 Gateway Timeout instead
// of hanging or mislabelling the failure as a 404.
func TestRequestTimeoutAnswers504(t *testing.T) {
	eng := testEngineOnly(t)
	srv := httptest.NewServer(NewWithConfig(eng, Config{RequestTimeout: time.Nanosecond}))
	defer srv.Close()

	resp, err := http.Get(srv.URL + "/api/v1/explain?q=genre:Drama")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusGatewayTimeout {
		t.Fatalf("status = %d, want %d", resp.StatusCode, http.StatusGatewayTimeout)
	}
}

// TestGracefulShutdown starts Serve on an ephemeral port, confirms it
// answers, cancels the lifecycle context, and expects a clean nil return
// plus a refused connection afterwards.
func TestGracefulShutdown(t *testing.T) {
	eng := testEngineOnly(t)
	s := New(eng)

	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := ln.Addr().String()

	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() { done <- s.Serve(ctx, ln) }()

	// The server must be answering before we shut it down.
	var resp *http.Response
	for i := 0; i < 50; i++ {
		resp, err = http.Get("http://" + addr + "/healthz")
		if err == nil {
			break
		}
		time.Sleep(10 * time.Millisecond)
	}
	if err != nil {
		t.Fatalf("server never came up: %v", err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz = %d", resp.StatusCode)
	}

	cancel()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("Serve returned %v, want nil on graceful shutdown", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Serve did not return after context cancellation")
	}
	if _, err := http.Get("http://" + addr + "/healthz"); err == nil {
		t.Fatal("server still answering after shutdown")
	}
}

// TestNegativeTimeoutDisablesDeadline covers the opt-out: with a negative
// RequestTimeout the handler context is the bare request context and a
// normal query succeeds.
func TestNegativeTimeoutDisablesDeadline(t *testing.T) {
	eng := testEngineOnly(t)
	srv := httptest.NewServer(NewWithConfig(eng, Config{RequestTimeout: -1}))
	defer srv.Close()

	resp, err := http.Get(srv.URL + "/api/v1/explain?q=genre:Drama")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d, want 200", resp.StatusCode)
	}
}
