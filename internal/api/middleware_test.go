package api

import (
	"io"
	"log"
	"net/http"
	"net/http/httptest"
	"net/url"
	"testing"
)

// TestV1MiddlewareRecovery pins the panic guard: a panicking endpoint
// answers the internal envelope instead of tearing the connection down.
func TestV1MiddlewareRecovery(t *testing.T) {
	h := New(testEngine(t), Config{})
	// Panic reports go to the process logger; keep them out of the test
	// output.
	prev := log.Writer()
	log.SetOutput(io.Discard)
	t.Cleanup(func() { log.SetOutput(prev) })
	boom := h.Wrap("boom", func(http.ResponseWriter, *http.Request) { panic("kaboom") })
	w := httptest.NewRecorder()
	boom.ServeHTTP(w, httptest.NewRequest("GET", "/api/v1/boom", nil))
	if w.Code != 500 {
		t.Fatalf("status %d, want 500", w.Code)
	}
	if got := envelopeCode(t, w.Body.String()); got != CodeInternal {
		t.Errorf("code %q, want %q", got, CodeInternal)
	}
	snap := h.MetricsSnapshot()["boom"]
	if snap.Requests != 1 || snap.Errors != 1 || snap.Status["5xx"] != 1 {
		t.Errorf("panic not counted: %+v", snap)
	}
}

// TestV1MiddlewareRequestID pins the request-ID contract: every response
// carries one, and a caller-supplied ID is echoed back.
func TestV1MiddlewareRequestID(t *testing.T) {
	ts := testServer(t)
	resp, err := http.Get(ts.URL + "/api/v1/browse")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.Header.Get("X-Request-ID") == "" {
		t.Error("response missing X-Request-ID")
	}

	req, _ := http.NewRequest("GET", ts.URL+"/api/v1/browse", nil)
	req.Header.Set("X-Request-ID", "caller-supplied-42")
	resp, err = http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if got := resp.Header.Get("X-Request-ID"); got != "caller-supplied-42" {
		t.Errorf("X-Request-ID = %q, want the caller's", got)
	}
}

// TestV1MiddlewareMetrics pins the per-endpoint counters the server
// surfaces under /statsz.
func TestV1MiddlewareMetrics(t *testing.T) {
	testEngine(t)
	before := hdlMemo.MetricsSnapshot()["explain"]
	if code, _ := get(t, "/api/v1/explain?q="+url.QueryEscape(`movie:"Toy Story"`)); code != 200 {
		t.Fatalf("explain status %d", code)
	}
	if code, _ := get(t, "/api/v1/explain"); code != 400 {
		t.Fatalf("bad explain status %d", code)
	}
	after := hdlMemo.MetricsSnapshot()["explain"]
	if after.Requests < before.Requests+2 {
		t.Errorf("requests %d -> %d, want +2", before.Requests, after.Requests)
	}
	if after.Errors < before.Errors+1 {
		t.Errorf("errors %d -> %d, want +1", before.Errors, after.Errors)
	}
	if after.Status["2xx"] <= before.Status["2xx"] || after.Status["4xx"] <= before.Status["4xx"] {
		t.Errorf("status classes did not move: %+v -> %+v", before, after)
	}
}
