package server

import (
	"context"
	"encoding/json"
	"net"
	"net/http"
	"net/url"
	"strings"
	"testing"
	"time"

	"repro/internal/api"
	"repro/internal/jobs"
)

// TestV1ExplainInstrumented checks that /api/v1/explain, served through
// the server mux, runs the v1 middleware stack: the response carries the
// request-ID header the stack adds and the traffic shows up in the
// /statsz "api" counters.
func TestV1ExplainInstrumented(t *testing.T) {
	ts := testServer(t)
	resp, err := http.Get(ts.URL + "/api/v1/explain?q=" + url.QueryEscape(`movie:"Toy Story"`))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("v1 explain status %d", resp.StatusCode)
	}
	if resp.Header.Get("X-Request-ID") == "" {
		t.Error("v1 explain bypassed the middleware stack: no X-Request-ID")
	}

	code, body := get(t, ts, "/statsz")
	if code != http.StatusOK {
		t.Fatalf("statsz status %d", code)
	}
	var stats struct {
		API map[string]struct {
			Requests uint64            `json:"requests"`
			Status   map[string]uint64 `json:"status"`
		} `json:"api"`
	}
	if err := json.Unmarshal([]byte(body), &stats); err != nil {
		t.Fatalf("statsz json: %v", err)
	}
	ep, ok := stats.API["explain"]
	if !ok || ep.Requests == 0 || ep.Status["2xx"] == 0 {
		t.Fatalf("statsz has no explain counters: %+v", stats.API)
	}
}

// TestStatszJobGauges submits a job through the server mux and checks
// the jobs section of /statsz accounts for it.
func TestStatszJobGauges(t *testing.T) {
	ts := testServer(t)
	resp, err := http.Post(ts.URL+"/api/v1/jobs", "application/json",
		strings.NewReader(`{"op":"explain","q":"movie:\"Toy Story\"","k":2}`))
	if err != nil {
		t.Fatal(err)
	}
	var st struct {
		ID    string `json:"id"`
		State string `json:"state"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted || st.ID == "" {
		t.Fatalf("submit: %d %+v", resp.StatusCode, st)
	}
	deadline := time.Now().Add(10 * time.Second)
	for {
		r2, err := http.Get(ts.URL + "/api/v1/jobs/" + st.ID)
		if err != nil {
			t.Fatal(err)
		}
		json.NewDecoder(r2.Body).Decode(&st)
		r2.Body.Close()
		if st.State == "done" || st.State == "failed" || st.State == "canceled" {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("job stuck in %q", st.State)
		}
		time.Sleep(5 * time.Millisecond)
	}
	if st.State != "done" {
		t.Fatalf("job state %q, want done", st.State)
	}

	_, body := get(t, ts, "/statsz")
	var stats struct {
		Jobs jobs.Stats `json:"jobs"`
	}
	if err := json.Unmarshal([]byte(body), &stats); err != nil {
		t.Fatalf("statsz json: %v", err)
	}
	if stats.Jobs.Submitted == 0 || stats.Jobs.Completed == 0 || stats.Jobs.Workers == 0 {
		t.Fatalf("statsz jobs section not reporting: %+v", stats.Jobs)
	}
}

// TestShutdownDrainsJobs pins the drain contract: a job running when
// shutdown starts still completes, and its result stays retrievable
// until the listener actually closes.
func TestShutdownDrainsJobs(t *testing.T) {
	eng := testEngineOnly(t)
	gate := make(chan struct{}, 1)
	s := NewWithConfig(eng, Config{Config: api.Config{Jobs: jobs.Config{Workers: 1, Queue: 4, Gate: gate}}})

	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	base := "http://" + ln.Addr().String()
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() { done <- s.Serve(ctx, ln) }()

	var ready bool
	for i := 0; i < 100 && !ready; i++ {
		if resp, err := http.Get(base + "/healthz"); err == nil {
			resp.Body.Close()
			ready = true
		} else {
			time.Sleep(10 * time.Millisecond)
		}
	}
	if !ready {
		t.Fatal("server never came up")
	}

	resp, err := http.Post(base+"/api/v1/jobs", "application/json",
		strings.NewReader(`{"op":"explain","q":"movie:\"Toy Story\"","k":2}`))
	if err != nil {
		t.Fatal(err)
	}
	var st struct {
		ID    string `json:"id"`
		State string `json:"state"`
	}
	json.NewDecoder(resp.Body).Decode(&st)
	resp.Body.Close()

	// Let the worker start the job, then shut down while it may still be
	// running: Serve must return nil (clean drain, not a timeout).
	gate <- struct{}{}
	cancel()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("Serve returned %v, want nil after draining jobs", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("Serve never returned")
	}
	// The manager was drained: the job finished rather than being left
	// queued forever.
	snap := s.api.JobStats()
	if snap.Running != 0 || snap.Queued != 0 {
		t.Fatalf("jobs not drained: %+v", snap)
	}
	if snap.Completed+snap.Canceled != 1 {
		t.Fatalf("job neither completed nor canceled on shutdown: %+v", snap)
	}
}
