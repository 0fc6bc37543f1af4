package api

import (
	"bufio"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"net/url"
	"strings"
	"testing"
	"time"

	"repro/internal/jobs"
)

// submitJob POSTs a submit body and returns status, headers and body.
func submitJob(t *testing.T, ts *httptest.Server, body string) (int, http.Header, string) {
	t.Helper()
	resp, err := http.Post(ts.URL+"/api/v1/jobs", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatalf("POST /api/v1/jobs: %v", err)
	}
	defer resp.Body.Close()
	return resp.StatusCode, resp.Header, readAll(t, resp)
}

func readAll(t *testing.T, resp *http.Response) string {
	t.Helper()
	var sb strings.Builder
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 0, 64*1024), 1<<22)
	for sc.Scan() {
		sb.WriteString(sc.Text())
		sb.WriteByte('\n')
	}
	if err := sc.Err(); err != nil {
		t.Fatalf("read body: %v", err)
	}
	return sb.String()
}

func jobStatusOf(t *testing.T, body string) JobStatus {
	t.Helper()
	var st JobStatus
	if err := json.Unmarshal([]byte(body), &st); err != nil {
		t.Fatalf("job status json: %v\n%s", err, body)
	}
	return st
}

// pollJob polls until terminal (10s deadline) and returns the final
// status body.
func pollJob(t *testing.T, ts *httptest.Server, id string) JobStatus {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		code, body := getFrom(t, ts, "/api/v1/jobs/"+id)
		if code != 200 {
			t.Fatalf("GET job: %d %s", code, body)
		}
		st := jobStatusOf(t, body)
		switch st.State {
		case "done", "failed", "canceled":
			return st
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatal("job never reached a terminal state")
	return JobStatus{}
}

func getFrom(t *testing.T, ts *httptest.Server, path string) (int, string) {
	t.Helper()
	resp, err := http.Get(ts.URL + path)
	if err != nil {
		t.Fatalf("GET %s: %v", path, err)
	}
	defer resp.Body.Close()
	return resp.StatusCode, readAll(t, resp)
}

// TestJobSubmitLifecycle covers the 202 contract and the determinism
// acceptance criterion: a job's result document must be byte-identical
// (modulo the scrubbed timing fields) to the synchronous endpoint's
// response for the same seeded request.
func TestJobSubmitLifecycle(t *testing.T) {
	ts := testServer(t)
	code, hdr, body := submitJob(t, ts, `{"op":"explain","q":"movie:\"Toy Story\"","k":2,"seed":11,"restarts":12}`)
	if code != http.StatusAccepted {
		t.Fatalf("submit status = %d, want 202: %s", code, body)
	}
	st := jobStatusOf(t, body)
	if st.ID == "" || (st.State != "queued" && st.State != "running") {
		t.Fatalf("submit answered %+v", st)
	}
	if loc := hdr.Get("Location"); loc != "/api/v1/jobs/"+st.ID {
		t.Fatalf("Location = %q, want /api/v1/jobs/%s", loc, st.ID)
	}

	final := pollJob(t, ts, st.ID)
	if final.State != "done" || final.Error != nil || len(final.Result) == 0 {
		t.Fatalf("final status = %+v, want done with a result", final)
	}
	if final.Started == "" || final.Finished == "" {
		t.Fatalf("missing timestamps: %+v", final)
	}

	// The corresponding synchronous call.
	syncCode, syncBody := get(t, "/api/v1/explain?q="+url.QueryEscape(`movie:"Toy Story"`)+"&k=2&seed=11&restarts=12")
	if syncCode != 200 {
		t.Fatalf("sync explain: %d %s", syncCode, syncBody)
	}
	if got, want := string(scrub(t, string(final.Result))), string(scrub(t, syncBody)); got != want {
		t.Errorf("job result diverges from the synchronous endpoint:\njob:  %s\nsync: %s", got, want)
	}
}

// TestJobSSEContract pins the event-stream shape: an SSE content type,
// `event:`/`data:` framing, at least one restart-progress event for a
// multi-restart explain, and a terminal `done` event that ends the
// stream.
func TestJobSSEContract(t *testing.T) {
	ts := testServer(t)
	// A knob set no other test uses, so the mine actually runs (cache
	// hits report no restart progress).
	code, _, body := submitJob(t, ts, `{"op":"explain","q":"genre:Thriller","k":2,"seed":23,"restarts":20}`)
	if code != http.StatusAccepted {
		t.Fatalf("submit: %d %s", code, body)
	}
	id := jobStatusOf(t, body).ID

	resp, err := http.Get(ts.URL + "/api/v1/jobs/" + id + "/events")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != 200 {
		t.Fatalf("events status = %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/event-stream") {
		t.Fatalf("Content-Type = %q, want text/event-stream", ct)
	}

	type event struct {
		typ  string
		data string
	}
	var events []event
	var cur event
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		line := sc.Text()
		switch {
		case line == "":
			if cur.typ != "" {
				events = append(events, cur)
			}
			cur = event{}
		case strings.HasPrefix(line, "event:"):
			cur.typ = strings.TrimSpace(strings.TrimPrefix(line, "event:"))
		case strings.HasPrefix(line, "data:"):
			cur.data = strings.TrimSpace(strings.TrimPrefix(line, "data:"))
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatalf("stream read: %v", err)
	}
	if len(events) == 0 {
		t.Fatal("stream delivered no events")
	}
	last := events[len(events)-1]
	if last.typ != "done" {
		t.Fatalf("last event = %q, want done (events: %+v)", last.typ, events)
	}
	finalSt := jobStatusOf(t, last.data)
	if finalSt.State != "done" || len(finalSt.Result) != 0 {
		t.Fatalf("terminal event payload = %+v, want done without inline result", finalSt)
	}
	progress := 0
	for _, ev := range events {
		if ev.typ != "progress" {
			continue
		}
		progress++
		var p JobProgress
		if err := json.Unmarshal([]byte(ev.data), &p); err != nil {
			t.Fatalf("progress payload %q: %v", ev.data, err)
		}
		if p.Total != 20 || p.Done < 1 || p.Done > p.Total {
			t.Fatalf("progress %+v out of range (total should be 20)", p)
		}
	}
	if progress < 1 {
		t.Fatalf("stream delivered %d progress events, want >= 1 (events: %+v)", progress, events)
	}
}

// TestJobQueueFull pins admission control: with the pool gated and the
// one queue slot taken, the next submit answers 429 + Retry-After +
// queue_full — not a hung connection. The gated backlog is then
// released and drains normally.
func TestJobQueueFull(t *testing.T) {
	eng := testEngine(t)
	gate := make(chan struct{})
	h := New(eng, Config{Jobs: jobs.Config{Workers: 1, Queue: 1, Gate: gate}})
	ts := httptest.NewServer(h)
	defer ts.Close()
	defer close(gate)

	submit := `{"op":"explain","q":"movie:\"Toy Story\"","k":2}`
	code, _, body := submitJob(t, ts, submit)
	if code != http.StatusAccepted {
		t.Fatalf("first submit: %d %s", code, body)
	}
	// Wait for the gated worker to take the first job off the queue so
	// the second submit deterministically occupies the only slot.
	deadline := time.Now().Add(5 * time.Second)
	for h.JobStats().Queued != 0 {
		if time.Now().After(deadline) {
			t.Fatal("worker never dequeued the first job")
		}
		time.Sleep(time.Millisecond)
	}
	code, _, body = submitJob(t, ts, submit)
	if code != http.StatusAccepted {
		t.Fatalf("second submit: %d %s", code, body)
	}

	start := time.Now()
	resp, err := http.Post(ts.URL+"/api/v1/jobs", "application/json", strings.NewReader(submit))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	rejected := readAll(t, resp)
	if elapsed := time.Since(start); elapsed > 2*time.Second {
		t.Fatalf("rejection took %s — admission control must not block", elapsed)
	}
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("status = %d, want 429: %s", resp.StatusCode, rejected)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("429 without Retry-After")
	}
	// The hint must come from the effective job timeout (the default,
	// since this config left it zero), not the raw zero: 5m/4 = 75s,
	// clamped to the 30s cap — not the 1s floor.
	if ra := resp.Header.Get("Retry-After"); ra != "30" {
		t.Fatalf("Retry-After = %q, want 30 (derived from the defaulted job timeout)", ra)
	}
	if c := envelopeCode(t, rejected); c != CodeQueueFull {
		t.Fatalf("code = %q, want queue_full", c)
	}
}

// TestJobCancelQueued cancels a job the gated pool never started.
func TestJobCancelQueued(t *testing.T) {
	eng := testEngine(t)
	gate := make(chan struct{})
	h := New(eng, Config{Jobs: jobs.Config{Workers: 1, Queue: 4, Gate: gate}})
	ts := httptest.NewServer(h)
	defer ts.Close()
	defer close(gate)

	_, _, body := submitJob(t, ts, `{"op":"explain","q":"movie:\"Toy Story\"","k":2}`)
	id := jobStatusOf(t, body).ID

	req, _ := http.NewRequest(http.MethodDelete, ts.URL+"/api/v1/jobs/"+id, nil)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	st := jobStatusOf(t, readAll(t, resp))
	if resp.StatusCode != 200 || st.State != "canceled" {
		t.Fatalf("cancel answered %d %+v, want canceled", resp.StatusCode, st)
	}
}

// TestJobErrors covers the failure contract of the async surface.
func TestJobErrors(t *testing.T) {
	ts := testServer(t)

	t.Run("unknown job", func(t *testing.T) {
		code, body := get(t, "/api/v1/jobs/job-999999")
		if code != 404 || envelopeCode(t, body) != CodeJobNotFound {
			t.Fatalf("got %d %s, want 404 job_not_found", code, body)
		}
	})
	t.Run("unknown job events", func(t *testing.T) {
		code, body := get(t, "/api/v1/jobs/job-999999/events")
		if code != 404 || envelopeCode(t, body) != CodeJobNotFound {
			t.Fatalf("got %d %s, want 404 job_not_found", code, body)
		}
	})
	t.Run("bad op", func(t *testing.T) {
		code, _, body := submitJob(t, ts, `{"op":"teleport","q":"movie:\"Toy Story\""}`)
		if code != 400 || envelopeCode(t, body) != CodeBadRequest {
			t.Fatalf("got %d %s, want 400 bad_request", code, body)
		}
	})
	t.Run("bad params fail at submit", func(t *testing.T) {
		// One bad knob per op: the submit must fail with exactly the 400
		// the synchronous endpoint answers for the same parameters.
		for _, tc := range []struct{ op, knobs string }{
			{"explain", `"k":99`},
			{"group", `"limit":2`}, // missing key
			{"refine", `"key":"state=CA","limit":-1`},
			{"drill", `"key":"state=CA","task":"zz"`},
			{"evolution", `"from":2001,"to":1999`},
			{"explain", `"k":1,"tasks":["dm"]`},
			{"drill", `"key":"state=CA","task":"dm","k":1`},
			{"evolution", `"k":1`},
		} {
			params := `"q":"movie:\"Toy Story\"",` + tc.knobs + `}`
			code, _, body := submitJob(t, ts, `{"op":"`+tc.op+`",`+params)
			if code != 400 || envelopeCode(t, body) != CodeBadRequest {
				t.Fatalf("%s: got %d %s, want 400 bad_request", tc.op, code, body)
			}
			syncCode, syncBody := postJSON(t, ts, "/api/v1/"+tc.op, `{`+params)
			if syncCode != 400 {
				t.Fatalf("%s: sync endpoint answered %d %s, want 400", tc.op, syncCode, syncBody)
			}
			var job, sync ErrorEnvelope
			if err := json.Unmarshal([]byte(body), &job); err != nil {
				t.Fatal(err)
			}
			if err := json.Unmarshal([]byte(syncBody), &sync); err != nil {
				t.Fatal(err)
			}
			if job.Error != sync.Error {
				t.Errorf("%s: submit error %+v, sync error %+v", tc.op, job.Error, sync.Error)
			}
		}
	})
	t.Run("GET on the collection", func(t *testing.T) {
		code, body := get(t, "/api/v1/jobs")
		if code != 405 || envelopeCode(t, body) != CodeMethodNotAllowed {
			t.Fatalf("got %d %s, want 405", code, body)
		}
	})
	t.Run("mining failure becomes a failed job", func(t *testing.T) {
		_, _, body := submitJob(t, ts, `{"op":"explain","q":"movie:\"Zyzzyva The Unfilmed\""}`)
		st := pollJob(t, ts, jobStatusOf(t, body).ID)
		if st.State != "failed" || st.Error == nil || st.Error.Code != CodeNoItems {
			t.Fatalf("status = %+v, want failed/no_items", st)
		}
	})
}

// TestJobOpsMatchSyncEndpoints runs every non-explain op through the job
// surface and checks the result document against its synchronous twin.
func TestJobOpsMatchSyncEndpoints(t *testing.T) {
	ts := testServer(t)
	toyStory := url.QueryEscape(`movie:"Toy Story"`)
	caKey := url.QueryEscape("state=CA")
	cases := []struct {
		op   string
		body string
		sync string
	}{
		{"group", `{"op":"group","q":"movie:\"Toy Story\"","key":"state=CA","buckets":4,"limit":3}`,
			"/api/v1/group?q=" + toyStory + "&key=" + caKey + "&buckets=4&limit=3"},
		{"refine", `{"op":"refine","q":"movie:\"Toy Story\"","key":"state=CA","limit":5}`,
			"/api/v1/refine?q=" + toyStory + "&key=" + caKey + "&limit=5"},
		{"drill", `{"op":"drill","q":"movie:\"Toy Story\"","key":"state=CA","k":2}`,
			"/api/v1/drill?q=" + toyStory + "&key=" + caKey + "&k=2"},
		{"evolution", `{"op":"evolution","q":"movie:\"Toy Story\"","from":1999,"to":2001,"k":2,"tasks":["sm"]}`,
			"/api/v1/evolution?q=" + toyStory + "&from=1999&to=2001&k=2&tasks=sm"},
	}
	for _, c := range cases {
		t.Run(c.op, func(t *testing.T) {
			code, _, body := submitJob(t, ts, c.body)
			if code != http.StatusAccepted {
				t.Fatalf("submit: %d %s", code, body)
			}
			st := pollJob(t, ts, jobStatusOf(t, body).ID)
			if st.State != "done" {
				t.Fatalf("job state %q: %+v", st.State, st)
			}
			syncCode, syncBody := get(t, c.sync)
			if syncCode != 200 {
				t.Fatalf("sync: %d %s", syncCode, syncBody)
			}
			if got, want := string(scrub(t, string(st.Result))), string(scrub(t, syncBody)); got != want {
				t.Errorf("job result diverges from sync:\njob:  %s\nsync: %s", got, want)
			}
		})
	}
}
