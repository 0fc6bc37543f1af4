package api

import (
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"net/url"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"repro"
)

// ingestEngine opens a fresh engine with live ingestion armed — the
// shared test engine must stay immutable for the golden suites — and
// returns it with its WAL path.
func ingestEngine(t *testing.T) (*maprat.Engine, string) {
	t.Helper()
	ds, err := maprat.Generate(maprat.SmallGenConfig())
	if err != nil {
		t.Fatal(err)
	}
	eng, err := maprat.Open(ds, nil)
	if err != nil {
		t.Fatal(err)
	}
	wal := filepath.Join(t.TempDir(), "ingest.wal")
	if _, err := eng.EnableIngest(wal); err != nil {
		t.Fatal(err)
	}
	return eng, wal
}

// ingestServer mounts a fresh write-armed engine behind the v1 handler.
func ingestServer(t *testing.T) (*httptest.Server, *maprat.Engine) {
	t.Helper()
	eng, _ := ingestEngine(t)
	ts := httptest.NewServer(newHandler(eng, Config{}))
	t.Cleanup(ts.Close)
	return ts, eng
}

func postJSON(t *testing.T, ts *httptest.Server, path, body string) (int, string) {
	t.Helper()
	resp, err := http.Post(ts.URL+path, "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatalf("POST %s: %v", path, err)
	}
	defer resp.Body.Close()
	out, _ := io.ReadAll(resp.Body)
	return resp.StatusCode, string(out)
}

func appendBody(t *testing.T, eng *maprat.Engine, score int) string {
	t.Helper()
	ds := eng.Dataset()
	_, maxUnix := eng.TimeRange()
	req := AppendRequest{Ratings: []RatingInput{{
		UserID: ds.Users[0].ID,
		ItemID: toyStoryID(t, ds),
		Score:  score,
		Unix:   maxUnix + 1,
	}}}
	b, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

// TestAppendEndpointLifecycle drives the write path over HTTP: 202 with
// the assigned epoch, ETag rollover on the live view (the satellite
// regression: a previously tagged GET re-mines after a write), stable
// pinned tags, and epoch-pinned browse.
func TestAppendEndpointLifecycle(t *testing.T) {
	ts, eng := ingestServer(t)
	explainPath := "/api/v1/explain?q=" + url.QueryEscape(`movie:"Toy Story"`) + "&k=2"

	// Tag the pre-append representation.
	resp := rawGet(t, ts, explainPath, nil)
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	liveTag := resp.Header.Get("ETag")
	if resp.StatusCode != 200 || liveTag == "" {
		t.Fatalf("prime GET: status=%d etag=%q", resp.StatusCode, liveTag)
	}
	pinnedPath := explainPath + "&epoch=1"
	resp = rawGet(t, ts, pinnedPath, nil)
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	pinnedTag := resp.Header.Get("ETag")
	if resp.StatusCode != 200 || pinnedTag == "" {
		t.Fatalf("pinned GET: status=%d etag=%q", resp.StatusCode, pinnedTag)
	}

	// Append one rating: 202 + epoch 2.
	code, body := postJSON(t, ts, "/api/v1/ratings", appendBody(t, eng, 5))
	if code != http.StatusAccepted {
		t.Fatalf("append: status=%d body=%s", code, body)
	}
	var ar AppendResponse
	if err := json.Unmarshal([]byte(body), &ar); err != nil {
		t.Fatalf("append response: %v\n%s", err, body)
	}
	if ar.Epoch != 2 || ar.Accepted != 1 {
		t.Fatalf("append response = %+v, want epoch 2, accepted 1", ar)
	}

	// The satellite-1 regression: the pre-append tag is stale — a
	// conditional GET re-mines (200, fresh tag) instead of answering 304.
	mines := eng.MineCount()
	resp = rawGet(t, ts, explainPath, map[string]string{"If-None-Match": liveTag})
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != 200 {
		t.Fatalf("stale-tag GET after append: status=%d, want 200", resp.StatusCode)
	}
	if eng.MineCount() == mines {
		t.Fatal("stale-tag GET did not re-mine")
	}
	newTag := resp.Header.Get("ETag")
	if newTag == "" || newTag == liveTag {
		t.Fatalf("ETag did not roll: %q -> %q", liveTag, newTag)
	}

	// The pinned tag stays valid: same epoch, same bytes, 304.
	resp = rawGet(t, ts, pinnedPath, map[string]string{"If-None-Match": pinnedTag})
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotModified {
		t.Fatalf("pinned conditional GET: status=%d, want 304", resp.StatusCode)
	}

	// Epoch-pinned browse serves the frozen view; a future epoch is a
	// client error.
	for _, tc := range []struct {
		path string
		code int
	}{
		{"/api/v1/browse?epoch=1", 200},
		{"/api/v1/browse?epoch=2", 200},
		{"/api/v1/browse?epoch=99", 400},
		{"/api/v1/explain?q=x&epoch=banana", 400},
	} {
		resp, err := http.Get(ts.URL + tc.path)
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != tc.code {
			t.Errorf("GET %s: status=%d, want %d", tc.path, resp.StatusCode, tc.code)
		}
	}

	// A POST body pins browse like the query string: the same bytes, and
	// not the latest epoch's.
	resp = rawGet(t, ts, "/api/v1/browse?epoch=1", nil)
	pinned, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	code, viaBody := postJSON(t, ts, "/api/v1/browse", `{"epoch":1}`)
	if code != http.StatusOK || viaBody != string(pinned) {
		t.Errorf("POST {\"epoch\":1} = %d, differs from GET ?epoch=1", code)
	}
	if _, latest := postJSON(t, ts, "/api/v1/browse", `{}`); latest == viaBody {
		t.Error("browse at epoch 1 equals the latest epoch's; the append moved no state")
	}
}

func TestAppendEndpointRejectsBadBatches(t *testing.T) {
	ts, eng := ingestServer(t)
	cases := []struct {
		name, body string
		wantCode   ErrorCode
	}{
		{"empty batch", `{"ratings":[]}`, CodeBadRequest},
		{"malformed json", `{"ratings":`, CodeBadRequest},
		{"unknown user", `{"ratings":[{"user_id":99999999,"item_id":1,"score":5,"unix":978300000}]}`, CodeBadRequest},
		{"timestamp past year 9999", `{"ratings":[{"user_id":1,"item_id":1,"score":5,"unix":253402300800}]}`, CodeBadRequest},
		// A server serves one dataset; a body naming one is an unknown field.
		{"dataset field", `{"dataset":"nope","ratings":[{"user_id":1,"item_id":1,"score":5,"unix":978300000}]}`, CodeBadRequest},
	}
	for _, tc := range cases {
		code, body := postJSON(t, ts, "/api/v1/ratings", tc.body)
		if code < 400 || code >= 500 {
			t.Errorf("%s: status=%d, want a 4xx", tc.name, code)
			continue
		}
		if got := envelopeCode(t, body); got != tc.wantCode {
			t.Errorf("%s: code=%q, want %q", tc.name, got, tc.wantCode)
		}
	}
	if eng.CurrentEpoch() != 1 {
		t.Fatalf("rejected batches advanced the epoch to %d", eng.CurrentEpoch())
	}

	// GET is not a write.
	resp, err := http.Get(ts.URL + "/api/v1/ratings")
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("GET /ratings: status=%d, want 405", resp.StatusCode)
	}
}

// TestAppendEndpointDisabledEngine: the shared server's engine never
// armed ingestion, so a write answers the unavailable envelope — the
// deployment may simply route writes elsewhere.
func TestAppendEndpointDisabledEngine(t *testing.T) {
	code, body := post(t, "/api/v1/ratings",
		`{"ratings":[{"user_id":1,"item_id":1,"score":5,"unix":978300000}]}`)
	if code != http.StatusServiceUnavailable {
		t.Fatalf("status=%d, want 503\n%s", code, body)
	}
	if got := envelopeCode(t, body); got != CodeUnavailable {
		t.Fatalf("code=%q, want %q", got, CodeUnavailable)
	}
}

// TestAppendAdmissionBound: with every pending-append slot taken, a
// batch answers 429 queue_full with Retry-After and leaves the epoch
// alone; once a slot frees, the same batch is accepted at the next
// epoch.
func TestAppendAdmissionBound(t *testing.T) {
	eng, _ := ingestEngine(t)
	h := newHandler(eng, Config{})
	ts := httptest.NewServer(h)
	t.Cleanup(ts.Close)
	for range maxPendingAppends {
		h.appendSlots <- struct{}{}
	}
	body := appendBody(t, eng, 4)

	resp, err := http.Post(ts.URL+"/api/v1/ratings", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	out, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("append with every slot taken: status=%d, want 429\n%s", resp.StatusCode, out)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Error("429 carries no Retry-After")
	}
	if got := envelopeCode(t, string(out)); got != CodeQueueFull {
		t.Errorf("code=%q, want %q", got, CodeQueueFull)
	}
	if eng.CurrentEpoch() != 1 {
		t.Fatalf("rejected batch advanced the epoch to %d", eng.CurrentEpoch())
	}

	<-h.appendSlots
	code, out2 := postJSON(t, ts, "/api/v1/ratings", body)
	var ar AppendResponse
	if code != http.StatusAccepted || json.Unmarshal([]byte(out2), &ar) != nil || ar.Epoch != 2 {
		t.Fatalf("append after a slot freed: status=%d body=%s, want 202 at epoch 2", code, out2)
	}
}

// TestAppendSingleWriter: concurrent batches are applied one at a time,
// each at its own epoch, with no gaps and no batch lost.
func TestAppendSingleWriter(t *testing.T) {
	ts, eng := ingestServer(t)
	const writers = 8
	epochs := make(chan uint64, writers)
	var wg sync.WaitGroup
	for i := range writers {
		wg.Add(1)
		go func(score int) {
			defer wg.Done()
			resp, err := http.Post(ts.URL+"/api/v1/ratings", "application/json", strings.NewReader(appendBody(t, eng, score)))
			if err != nil {
				t.Error(err)
				return
			}
			defer resp.Body.Close()
			var ar AppendResponse
			if resp.StatusCode != http.StatusAccepted || json.NewDecoder(resp.Body).Decode(&ar) != nil {
				t.Errorf("concurrent append: status %d", resp.StatusCode)
				return
			}
			epochs <- ar.Epoch
		}(i%5 + 1)
	}
	wg.Wait()
	close(epochs)
	seen := map[uint64]bool{}
	for ep := range epochs {
		if seen[ep] || ep < 2 || ep > writers+1 {
			t.Errorf("epoch %d assigned twice or out of range", ep)
		}
		seen[ep] = true
	}
	if len(seen) != writers || eng.CurrentEpoch() != writers+1 {
		t.Fatalf("%d distinct epochs, current %d; want %d batches ending at epoch %d", len(seen), eng.CurrentEpoch(), writers, writers+1)
	}
}

// TestAppendSurvivesDisconnect: a batch whose client is already gone
// still applies and is logged — the WAL write and the in-memory apply
// are all-or-nothing, never abandoned halfway.
func TestAppendSurvivesDisconnect(t *testing.T) {
	eng, wal := ingestEngine(t)
	h := newHandler(eng, Config{})
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	req := httptest.NewRequest(http.MethodPost, "/api/v1/ratings", strings.NewReader(appendBody(t, eng, 2))).WithContext(ctx)
	h.ServeHTTP(httptest.NewRecorder(), req)

	deadline := time.Now().Add(10 * time.Second)
	for eng.CurrentEpoch() != 2 {
		if time.Now().After(deadline) {
			t.Fatalf("epoch = %d after a disconnected append, want 2", eng.CurrentEpoch())
		}
		time.Sleep(5 * time.Millisecond)
	}
	// Replaying the WAL into a fresh engine lands on the same epoch.
	ds, err := maprat.Generate(maprat.SmallGenConfig())
	if err != nil {
		t.Fatal(err)
	}
	replay, err := maprat.Open(ds, nil)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = replay.Close() })
	epoch, err := replay.EnableIngest(wal)
	if err != nil {
		t.Fatal(err)
	}
	if epoch != 2 {
		t.Fatalf("WAL replay lands on epoch %d, want 2", epoch)
	}
}
