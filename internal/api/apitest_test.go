package api

import (
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"

	"repro"
)

// The api tests share one small engine and one mounted handler: dataset
// generation dominates the suite's cost and every endpoint is safe for
// concurrent use.
var (
	engOnce sync.Once
	engMemo *maprat.Engine
	hdlMemo *Handler
	srvMemo *httptest.Server
)

func testEngine(t testing.TB) *maprat.Engine {
	t.Helper()
	engOnce.Do(func() {
		ds, err := maprat.Generate(maprat.SmallGenConfig())
		if err != nil {
			panic(err)
		}
		engMemo, err = maprat.Open(ds, nil)
		if err != nil {
			panic(err)
		}
		hdlMemo = New(engMemo, Config{})
		srvMemo = httptest.NewServer(hdlMemo)
	})
	return engMemo
}

func testServer(t testing.TB) *httptest.Server {
	t.Helper()
	testEngine(t)
	return srvMemo
}

func get(t testing.TB, path string) (int, string) {
	t.Helper()
	ts := testServer(t)
	resp, err := http.Get(ts.URL + path)
	if err != nil {
		t.Fatalf("GET %s: %v", path, err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("read body: %v", err)
	}
	return resp.StatusCode, string(body)
}

func post(t testing.TB, path, body string) (int, string) {
	t.Helper()
	ts := testServer(t)
	resp, err := http.Post(ts.URL+path, "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatalf("POST %s: %v", path, err)
	}
	defer resp.Body.Close()
	out, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("read body: %v", err)
	}
	return resp.StatusCode, string(out)
}

// envelopeCode extracts the machine-readable code from an error response.
func envelopeCode(t *testing.T, body string) ErrorCode {
	t.Helper()
	var env ErrorEnvelope
	if err := json.Unmarshal([]byte(body), &env); err != nil {
		t.Fatalf("error envelope json: %v\n%s", err, body)
	}
	if env.Error.Code == "" || env.Error.Message == "" {
		t.Fatalf("incomplete error envelope: %s", body)
	}
	return env.Error.Code
}

// scrub normalizes the non-deterministic response fields (elapsed_ms,
// from_cache — timing and cache state depend on test order) so payloads
// can be compared byte-for-byte and pinned in golden files.
func scrub(t *testing.T, raw string) []byte {
	t.Helper()
	var v any
	if err := json.Unmarshal([]byte(raw), &v); err != nil {
		t.Fatalf("response json: %v\n%s", err, raw)
	}
	scrubValue(v)
	out, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		t.Fatalf("re-marshal: %v", err)
	}
	return append(out, '\n')
}

func scrubValue(v any) {
	switch x := v.(type) {
	case map[string]any:
		if _, ok := x["elapsed_ms"]; ok {
			x["elapsed_ms"] = 0.0
		}
		if _, ok := x["from_cache"]; ok {
			x["from_cache"] = false
		}
		for _, child := range x {
			scrubValue(child)
		}
	case []any:
		for _, child := range x {
			scrubValue(child)
		}
	}
}
