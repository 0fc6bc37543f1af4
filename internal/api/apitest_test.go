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
		hdlMemo = newHandler(engMemo, Config{})
		srvMemo = httptest.NewServer(hdlMemo)
	})
	return engMemo
}

// newHandler mounts eng as the sole (default) dataset.
func newHandler(eng *maprat.Engine, cfg Config) *Handler {
	return NewMulti(maprat.NewSingleRegistry("default", eng, maprat.DatasetInfo{}), cfg)
}

// toyStoryID returns the catalog ID of the fixture movie "Toy Story".
func toyStoryID(t testing.TB, ds *maprat.Dataset) int {
	t.Helper()
	for _, it := range ds.Items {
		if it.Title == "Toy Story" {
			return it.ID
		}
	}
	t.Fatal("fixture movie \"Toy Story\" missing")
	return 0
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

// scrub re-indents a JSON body with sorted keys, so payloads compare
// line by line and pin in readable golden files. It changes no value: every body is a
// pure function of its request and data, so a field that differs
// between two identical requests fails the comparison.
func scrub(t *testing.T, raw string) []byte {
	t.Helper()
	var v any
	if err := json.Unmarshal([]byte(raw), &v); err != nil {
		t.Fatalf("response json: %v\n%s", err, raw)
	}
	out, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		t.Fatalf("re-marshal: %v", err)
	}
	return append(out, '\n')
}
