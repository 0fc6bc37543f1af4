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

// The multi-dataset tests mount two small engines over different seeds,
// so the two datasets have different fingerprints and different mining
// results.
var (
	multiOnce sync.Once
	multiSrv  *httptest.Server
	multiReg  *maprat.Registry
)

func multiServer(t *testing.T) *httptest.Server {
	t.Helper()
	multiOnce.Do(func() {
		multiReg = maprat.NewRegistry()
		for i, name := range []string{"alpha", "beta"} {
			cfg := maprat.SmallGenConfig()
			cfg.Users = 300
			cfg.Movies = 120
			cfg.Ratings = 6000
			cfg.Seed = int64(i + 1)
			ds, err := maprat.Generate(cfg)
			if err != nil {
				panic(err)
			}
			eng, err := maprat.Open(ds, nil)
			if err != nil {
				panic(err)
			}
			if err := multiReg.Add(name, eng, maprat.DatasetInfo{Source: "generated"}); err != nil {
				panic(err)
			}
		}
		multiSrv = httptest.NewServer(NewMulti(multiReg, Config{}))
	})
	return multiSrv
}

func multiGet(t *testing.T, path string, hdr map[string]string) (*http.Response, string) {
	t.Helper()
	ts := multiServer(t)
	req, err := http.NewRequest(http.MethodGet, ts.URL+path, nil)
	if err != nil {
		t.Fatal(err)
	}
	for k, v := range hdr {
		req.Header.Set(k, v)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp, string(body)
}

func multiPost(t *testing.T, path, body string) (*http.Response, string) {
	t.Helper()
	resp, err := http.Post(multiServer(t).URL+path, "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	out, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp, string(out)
}

func TestDatasetQueryRouting(t *testing.T) {
	// The same query against the two mounts must answer different data;
	// the default (no dataset param) must equal the first mount.
	resp1, bodyDefault := multiGet(t, "/api/v1/explain?q=genre:Drama", nil)
	respA, bodyAlpha := multiGet(t, "/api/v1/explain?q=genre:Drama&dataset=alpha", nil)
	respB, bodyBeta := multiGet(t, "/api/v1/explain?q=genre:Drama&dataset=beta", nil)
	for _, resp := range []*http.Response{resp1, respA, respB} {
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("status %d", resp.StatusCode)
		}
	}
	if string(scrub(t, bodyDefault)) != string(scrub(t, bodyAlpha)) {
		t.Error("default routing differs from the first mount")
	}
	if string(scrub(t, bodyAlpha)) == string(scrub(t, bodyBeta)) {
		t.Error("alpha and beta served identical results — routing is not selecting datasets")
	}
}

// TestBrowseBodySelectsDataset checks a POST body's dataset routes browse
// like the query parameter does.
func TestBrowseBodySelectsDataset(t *testing.T) {
	resp, viaBody := multiPost(t, "/api/v1/browse", `{"dataset":"beta"}`)
	_, viaQuery := multiGet(t, "/api/v1/browse?dataset=beta", nil)
	_, alpha := multiGet(t, "/api/v1/browse", nil)
	if resp.StatusCode != http.StatusOK || viaBody != viaQuery {
		t.Errorf("POST {\"dataset\":\"beta\"} = %d, differs from GET ?dataset=beta", resp.StatusCode)
	}
	if viaBody == alpha {
		t.Error("POST {\"dataset\":\"beta\"} served the default mount's states")
	}
}

func TestDatasetHeaderRouting(t *testing.T) {
	_, viaQuery := multiGet(t, "/api/v1/explain?q=genre:Drama&dataset=beta", nil)
	_, viaHeader := multiGet(t, "/api/v1/explain?q=genre:Drama", map[string]string{"X-Maprat-Dataset": "beta"})
	if string(scrub(t, viaQuery)) != string(scrub(t, viaHeader)) {
		t.Error("header routing differs from query routing for the same dataset")
	}
	// The query parameter wins over the header.
	_, both := multiGet(t, "/api/v1/explain?q=genre:Drama&dataset=alpha", map[string]string{"X-Maprat-Dataset": "beta"})
	_, alpha := multiGet(t, "/api/v1/explain?q=genre:Drama&dataset=alpha", nil)
	if string(scrub(t, both)) != string(scrub(t, alpha)) {
		t.Error("query parameter did not take precedence over the header")
	}
}

func TestDatasetUnknown404(t *testing.T) {
	for _, tc := range []struct {
		name string
		path string
		hdr  map[string]string
		// body, when set, is POSTed instead of a GET.
		body string
	}{
		{"query", "/api/v1/explain?q=genre:Drama&dataset=nope", nil, ""},
		{"header", "/api/v1/explain?q=genre:Drama", map[string]string{"X-Maprat-Dataset": "nope"}, ""},
		{"browse", "/api/v1/browse?dataset=nope", nil, ""},
		{"browse body", "/api/v1/browse", nil, `{"dataset":"nope"}`},
	} {
		t.Run(tc.name, func(t *testing.T) {
			resp, body := multiGet(t, tc.path, tc.hdr)
			if tc.body != "" {
				resp, body = multiPost(t, tc.path, tc.body)
			}
			if resp.StatusCode != http.StatusNotFound {
				t.Fatalf("status %d, want 404 (body %s)", resp.StatusCode, body)
			}
			var env ErrorEnvelope
			if err := json.Unmarshal([]byte(body), &env); err != nil {
				t.Fatalf("not an error envelope: %s", body)
			}
			if env.Error.Code != CodeDatasetNotFound {
				t.Errorf("code %q, want %q", env.Error.Code, CodeDatasetNotFound)
			}
			if !strings.Contains(env.Error.Message, "alpha") || !strings.Contains(env.Error.Message, "beta") {
				t.Errorf("message should list the mounted datasets: %s", env.Error.Message)
			}
		})
	}
}

func TestDatasetETags(t *testing.T) {
	respA, _ := multiGet(t, "/api/v1/explain?q=genre:Drama&dataset=alpha", nil)
	respB, _ := multiGet(t, "/api/v1/explain?q=genre:Drama&dataset=beta", nil)
	tagA, tagB := respA.Header.Get("ETag"), respB.Header.Get("ETag")
	if tagA == "" || tagB == "" {
		t.Fatalf("missing ETags: alpha %q, beta %q", tagA, tagB)
	}
	if tagA == tagB {
		t.Error("the two datasets share an ETag — fingerprints are not in the tag")
	}
	// Header-selected dataset must yield the header-dataset's tag even
	// though the query string is identical.
	respH, _ := multiGet(t, "/api/v1/explain?q=genre:Drama", map[string]string{"X-Maprat-Dataset": "beta"})
	respDef, _ := multiGet(t, "/api/v1/explain?q=genre:Drama", nil)
	if respH.Header.Get("ETag") == respDef.Header.Get("ETag") {
		t.Error("header-routed request got the default dataset's ETag")
	}
	// Conditional request round-trip per dataset.
	resp304, _ := multiGet(t, "/api/v1/explain?q=genre:Drama&dataset=beta", map[string]string{"If-None-Match": tagB})
	if resp304.StatusCode != http.StatusNotModified {
		t.Errorf("If-None-Match with beta's tag answered %d, want 304", resp304.StatusCode)
	}
	respMiss, _ := multiGet(t, "/api/v1/explain?q=genre:Drama&dataset=alpha", map[string]string{"If-None-Match": tagB})
	if respMiss.StatusCode != http.StatusOK {
		t.Errorf("beta's tag against alpha answered %d, want 200", respMiss.StatusCode)
	}
	// An unknown dataset must 404 out of the conditional path, never 304.
	respBad, _ := multiGet(t, "/api/v1/explain?q=genre:Drama&dataset=nope", map[string]string{"If-None-Match": tagB})
	if respBad.StatusCode != http.StatusNotFound {
		t.Errorf("unknown dataset with If-None-Match answered %d, want 404", respBad.StatusCode)
	}
}

func TestDatasetPostBody(t *testing.T) {
	ts := multiServer(t)
	post := func(body string) (int, string) {
		resp, err := http.Post(ts.URL+"/api/v1/explain", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		b, _ := io.ReadAll(resp.Body)
		return resp.StatusCode, string(b)
	}
	code, viaBody := post(`{"q":"genre:Drama","dataset":"beta"}`)
	if code != http.StatusOK {
		t.Fatalf("POST with dataset field: status %d (%s)", code, viaBody)
	}
	_, viaQuery := multiGet(t, "/api/v1/explain?q=genre:Drama&dataset=beta", nil)
	if string(scrub(t, viaBody)) != string(scrub(t, viaQuery)) {
		t.Error("POST-body dataset selection differs from query selection")
	}
	code, body := post(`{"q":"genre:Drama","dataset":"nope"}`)
	if code != http.StatusNotFound {
		t.Errorf("POST with unknown dataset: status %d (%s)", code, body)
	}
}
