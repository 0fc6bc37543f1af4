package api

import (
	"context"
	"encoding/json"
	"flag"
	"io"
	"net/http"
	"net/http/httptest"
	"net/url"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"repro"
	"repro/internal/core"
)

// -update regenerates the golden contract files:
//
//	go test ./internal/api -run Contract -update
var update = flag.Bool("update", false, "rewrite golden contract files")

// contractCase is one GET request of the pinned v1 contract.
type contractCase struct {
	name   string
	golden string
	path   string
}

var (
	contractToyStory = url.QueryEscape(`movie:"Toy Story"`)
	contractCAKey    = url.QueryEscape("state=CA")
)

// contractCases are the requests whose bodies the golden files pin.
var contractCases = []contractCase{
	{
		name:   "explain",
		golden: "explain.golden.json",
		path:   "/api/v1/explain?q=" + contractToyStory + "&k=2",
	},
	{
		name:   "explain framework mode",
		golden: "explain_geo_off.golden.json",
		path:   "/api/v1/explain?q=" + contractToyStory + "&geo=off&coverage=0.10&k=2",
	},
	{
		name:   "group",
		golden: "group.golden.json",
		path:   "/api/v1/group?q=" + contractToyStory + "&key=" + contractCAKey + "&buckets=4&limit=3",
	},
	{
		// A key only the framework cube holds: on a state-anchored query it
		// cannot exist, so the request reaches it through geo=off alone.
		name:   "group framework mode",
		golden: "group_geo_off.golden.json",
		path:   "/api/v1/group?q=" + contractToyStory + "&key=" + url.QueryEscape("age=18-24,occupation=K-12 student") + "&geo=off&buckets=4&limit=3",
	},
	{
		name:   "refine",
		golden: "refine.golden.json",
		path:   "/api/v1/refine?q=" + contractToyStory + "&key=" + contractCAKey + "&limit=5",
	},
	{
		name:   "drill",
		golden: "drill.golden.json",
		path:   "/api/v1/drill?q=" + contractToyStory + "&key=" + contractCAKey + "&k=2",
	},
	{
		name:   "evolution",
		golden: "evolution.golden.json",
		path:   "/api/v1/evolution?q=" + contractToyStory + "&from=1999&to=2001&k=2&tasks=sm",
	},
	{
		name:   "browse",
		golden: "browse.golden.json",
		path:   "/api/v1/browse",
	},
}

// TestV1ContractGolden pins the exact JSON every /api/v1 endpoint
// returns for a fixed dataset, seed and knob set. Bodies are compared
// with every value as written, only re-indented with sorted keys.
// Everything in them — field names, group ordering, GeoJSON geometry,
// error gaps in the evolution sweep — is part of the versioned contract
// and may only change with a new API version (or a deliberate
// re-baseline via -update).
func TestV1ContractGolden(t *testing.T) {
	for _, c := range contractCases {
		t.Run(c.name, func(t *testing.T) {
			code, body := get(t, c.path)
			if code != 200 {
				t.Fatalf("status %d: %s", code, body)
			}
			got := scrub(t, body)
			goldenPath := filepath.Join("testdata", c.golden)
			if *update {
				if err := os.MkdirAll("testdata", 0o755); err != nil {
					t.Fatal(err)
				}
				if err := os.WriteFile(goldenPath, got, 0o644); err != nil {
					t.Fatal(err)
				}
				return
			}
			want, err := os.ReadFile(goldenPath)
			if err != nil {
				t.Fatalf("missing golden (run with -update): %v", err)
			}
			if string(got) != string(want) {
				t.Errorf("contract drift for %s (re-baseline deliberately with -update):\n--- got\n%s\n--- want\n%s",
					c.name, got, want)
			}
		})
	}
}

// TestV1ContractErrorCodes drives every machine-readable error code
// through the live handlers and pins the envelope shape plus the
// code→status mapping.
func TestV1ContractErrorCodes(t *testing.T) {
	toyStory := url.QueryEscape(`movie:"Toy Story"`)
	cases := []struct {
		name       string
		path       string
		wantStatus int
		wantCode   ErrorCode
	}{
		{"missing q", "/api/v1/explain", 400, CodeBadRequest},
		{"bad knob", "/api/v1/explain?q=" + toyStory + "&k=99", 400, CodeBadRequest},
		{"unknown endpoint", "/api/v1/nope", 404, CodeNotFound},
		{"no items", "/api/v1/explain?q=" + url.QueryEscape(`movie:"Zyzzyva The Unfilmed"`), 404, CodeNoItems},
		{"no ratings", "/api/v1/explain?q=" + toyStory + "&from=1901&to=1902", 404, CodeNoRatings},
		{"no group", "/api/v1/group?q=" + toyStory + "&key=" + url.QueryEscape("state=WY,occupation=farmer"), 404, CodeNoGroup},
		{"missing key", "/api/v1/group?q=" + toyStory, 400, CodeBadRequest},
		{"repeated key attribute", "/api/v1/group?q=" + toyStory + "&key=" + url.QueryEscape("state=CA,state=NY"), 400, CodeBadRequest},
		{"refine no group", "/api/v1/refine?q=" + toyStory + "&key=" + url.QueryEscape("state=WY,occupation=farmer"), 404, CodeNoGroup},
		{"drill bad task", "/api/v1/drill?q=" + toyStory + "&key=" + url.QueryEscape("state=CA") + "&task=zz", 400, CodeBadRequest},
		{"batch is gone", "/api/v1/batch", 404, CodeNotFound},
		{"dm with k=1", "/api/v1/explain?q=" + toyStory + "&k=1&tasks=dm", 400, CodeBadRequest},
		{"default tasks with k=1", "/api/v1/explain?q=" + toyStory + "&k=1", 400, CodeBadRequest},
		{"drill dm with k=1", "/api/v1/drill?q=" + toyStory + "&key=" + url.QueryEscape("state=CA") + "&task=dm&k=1", 400, CodeBadRequest},
		{"evolution with k=1", "/api/v1/evolution?q=" + toyStory + "&k=1", 400, CodeBadRequest},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			code, body := get(t, c.path)
			if code != c.wantStatus {
				t.Fatalf("status %d, want %d: %s", code, c.wantStatus, body)
			}
			if got := envelopeCode(t, body); got != c.wantCode {
				t.Errorf("code %q, want %q", got, c.wantCode)
			}
		})
	}

	// An unsupported method answers 405 and names the allowed ones, on
	// decoding endpoints and on /browse alike.
	for _, path := range []string{"/api/v1/explain?q=" + toyStory, "/api/v1/browse"} {
		req, _ := http.NewRequest(http.MethodDelete, testServer(t).URL+path, nil)
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusMethodNotAllowed {
			t.Fatalf("DELETE %s status %d, want 405", path, resp.StatusCode)
		}
		if allow := resp.Header.Get("Allow"); !strings.Contains(allow, "GET") || !strings.Contains(allow, "POST") {
			t.Errorf("DELETE %s Allow = %q, want GET and POST", path, allow)
		}
	}

	// An oversized POST body answers 413, not a misleading bad-JSON 400.
	big := `{"q":"` + strings.Repeat("x", maxBodyBytes) + `"}`
	code, body := post(t, "/api/v1/explain", big)
	if code != http.StatusRequestEntityTooLarge {
		t.Fatalf("oversized body status %d, want 413", code)
	}
	if got := envelopeCode(t, body); got != CodeBadRequest {
		t.Errorf("oversized body code %q", got)
	}
}

// TestV1InfeasibleDrillEnvelope pins the drill's answer to a coverage
// constraint no selection meets: the envelope an unrelaxed explain
// answers, naming core.ErrInfeasible, not a failed encode of the
// solver's +Inf objective.
func TestV1InfeasibleDrillEnvelope(t *testing.T) {
	drama := url.QueryEscape("genre:Drama")
	for _, path := range []string{
		"/api/v1/explain?q=" + drama + "&coverage=1&relax=false",
		"/api/v1/drill?q=" + drama + "&key=" + url.QueryEscape("state=CA") + "&coverage=1",
	} {
		code, body := get(t, path)
		if code != http.StatusInternalServerError || envelopeCode(t, body) != CodeInternal {
			t.Fatalf("%s: %d %s, want 500 %s", path, code, body, CodeInternal)
		}
		if !strings.Contains(body, core.ErrInfeasible.Error()) {
			t.Errorf("%s: message does not name core.ErrInfeasible: %s", path, body)
		}
	}
}

// TestV1ContractTimeout pins the timeout envelope: a deadline shorter
// than any mine answers 504 with code "timeout".
func TestV1ContractTimeout(t *testing.T) {
	h := newHandler(testEngine(t), Config{RequestTimeout: time.Nanosecond})
	r := httptest.NewRequest("GET", "/api/v1/explain?q="+url.QueryEscape(`movie:"Heat"`)+"&seed=999", nil)
	w := httptest.NewRecorder()
	h.ServeHTTP(w, r)
	if w.Code != 504 {
		t.Fatalf("status %d, want 504: %s", w.Code, w.Body.String())
	}
	if got := envelopeCode(t, w.Body.String()); got != CodeTimeout {
		t.Errorf("code %q, want %q", got, CodeTimeout)
	}
}

// TestV1ContractCanceled pins the disconnect envelope: a client that
// goes away mid-mine answers 499 with code "canceled".
func TestV1ContractCanceled(t *testing.T) {
	h := newHandler(testEngine(t), Config{})
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	r := httptest.NewRequest("GET", "/api/v1/explain?q="+url.QueryEscape(`movie:"Heat"`)+"&seed=998", nil).WithContext(ctx)
	w := httptest.NewRecorder()
	h.ServeHTTP(w, r)
	if w.Code != 499 {
		t.Fatalf("status %d, want 499: %s", w.Code, w.Body.String())
	}
	if got := envelopeCode(t, w.Body.String()); got != CodeCanceled {
		t.Errorf("code %q, want %q", got, CodeCanceled)
	}
}

// TestV1BrowseEmptyLog pins browse over a log whose every state falls
// below the support cut: no rows, and a present but empty layer.
func TestV1BrowseEmptyLog(t *testing.T) {
	ds, err := maprat.Generate(maprat.SmallGenConfig())
	if err != nil {
		t.Fatal(err)
	}
	ds.Ratings = ds.Ratings[:5]
	eng, err := maprat.Open(ds, nil)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(newHandler(eng, Config{}))
	defer ts.Close()
	resp, err := http.Get(ts.URL + "/api/v1/browse")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, _ := io.ReadAll(resp.Body)
	want := `{"states":null,"geojson":{"type":"FeatureCollection","features":null}}` + "\n"
	if resp.StatusCode != 200 || string(body) != want {
		t.Errorf("browse over an empty log = %d %q, want 200 %q", resp.StatusCode, body, want)
	}
}

// TestV1ContractGeoJSON sanity-checks the client-renderable choropleth
// layer: FeatureCollection of state Polygons with precomputed fills.
func TestV1ContractGeoJSON(t *testing.T) {
	code, body := get(t, "/api/v1/browse")
	if code != 200 {
		t.Fatalf("status %d", code)
	}
	var resp struct {
		GeoJSON struct {
			Type     string `json:"type"`
			Features []struct {
				Type     string `json:"type"`
				Geometry struct {
					Type        string         `json:"type"`
					Coordinates [][][2]float64 `json:"coordinates"`
				} `json:"geometry"`
				Properties struct {
					State string  `json:"state"`
					Name  string  `json:"name"`
					Mean  float64 `json:"mean"`
					Fill  string  `json:"fill"`
				} `json:"properties"`
			} `json:"features"`
		} `json:"geojson"`
	}
	if err := json.Unmarshal([]byte(body), &resp); err != nil {
		t.Fatalf("json: %v", err)
	}
	if resp.GeoJSON.Type != "FeatureCollection" || len(resp.GeoJSON.Features) < 40 {
		t.Fatalf("geojson = %s / %d features", resp.GeoJSON.Type, len(resp.GeoJSON.Features))
	}
	for _, f := range resp.GeoJSON.Features {
		if f.Type != "Feature" || f.Geometry.Type != "Polygon" {
			t.Fatalf("feature shape: %+v", f)
		}
		ring := f.Geometry.Coordinates[0]
		if len(ring) != 5 || ring[0] != ring[4] {
			t.Errorf("%s: ring not closed: %v", f.Properties.State, ring)
		}
		if !strings.HasPrefix(f.Properties.Fill, "#") || f.Properties.Name == "" {
			t.Errorf("%s: incomplete properties: %+v", f.Properties.State, f.Properties)
		}
	}
	// The explain payload carries the same layer per task.
	code, body = get(t, "/api/v1/explain?q="+url.QueryEscape(`movie:"Toy Story"`))
	if code != 200 {
		t.Fatalf("explain status %d", code)
	}
	var ex struct {
		Tasks []struct {
			GeoJSON *GeoJSON `json:"geojson"`
			Groups  []Group  `json:"groups"`
		} `json:"tasks"`
	}
	if err := json.Unmarshal([]byte(body), &ex); err != nil {
		t.Fatal(err)
	}
	for i, task := range ex.Tasks {
		if task.GeoJSON == nil || len(task.GeoJSON.Features) == 0 {
			t.Errorf("task %d: missing geojson layer", i)
		}
	}
}

// TestV1ExplainSingleflight: concurrent identical explains share one
// mining run through the engine's singleflight and result cache, so N
// clients asking the same question at once cost one mine. Run under
// -race this also exercises the handler's shared state.
func TestV1ExplainSingleflight(t *testing.T) {
	// A fresh engine, so the result cache is cold on every run.
	eng, err := maprat.Open(testEngine(t).Dataset(), nil)
	if err != nil {
		t.Fatal(err)
	}
	ts := freshServer(t, eng)
	const body = `{"q":"movie:\"Heat\"","k":2}`
	const clients = 24

	var wg sync.WaitGroup
	for range clients {
		wg.Add(1)
		go func() {
			defer wg.Done()
			resp, err := http.Post(ts.URL+"/api/v1/explain", "application/json", strings.NewReader(body))
			if err != nil {
				t.Error(err)
				return
			}
			defer resp.Body.Close()
			if resp.StatusCode != 200 {
				out, _ := io.ReadAll(resp.Body)
				t.Errorf("explain status %d: %s", resp.StatusCode, out)
			}
		}()
	}
	wg.Wait()
	if mines := eng.MineCount(); mines != 1 {
		t.Errorf("%d concurrent identical explains mined %d times, want exactly 1", clients, mines)
	}
}
