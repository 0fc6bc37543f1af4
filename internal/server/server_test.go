package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"net/url"
	"strings"
	"sync"
	"testing"

	"repro"
	"repro/internal/api"
)

var (
	srvOnce sync.Once
	srvMemo *httptest.Server
)

func testServer(t *testing.T) *httptest.Server {
	t.Helper()
	srvOnce.Do(func() {
		ds, err := maprat.Generate(maprat.SmallGenConfig())
		if err != nil {
			panic(err)
		}
		eng, err := maprat.Open(ds, nil)
		if err != nil {
			panic(err)
		}
		srvMemo = httptest.NewServer(New(eng))
	})
	return srvMemo
}

func get(t *testing.T, ts *httptest.Server, path string) (int, string) {
	t.Helper()
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

func TestIndexPage(t *testing.T) {
	ts := testServer(t)
	code, body := get(t, ts, "/")
	if code != http.StatusOK {
		t.Fatalf("status %d", code)
	}
	for _, want := range []string{"MapRat", "Explain Ratings", "coverage", "Toy Story"} {
		if !strings.Contains(body, want) {
			t.Errorf("index missing %q", want)
		}
	}
}

func TestIndexNotFound(t *testing.T) {
	ts := testServer(t)
	if code, _ := get(t, ts, "/nope"); code != http.StatusNotFound {
		t.Errorf("status %d, want 404", code)
	}
}

func TestHealth(t *testing.T) {
	ts := testServer(t)
	code, body := get(t, ts, "/healthz")
	if code != http.StatusOK || !strings.Contains(body, "ok") {
		t.Errorf("healthz = %d %q", code, body)
	}
}

func explainPath(q string, extra string) string {
	p := "/explain?q=" + url.QueryEscape(q)
	if extra != "" {
		p += "&" + extra
	}
	return p
}

func TestExplainPage(t *testing.T) {
	ts := testServer(t)
	code, body := get(t, ts, explainPath(`movie:"Toy Story"`, ""))
	if code != http.StatusOK {
		t.Fatalf("status %d: %s", code, body)
	}
	for _, want := range []string{
		"Similarity Mining", "Diversity Mining", "<svg", "reviewers from",
		"overall μ", "explore",
	} {
		if !strings.Contains(body, want) {
			t.Errorf("explain page missing %q", want)
		}
	}
}

func TestExplainBadRequests(t *testing.T) {
	ts := testServer(t)
	cases := []string{
		"/explain",                                     // missing q
		explainPath("notafield:x", ""),                 // bad query
		explainPath(`movie:"Toy Story"`, "k=99"),       // k out of range
		explainPath(`movie:"Toy Story"`, "coverage=7"), // bad coverage
		explainPath(`movie:"Toy Story"`, "from=abcd"),  // bad year
		explainPath(`movie:"Toy Story"`, "profile=zz%3D1"),
		// The default tasks include DM, which needs k ≥ 2: the pages
		// reject k=1 up front as the v1 endpoints do, not with a 500
		// from the solver.
		explainPath(`movie:"Toy Story"`, "k=1"),
		"/evolution?q=" + url.QueryEscape(`movie:"Toy Story"`) + "&k=1",
	}
	for _, p := range cases {
		if code, _ := get(t, ts, p); code != http.StatusBadRequest {
			t.Errorf("GET %s = %d, want 400", p, code)
		}
	}
	// k=1 stays valid for similarity mining alone.
	if code, body := get(t, ts, explainPath(`movie:"Toy Story"`, "k=1&tasks=sm")); code != http.StatusOK {
		t.Errorf("k=1 with tasks=sm = %d, want 200: %s", code, body)
	}
}

func TestExplainUnknownMovie(t *testing.T) {
	ts := testServer(t)
	if code, _ := get(t, ts, explainPath(`movie:"Zyzzyva The Unfilmed"`, "")); code != http.StatusNotFound {
		t.Errorf("unknown movie status %d, want 404", code)
	}
}

func TestGroupPageFlow(t *testing.T) {
	ts := testServer(t)
	// Pull a group key out of the JSON API, then explore it.
	code, body := get(t, ts, "/api/v1/explain?q="+url.QueryEscape(`movie:"Toy Story"`))
	if code != http.StatusOK {
		t.Fatalf("api status %d", code)
	}
	var resp struct {
		Tasks []struct {
			Groups []struct {
				Key string `json:"key"`
			} `json:"groups"`
		} `json:"tasks"`
	}
	if err := json.Unmarshal([]byte(body), &resp); err != nil {
		t.Fatalf("api json: %v", err)
	}
	if len(resp.Tasks) == 0 || len(resp.Tasks[0].Groups) == 0 {
		t.Fatal("api returned no groups")
	}
	key := resp.Tasks[0].Groups[0].Key
	p := "/group?q=" + url.QueryEscape(`movie:"Toy Story"`) + "&key=" + url.QueryEscape(key)
	code, page := get(t, ts, p)
	if code != http.StatusOK {
		t.Fatalf("group page %d: %s", code, page)
	}
	for _, want := range []string{"Rating distribution", "Rating evolution", "reviewers"} {
		if !strings.Contains(page, want) {
			t.Errorf("group page missing %q", want)
		}
	}
}

func TestGroupPageBadKey(t *testing.T) {
	ts := testServer(t)
	p := "/group?q=" + url.QueryEscape(`movie:"Toy Story"`) + "&key=" + url.QueryEscape("bogus")
	if code, _ := get(t, ts, p); code != http.StatusBadRequest {
		t.Errorf("bad key status %d, want 400", code)
	}
	p = "/group?q=" + url.QueryEscape(`movie:"Toy Story"`) + "&key=" + url.QueryEscape("state=WY,occupation=farmer")
	if code, _ := get(t, ts, p); code != http.StatusNotFound {
		t.Errorf("absent group status %d, want 404", code)
	}
}

func TestEvolutionPage(t *testing.T) {
	ts := testServer(t)
	code, body := get(t, ts, "/evolution?q="+url.QueryEscape(`movie:"Toy Story"`))
	if code != http.StatusOK {
		t.Fatalf("status %d", code)
	}
	if !strings.Contains(body, "per year") {
		t.Error("evolution page missing title")
	}
	// At least a few year rows.
	if strings.Count(body, "<tr>") < 4 {
		t.Errorf("evolution page has too few rows:\n%s", body)
	}
}

func TestAPIExplainShape(t *testing.T) {
	ts := testServer(t)
	code, body := get(t, ts, "/api/v1/explain?q="+url.QueryEscape(`actor:"Tom Hanks"`)+"&k=4")
	if code != http.StatusOK {
		t.Fatalf("status %d: %s", code, body)
	}
	var resp struct {
		Query      string  `json:"query"`
		NumRatings int     `json:"num_ratings"`
		Mean       float64 `json:"overall_mean"`
		Tasks      []struct {
			Task     string  `json:"task"`
			Coverage float64 `json:"coverage"`
			Groups   []struct {
				Key    string  `json:"key"`
				Phrase string  `json:"phrase"`
				Mean   float64 `json:"mean"`
				Count  int     `json:"count"`
				Share  float64 `json:"share"`
			} `json:"groups"`
		} `json:"tasks"`
	}
	if err := json.Unmarshal([]byte(body), &resp); err != nil {
		t.Fatalf("json: %v", err)
	}
	if resp.NumRatings == 0 || resp.Mean == 0 {
		t.Errorf("api stats empty: %+v", resp)
	}
	if len(resp.Tasks) != 2 {
		t.Fatalf("tasks = %d", len(resp.Tasks))
	}
	for _, task := range resp.Tasks {
		if task.Task != "SM" && task.Task != "DM" {
			t.Errorf("unexpected task %q", task.Task)
		}
		if len(task.Groups) == 0 || len(task.Groups) > 4 {
			t.Errorf("%s groups = %d, want 1..4", task.Task, len(task.Groups))
		}
		for _, g := range task.Groups {
			if g.Key == "" || g.Phrase == "" || g.Count == 0 {
				t.Errorf("incomplete group %+v", g)
			}
		}
	}
}

func TestAPIExplainErrors(t *testing.T) {
	ts := testServer(t)
	code, body := get(t, ts, "/api/v1/explain")
	if code != http.StatusBadRequest {
		t.Fatalf("status %d", code)
	}
	var e struct {
		Error struct {
			Code    string `json:"code"`
			Message string `json:"message"`
		} `json:"error"`
	}
	if err := json.Unmarshal([]byte(body), &e); err != nil || e.Error.Code != "bad_request" || e.Error.Message == "" {
		t.Errorf("error payload: %q", body)
	}
}

func TestExplainFrameworkMode(t *testing.T) {
	ts := testServer(t)
	p := explainPath(`movie:"The Twilight Saga: Eclipse"`, "geo=off&coverage=0.10&k=2")
	code, body := get(t, ts, p)
	if code != http.StatusOK {
		t.Fatalf("status %d: %s", code, body)
	}
	if !strings.Contains(body, "Diversity Mining") {
		t.Error("framework-mode page incomplete")
	}
}

func TestExplainWithWindow(t *testing.T) {
	ts := testServer(t)
	code, _ := get(t, ts, explainPath(`movie:"Toy Story"`, "from=1999&to=2001"))
	if code != http.StatusOK {
		t.Fatalf("windowed explain status %d", code)
	}
}

func TestBrowsePage(t *testing.T) {
	ts := testServer(t)
	code, body := get(t, ts, "/browse")
	if code != http.StatusOK {
		t.Fatalf("status %d", code)
	}
	for _, want := range []string{"<svg", "by state", "CA"} {
		if !strings.Contains(body, want) {
			t.Errorf("browse page missing %q", want)
		}
	}
	// One table row per state plus header.
	if n := strings.Count(body, "<tr>"); n < 40 {
		t.Errorf("browse page has only %d rows", n)
	}
}

// TestStatusForError pins the HTTP status contract: only "the thing you
// asked for doesn't exist" errors are 404s; internal mining failures are
// 500s, never blamed on the client.
func TestStatusForError(t *testing.T) {
	cases := []struct {
		name string
		err  error
		want int
	}{
		{"deadline", context.DeadlineExceeded, http.StatusGatewayTimeout},
		{"wrapped deadline", fmt.Errorf("mining: %w", context.DeadlineExceeded), http.StatusGatewayTimeout},
		{"canceled", context.Canceled, 499},
		{"no items", maprat.ErrNoItems, http.StatusNotFound},
		{"no ratings", maprat.ErrNoRatings, http.StatusNotFound},
		{"no group", fmt.Errorf("%w: state=ZZ", maprat.ErrNoGroup), http.StatusNotFound},
		{"internal mining failure", errors.New("core: solver exploded"), http.StatusInternalServerError},
		{"wrapped internal failure", fmt.Errorf("SM: %w", errors.New("boom")), http.StatusInternalServerError},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			if got := api.StatusForError(c.err); got != c.want {
				t.Errorf("api.StatusForError(%v) = %d, want %d", c.err, got, c.want)
			}
		})
	}
}

// TestHandlerStatusContract drives the contract through real handlers:
// not-found-style requests answer 404 and nothing in the suite turns an
// internal error into one.
func TestHandlerStatusContract(t *testing.T) {
	ts := testServer(t)
	cases := []struct {
		name string
		path string
		want int
	}{
		{"unknown movie", explainPath(`movie:"Zyzzyva The Unfilmed"`, ""), http.StatusNotFound},
		{"window without ratings", explainPath(`movie:"Toy Story"`, "from=1901&to=1902"), http.StatusNotFound},
		{"absent group", "/group?q=" + url.QueryEscape(`movie:"Toy Story"`) +
			"&key=" + url.QueryEscape("state=WY,occupation=farmer"), http.StatusNotFound},
		{"api unknown movie", "/api/v1/explain?q=" + url.QueryEscape(`movie:"Zyzzyva The Unfilmed"`), http.StatusNotFound},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			if code, body := get(t, ts, c.path); code != c.want {
				t.Errorf("GET %s = %d, want %d\n%s", c.path, code, c.want, body)
			}
		})
	}
}

// TestStatsEndpoint checks /statsz exposes the materialization tier and
// result cache counters, and that a repeated interaction moves them.
func TestStatsEndpoint(t *testing.T) {
	ts := testServer(t)
	// One explain plus a group view on the same query: the plan tier must
	// record at least one build and one hit.
	if code, _ := get(t, ts, explainPath(`movie:"Heat"`, "")); code != http.StatusOK {
		t.Fatalf("explain status %d", code)
	}
	if code, _ := get(t, ts, "/api/v1/explain?q="+url.QueryEscape(`movie:"Heat"`)); code != http.StatusOK {
		t.Fatalf("v1 explain status %d", code)
	}

	code, body := get(t, ts, "/statsz")
	if code != http.StatusOK {
		t.Fatalf("statsz status %d", code)
	}
	var resp struct {
		PlanCache struct {
			Hits      uint64 `json:"hits"`
			Builds    uint64 `json:"builds"`
			Tuples    int    `json:"tuples"`
			MaxTuples int    `json:"max_tuples"`
			Bytes     int64  `json:"bytes"`
		} `json:"plan_cache"`
		Result struct {
			Hits   uint64 `json:"hits"`
			Misses uint64 `json:"misses"`
		} `json:"result_cache"`
		Mines uint64 `json:"mines"`
		API   map[string]struct {
			Requests uint64            `json:"requests"`
			Status   map[string]uint64 `json:"status"`
		} `json:"api"`
	}
	if err := json.Unmarshal([]byte(body), &resp); err != nil {
		t.Fatalf("statsz json: %v\n%s", err, body)
	}
	if resp.PlanCache.Builds == 0 || resp.PlanCache.Tuples == 0 || resp.PlanCache.MaxTuples == 0 {
		t.Errorf("plan tier not reporting: %+v", resp.PlanCache)
	}
	if resp.PlanCache.Bytes == 0 {
		t.Errorf("plan bytes accounting empty: %+v", resp.PlanCache)
	}
	if resp.Mines == 0 {
		t.Errorf("mine counter empty: %+v", resp)
	}
	// The second explain of the same query hits the result cache.
	if resp.Result.Hits == 0 {
		t.Errorf("result cache saw no hits: %+v", resp.Result)
	}
	// The v1 surface's per-endpoint counters ride along.
	if ep, ok := resp.API["explain"]; !ok || ep.Requests == 0 || ep.Status["2xx"] == 0 {
		t.Errorf("statsz missing v1 endpoint metrics: %+v", resp.API)
	}
}

// TestV1MountedThroughServer checks the versioned surface is reachable
// through the server mux with the shared error envelope.
func TestV1MountedThroughServer(t *testing.T) {
	ts := testServer(t)
	code, body := get(t, ts, "/api/v1/explain?q="+url.QueryEscape(`movie:"Toy Story"`))
	if code != http.StatusOK {
		t.Fatalf("v1 explain status %d: %s", code, body)
	}
	var resp struct {
		Tasks []struct {
			Task   string `json:"task"`
			Groups []struct {
				Key string `json:"key"`
			} `json:"groups"`
		} `json:"tasks"`
	}
	if err := json.Unmarshal([]byte(body), &resp); err != nil {
		t.Fatalf("v1 json: %v", err)
	}
	if len(resp.Tasks) != 2 || len(resp.Tasks[0].Groups) == 0 {
		t.Fatalf("v1 payload incomplete: %s", body)
	}

	for _, p := range []string{"/api/v1/group", "/api/v1/refine", "/api/v1/drill", "/api/v1/evolution", "/api/v1/browse"} {
		q := ""
		if p != "/api/v1/browse" {
			q = "?q=" + url.QueryEscape(`movie:"Toy Story"`) + "&key=" + url.QueryEscape(resp.Tasks[0].Groups[0].Key)
		}
		if code, body := get(t, ts, p+q); code != http.StatusOK {
			t.Errorf("GET %s = %d: %s", p, code, body)
		}
	}

	code, body = get(t, ts, "/api/v1/explain")
	if code != http.StatusBadRequest {
		t.Fatalf("v1 missing q status %d", code)
	}
	var env struct {
		Error struct {
			Code    string `json:"code"`
			Message string `json:"message"`
		} `json:"error"`
	}
	if err := json.Unmarshal([]byte(body), &env); err != nil || env.Error.Code != "bad_request" {
		t.Errorf("v1 error envelope: %q (err %v)", body, err)
	}
}

// TestHTMLPagesGetOnly checks the form pages reject non-GET methods with
// 405 instead of feeding them into the decoder's JSON-body path.
func TestHTMLPagesGetOnly(t *testing.T) {
	ts := testServer(t)
	for _, p := range []string{"/explain", "/group", "/evolution"} {
		resp, err := http.Post(ts.URL+p+"?q="+url.QueryEscape(`movie:"Toy Story"`), "", nil)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusMethodNotAllowed {
			t.Errorf("POST %s = %d, want 405", p, resp.StatusCode)
		}
		if allow := resp.Header.Get("Allow"); allow != "GET" {
			t.Errorf("POST %s Allow = %q, want GET", p, allow)
		}
	}
}

// TestGroupPageRefinementNote checks a group without drill-deeper
// children renders the unavailable note instead of an empty section.
func TestGroupPageRefinementNote(t *testing.T) {
	ts := testServer(t)
	// Descend the refinement lattice from CA until a leaf: groups at the
	// cube's MaxAVPairs bound have no drill-deeper children.
	key := "state=CA"
	for i := 0; i < 4; i++ {
		code, body := get(t, ts, "/api/v1/refine?q="+url.QueryEscape(`movie:"Toy Story"`)+
			"&key="+url.QueryEscape(key)+"&limit=1")
		if code != http.StatusOK {
			t.Fatalf("refine %q status %d: %s", key, code, body)
		}
		var refs struct {
			Refinements []struct {
				Group struct {
					Key string `json:"key"`
				} `json:"group"`
			} `json:"refinements"`
		}
		if err := json.Unmarshal([]byte(body), &refs); err != nil {
			t.Fatalf("refine json: %v", err)
		}
		if len(refs.Refinements) == 0 {
			break // key is a leaf
		}
		key = refs.Refinements[0].Group.Key
	}
	code, page := get(t, ts, "/group?q="+url.QueryEscape(`movie:"Toy Story"`)+"&key="+url.QueryEscape(key))
	if code != http.StatusOK {
		t.Fatalf("leaf group page %d", code)
	}
	if !strings.Contains(page, "drill-down unavailable") {
		t.Error("leaf group page missing the drill-down-unavailable note")
	}
}

func TestGroupPageShowsRefinements(t *testing.T) {
	ts := testServer(t)
	// The CA state group always has demographic refinements.
	p := "/group?q=" + url.QueryEscape(`movie:"Toy Story"`) + "&key=" + url.QueryEscape("state=CA")
	code, page := get(t, ts, p)
	if code != http.StatusOK {
		t.Fatalf("group page %d", code)
	}
	if !strings.Contains(page, "Drill deeper") {
		t.Error("group page missing the refinement section")
	}
}

// TestHTMLPagesInStatsz checks the HTML pages run behind the v1
// middleware: after one GET of each, /statsz lists the page's own metric
// name under "api", apart from the v1 endpoint's counters.
func TestHTMLPagesInStatsz(t *testing.T) {
	ts := testServer(t)
	q := url.QueryEscape(`movie:"Toy Story"`)
	for _, p := range []string{
		"/explain?q=" + q,
		"/group?q=" + q + "&key=" + url.QueryEscape("state=CA"),
		"/evolution?q=" + q,
		"/browse",
	} {
		if code, body := get(t, ts, p); code != http.StatusOK {
			t.Fatalf("GET %s = %d: %s", p, code, body)
		}
	}
	code, body := get(t, ts, "/statsz")
	if code != http.StatusOK {
		t.Fatalf("statsz status %d", code)
	}
	var stats struct {
		API map[string]struct {
			Requests uint64 `json:"requests"`
		} `json:"api"`
	}
	if err := json.Unmarshal([]byte(body), &stats); err != nil {
		t.Fatalf("statsz json: %v", err)
	}
	for _, name := range []string{"page_explain", "page_group", "page_evolution", "page_browse"} {
		if stats.API[name].Requests < 1 {
			t.Errorf("statsz api[%q] = %+v, want requests >= 1", name, stats.API[name])
		}
	}
}

// TestHTMLAndV1StatusParity checks each HTML page answers a request with
// the status its v1 endpoint answers the same query string with.
func TestHTMLAndV1StatusParity(t *testing.T) {
	ts := testServer(t)
	toy := "q=" + url.QueryEscape(`movie:"Toy Story"`)
	cases := []struct {
		name, op, query string
		want            int
	}{
		{"k=99", "explain", toy + "&k=99", http.StatusBadRequest},
		{"k=1", "explain", toy + "&k=1", http.StatusBadRequest},
		{"evolution k=1", "evolution", toy + "&k=1", http.StatusBadRequest},
		{"from>to", "explain", toy + "&from=2001&to=1999", http.StatusBadRequest},
		{"unknown movie", "explain", "q=" + url.QueryEscape(`movie:"Zyzzyva The Unfilmed"`), http.StatusNotFound},
		{"absent group", "group", toy + "&key=" + url.QueryEscape("state=WY,occupation=farmer"), http.StatusNotFound},
		{"missing key", "group", toy, http.StatusBadRequest},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			page, _ := get(t, ts, "/"+c.op+"?"+c.query)
			v1, _ := get(t, ts, "/api/v1/"+c.op+"?"+c.query)
			if page != c.want || v1 != c.want {
				t.Errorf("/%s = %d, /api/v1/%s = %d, want both %d", c.op, page, c.op, v1, c.want)
			}
		})
	}
}

// TestGroupPageDefaultLimit checks the group page shows at most 8
// refinements when the URL names no limit, and honours one that it
// names.
func TestGroupPageDefaultLimit(t *testing.T) {
	ts := testServer(t)
	query := "q=" + url.QueryEscape(`genre:Drama`) + "&key=" + url.QueryEscape("state=CA")
	code, body := get(t, ts, "/api/v1/refine?"+query)
	if code != http.StatusOK {
		t.Fatalf("refine status %d: %s", code, body)
	}
	var refs struct {
		Refinements []json.RawMessage `json:"refinements"`
	}
	if err := json.Unmarshal([]byte(body), &refs); err != nil {
		t.Fatal(err)
	}
	if len(refs.Refinements) <= 8 {
		t.Fatalf("the group has %d refinements; the test needs more than 8", len(refs.Refinements))
	}
	rows := func(extra string) int {
		t.Helper()
		code, page := get(t, ts, "/group?"+query+extra)
		if code != http.StatusOK {
			t.Fatalf("group page %d: %s", code, page)
		}
		_, section, _ := strings.Cut(page, "Drill deeper")
		section, _, _ = strings.Cut(section, "</table>")
		return strings.Count(section, "<tr><td>")
	}
	if n := rows(""); n != 8 {
		t.Errorf("group page without limit shows %d refinements, want 8", n)
	}
	if n := rows("&limit=3"); n != 3 {
		t.Errorf("group page with limit=3 shows %d refinements, want 3", n)
	}
}

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
