package api

import (
	"encoding/json"
	"net/http/httptest"
	"net/url"
	"reflect"
	"strconv"
	"strings"
	"testing"

	"repro"
)

// decoderCase is one knob set in both encodings: query is the
// unescaped GET query (see encodeQuery), body the POST JSON.
type decoderCase struct {
	name  string
	query string
	body  string
}

// decoderParityCases decode successfully and identically in both
// encodings.
var decoderParityCases = []decoderCase{
	{
		"minimal",
		`q=movie:"Toy Story"`,
		`{"q":"movie:\"Toy Story\""}`,
	},
	{
		"every mining knob",
		`q=movie:"Toy Story"&k=5&coverage=0.15&profile=gender=female&seed=9&restarts=4&tasks=sm,dm&relax=false&from=1999&to=2001&geo=off`,
		`{"q":"movie:\"Toy Story\"","k":5,"coverage":0.15,"profile":"gender=female","seed":9,"restarts":4,"tasks":["sm","dm"],"relax":false,"from":1999,"to":2001,"geo":"off"}`,
	},
	{
		"single task, long name",
		`q=genre:Drama&tasks=diversity`,
		`{"q":"genre:Drama","tasks":["diversity"]}`,
	},
	{
		"exploration fields",
		`q=movie:"Toy Story"&key=state=CA&buckets=4&limit=3&task=dm`,
		`{"q":"movie:\"Toy Story\"","key":"state=CA","buckets":4,"limit":3,"task":"dm"}`,
	},
}

// isBadRequest reports whether err is a decode/validation failure.
func isBadRequest(err error) bool {
	_, ok := err.(*badRequestError)
	return ok
}

// TestV1DecoderParity pins GET/POST equivalence: the same knob set
// supplied as query parameters and as a JSON body must decode to the
// identical engine request.
func TestV1DecoderParity(t *testing.T) {
	for _, c := range decoderParityCases {
		t.Run(c.name, func(t *testing.T) {
			getReq := httptest.NewRequest("GET", "/api/v1/explain?"+encodeQuery(c.query), nil)
			postReq := httptest.NewRequest("POST", "/api/v1/explain", strings.NewReader(c.body))

			gp, err := DecodeParams(getReq)
			if err != nil {
				t.Fatalf("GET decode: %v", err)
			}
			pp, err := DecodeParams(postReq)
			if err != nil {
				t.Fatalf("POST decode: %v", err)
			}
			if !reflect.DeepEqual(gp, pp) {
				t.Fatalf("params diverge:\nGET  %+v\nPOST %+v", gp, pp)
			}

			greq, gerr := gp.ExplainRequest()
			preq, perr := pp.ExplainRequest()
			if (gerr == nil) != (perr == nil) {
				t.Fatalf("request errors diverge: GET %v, POST %v", gerr, perr)
			}
			if gerr == nil && !reflect.DeepEqual(greq, preq) {
				t.Fatalf("requests diverge:\nGET  %+v\nPOST %+v", greq, preq)
			}
		})
	}
}

// encodeQuery URL-encodes a human-readable k=v&k=v string.
func encodeQuery(s string) string {
	vals := url.Values{}
	for _, kv := range strings.Split(s, "&") {
		k, v, _ := strings.Cut(kv, "=")
		vals.Add(k, v)
	}
	return vals.Encode()
}

// TestV1DecoderDefaults pins the default request: both sub-problems,
// demo settings, relaxation on, state-anchored cube.
func TestV1DecoderDefaults(t *testing.T) {
	r := httptest.NewRequest("GET", `/api/v1/explain?q=`+url.QueryEscape(`movie:"Toy Story"`), nil)
	p, err := DecodeParams(r)
	if err != nil {
		t.Fatal(err)
	}
	req, err := p.ExplainRequest()
	if err != nil {
		t.Fatal(err)
	}
	if req.Settings != maprat.DefaultSettings() {
		t.Errorf("settings = %+v, want defaults", req.Settings)
	}
	if req.DisableRelax || req.Query.Framework || len(req.Tasks) != 0 {
		t.Errorf("non-default request: %+v", req)
	}
	if !req.Query.Window.IsAll() {
		t.Errorf("window = %+v, want all time", req.Query.Window)
	}
}

// TestV1DecoderKnobs drives each knob through validation.
func TestV1DecoderKnobs(t *testing.T) {
	base := `q=` + url.QueryEscape(`movie:"Toy Story"`)
	good := []struct {
		name  string
		extra string
		check func(t *testing.T, req maprat.ExplainRequest)
	}{
		{"seed", "seed=42", func(t *testing.T, req maprat.ExplainRequest) {
			if req.Settings.Seed != 42 {
				t.Errorf("seed = %d", req.Settings.Seed)
			}
		}},
		{"restarts", "restarts=2", func(t *testing.T, req maprat.ExplainRequest) {
			if req.Settings.Restarts != 2 {
				t.Errorf("restarts = %d", req.Settings.Restarts)
			}
		}},
		{"tasks sm only", "tasks=sm", func(t *testing.T, req maprat.ExplainRequest) {
			if len(req.Tasks) != 1 || req.Tasks[0] != maprat.SimilarityMining {
				t.Errorf("tasks = %v", req.Tasks)
			}
		}},
		{"relax off", "relax=false", func(t *testing.T, req maprat.ExplainRequest) {
			if !req.DisableRelax {
				t.Error("relax=false did not disable relaxation")
			}
		}},
		{"geo off", "geo=off", func(t *testing.T, req maprat.ExplainRequest) {
			if !req.Query.Framework {
				t.Error("geo=off did not select framework mode")
			}
		}},
		{"window", "from=1999&to=2001", func(t *testing.T, req maprat.ExplainRequest) {
			if !req.Query.Window.BoundedFrom() || !req.Query.Window.BoundedTo() {
				t.Errorf("window = %+v", req.Query.Window)
			}
		}},
	}
	for _, c := range good {
		t.Run(c.name, func(t *testing.T) {
			r := httptest.NewRequest("GET", "/api/v1/explain?"+base+"&"+c.extra, nil)
			p, err := DecodeParams(r)
			if err != nil {
				t.Fatal(err)
			}
			req, err := p.ExplainRequest()
			if err != nil {
				t.Fatal(err)
			}
			c.check(t, req)
		})
	}
}

// decoderBadKnobCases each carry one knob that fails validation, in
// both encodings.
var decoderBadKnobCases = []decoderCase{
	{"missing q", ``, `{}`},
	{"bad query syntax", `q=notafield:x`, `{"q":"notafield:x"}`},
	{"k too large", `q=genre:Drama&k=99`, `{"q":"genre:Drama","k":99}`},
	{"k zero", `q=genre:Drama&k=0`, `{"q":"genre:Drama","k":0}`},
	{"coverage out of range", `q=genre:Drama&coverage=7`, `{"q":"genre:Drama","coverage":7}`},
	{"bad profile", `q=genre:Drama&profile=zz=1`, `{"q":"genre:Drama","profile":"zz=1"}`},
	{"restarts out of range", `q=genre:Drama&restarts=100000`, `{"q":"genre:Drama","restarts":100000}`},
	{"bad task name", `q=genre:Drama&tasks=xx`, `{"q":"genre:Drama","tasks":["xx"]}`},
	{"bad geo", `q=genre:Drama&geo=sideways`, `{"q":"genre:Drama","geo":"sideways"}`},
	{"inverted window", `q=genre:Drama&from=2001&to=1999`, `{"q":"genre:Drama","from":2001,"to":1999}`},
	{"from year zero", `q=genre:Drama&from=0`, `{"q":"genre:Drama","from":0}`},
	{"to year past 9999", `q=genre:Drama&to=10000`, `{"q":"genre:Drama","to":10000}`},
}

// decoderMalformedQueries are GET-only failures: values the typed JSON
// encoding cannot express (text where a number goes, NaN).
var decoderMalformedQueries = []string{
	`q=genre:Drama&k=abc`, `q=genre:Drama&coverage=x`, `q=genre:Drama&seed=x`,
	`q=genre:Drama&relax=maybe`, `q=genre:Drama&from=abcd`, `q=genre:Drama&limit=x`,
	`q=genre:Drama&coverage=NaN`,
}

// TestV1DecoderBadKnobs pins validation failures: every bad knob is a
// bad_request, for GET and POST alike.
func TestV1DecoderBadKnobs(t *testing.T) {
	for _, c := range decoderBadKnobCases {
		t.Run(c.name, func(t *testing.T) {
			for _, enc := range []string{"GET", "POST"} {
				var r = httptest.NewRequest("GET", "/api/v1/explain?"+encodeQuery(c.query), nil)
				if enc == "POST" {
					r = httptest.NewRequest("POST", "/api/v1/explain", strings.NewReader(c.body))
				}
				p, err := DecodeParams(r)
				if err == nil {
					_, err = p.ExplainRequest()
				}
				if err == nil {
					t.Fatalf("%s: no error for bad knob", enc)
				}
				if !isBadRequest(err) {
					t.Errorf("%s: error %v is not a bad request", enc, err)
				}
			}
		})
	}

	// Malformed values (and NaN) only exist in the GET encoding.
	for _, q := range decoderMalformedQueries {
		r := httptest.NewRequest("GET", "/api/v1/explain?"+encodeQuery(q), nil)
		p, err := DecodeParams(r)
		if err == nil {
			_, err = p.ExplainRequest()
		}
		if err == nil || !isBadRequest(err) {
			t.Errorf("query %q: err = %v, want bad request", q, err)
		}
	}

	// Unknown JSON fields are rejected (typo'd knobs must not be
	// silently ignored).
	r := httptest.NewRequest("POST", "/api/v1/explain", strings.NewReader(`{"q":"genre:Drama","coverage_":0.5}`))
	if _, err := DecodeParams(r); err == nil || !isBadRequest(err) {
		t.Errorf("unknown JSON field: err = %v, want bad request", err)
	}
}

// decoderTrailingBodies follow a valid POST body with more data. A body
// is one JSON value, so each must fail as a bad request rather than
// answer for its first value and drop the rest.
var decoderTrailingBodies = []string{
	`{"q":"movie:\"Toy Story\"","k":2}{"k":99}`,
	`{"q":"movie:\"Toy Story\"","k":2} garbage`,
}

// TestV1DecoderRejectsTrailingData drives the trailing-data bodies
// through every read's POST endpoint, with knobs that answer 200 on
// their own.
func TestV1DecoderRejectsTrailingData(t *testing.T) {
	endpoints := []struct{ path, prefix string }{
		{"/api/v1/explain", `{`},
		{"/api/v1/group", `{"key":"state=CA",`},
		{"/api/v1/refine", `{"key":"state=CA",`},
		{"/api/v1/drill", `{"key":"state=CA",`},
		{"/api/v1/browse", `{`},
	}
	for _, body := range decoderTrailingBodies {
		for _, e := range endpoints {
			if code, resp := post(t, e.path, e.prefix+body[1:]); code != 400 || envelopeCode(t, resp) != CodeBadRequest {
				t.Errorf("POST %s %s: status %d, want 400 %s", e.path, e.prefix+body[1:], code, CodeBadRequest)
			}
		}
	}
	// Trailing whitespace is not data.
	if code, resp := post(t, "/api/v1/explain", `{"q":"movie:\"Toy Story\"","k":2}`+" \r\n\t"); code != 200 {
		t.Errorf("trailing whitespace: %d %s, want 200", code, resp)
	}
}

// TestV1BrowseBody checks browse decodes a POST body like every other
// read: a future epoch, a body that is not JSON and an unknown field each
// answer 400. A server serves one dataset, so "dataset" is unknown too.
func TestV1BrowseBody(t *testing.T) {
	for _, body := range []string{`{"epoch":99}`, `garbage`, `{"epochs":1}`, `{"dataset":"x"}`} {
		if code, resp := post(t, "/api/v1/browse", body); code != 400 || envelopeCode(t, resp) != CodeBadRequest {
			t.Errorf("POST /api/v1/browse %s: status %d, want 400 %s", body, code, CodeBadRequest)
		}
	}
}

// TestV1GetIgnoresUnknownParams: a GET ignores query parameters it does
// not know, so HTML forms can carry extras. A server serves one dataset,
// so ?dataset= is one of them: it selects nothing and answers the same
// bytes as the request without it.
func TestV1GetIgnoresUnknownParams(t *testing.T) {
	for _, path := range []string{"/api/v1/explain?q=genre:Drama", "/api/v1/browse?epoch=1"} {
		code, want := get(t, path)
		for _, extra := range []string{"&dataset=x", "&submit=Explain"} {
			if gotCode, got := get(t, path+extra); gotCode != code || got != want {
				t.Errorf("GET %s%s = %d, differs from GET %s (%d)", path, extra, gotCode, path, code)
			}
		}
	}
}

// TestV1EndToEndParity drives GET/POST parity through the live handler:
// identical knobs must produce byte-identical (scrubbed) payloads.
func TestV1EndToEndParity(t *testing.T) {
	q := url.QueryEscape(`movie:"Toy Story"`)
	gcode, gbody := get(t, "/api/v1/explain?q="+q+"&k=2&seed=5")
	pcode, pbody := post(t, "/api/v1/explain", `{"q":"movie:\"Toy Story\"","k":2,"seed":5}`)
	if gcode != 200 || pcode != 200 {
		t.Fatalf("status GET=%d POST=%d", gcode, pcode)
	}
	if g, p := scrub(t, gbody), scrub(t, pbody); string(g) != string(p) {
		t.Errorf("GET and POST payloads diverge:\n%s\n---\n%s", g, p)
	}
}

// TestV1ExplainCoverageNotRounded: two coverages that agree to three
// decimals are distinct requests; the second must be mined at its own α,
// not served from the first's cached result.
func TestV1ExplainCoverageNotRounded(t *testing.T) {
	q := url.QueryEscape(`movie:"Jaws"`)
	for _, cov := range []string{"0.2001", "0.2004"} {
		code, body := get(t, "/api/v1/explain?q="+q+"&coverage="+cov)
		if code != 200 {
			t.Fatalf("coverage %s: status %d: %s", cov, code, body)
		}
		var resp ExplainResponse
		if err := json.Unmarshal([]byte(body), &resp); err != nil {
			t.Fatal(err)
		}
		if len(resp.Tasks) == 0 {
			t.Fatalf("coverage %s: no tasks in %s", cov, body)
		}
		for _, tr := range resp.Tasks {
			if got := strconv.FormatFloat(tr.RelaxedCoverage, 'g', -1, 64); got != cov {
				t.Errorf("coverage %s: %s relaxed_coverage = %s (from cache %v)", cov, tr.Task, got, resp.FromCache)
			}
		}
	}
}
