// Package api is MapRat's versioned HTTP transport layer: the /api/v1
// surface over all five mining pipelines (explain, per-group exploration,
// refinement, city drill-down, evolution) plus browse mode and the
// ratings append. It owns the wire DTOs, the shared request decoder (GET
// query params and POST JSON bodies decode identically), the structured
// error envelope with machine-readable codes, and the middleware stack
// (request ID, panic recovery, access log, per-endpoint metrics).
// Handler.Run is the one read path: every v1 read is one request through
// it, the v1 endpoints write its response document as JSON, and the HTML
// pages in internal/server render the same document behind the same
// middleware, so the surfaces cannot drift.
package api

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"strings"
	"time"

	"repro"
	"repro/internal/core"
	"repro/internal/cube"
	"repro/internal/model"
	"repro/internal/query"
	"repro/internal/store"
)

// maxBodyBytes bounds a POST body. A read's knobs take a few hundred
// bytes, so in practice it caps an append: about 18,000 ratings at
// roughly 58 bytes each.
const maxBodyBytes = 1 << 20

// Params is the wire form of a v1 request: the full knob set shared by
// every mining endpoint, plus the exploration fields (key, buckets, limit,
// task) the per-group endpoints add. A GET request supplies them as query
// parameters; a POST request as a JSON body with the same names. Pointer
// fields distinguish "absent" (default) from an explicit zero.
type Params struct {
	// Q is the item query in the Figure-1 syntax, e.g.
	// `movie:"Toy Story"`. Required on every endpoint that mines.
	Q string `json:"q"`
	// K is the maximum number of returned groups (1..12).
	K *int `json:"k,omitempty"`
	// Coverage is the α coverage constraint in [0,1].
	Coverage *float64 `json:"coverage,omitempty"`
	// Profile constrains candidates to groups compatible with the
	// querying user's self-description, e.g. "gender=female,age=under 18".
	Profile string `json:"profile,omitempty"`
	// Seed makes the randomized solver deterministic.
	Seed *int64 `json:"seed,omitempty"`
	// Restarts overrides the RHE restart count (1..256).
	Restarts *int `json:"restarts,omitempty"`
	// Tasks selects the mining sub-problems: "sm", "dm" (default both).
	// A GET request passes tasks=sm,dm.
	Tasks []string `json:"tasks,omitempty"`
	// Relax controls stepwise α relaxation on infeasible instances
	// (default true, matching the web demo).
	Relax *bool `json:"relax,omitempty"`
	// From and To restrict ratings to calendar years (inclusive).
	From *int `json:"from,omitempty"`
	To   *int `json:"to,omitempty"`
	// Epoch pins the request to a data version under live ingestion
	// (absent or 0 = latest). A pinned response is byte-identical no
	// matter how many batches were appended after that epoch.
	Epoch *uint64 `json:"epoch,omitempty"`
	// Geo is "" or "on" for the demo's state-anchored groups, "off" for
	// the framework mode (groups without a geo-condition). It applies to
	// every mining endpoint: a group, refine or drill request on a
	// framework explanation's group must carry geo=off too, so it reaches
	// the cube the explanation was mined from.
	Geo string `json:"geo,omitempty"`

	// Key identifies the group for /group, /refine and /drill, in the
	// comma-separated descriptor form, e.g. "gender=male,state=CA".
	Key string `json:"key,omitempty"`
	// Buckets is the /group timeline resolution (0 = default).
	Buckets *int `json:"buckets,omitempty"`
	// Limit caps the refinement list (0 = all).
	Limit *int `json:"limit,omitempty"`
	// Task selects the /drill sub-problem: "sm" (default) or "dm".
	Task string `json:"task,omitempty"`
}

// badRequestError marks a decode/validation failure; handlers map it to
// CodeBadRequest.
type badRequestError struct{ msg string }

func (e *badRequestError) Error() string { return e.msg }

func badRequestf(format string, args ...any) error {
	return &badRequestError{msg: fmt.Sprintf(format, args...)}
}

// methodError marks an unsupported HTTP method; the v1 surface answers
// it with 405 and the Allow header rather than a plain bad request.
type methodError struct{ allow, msg string }

func (e *methodError) Error() string { return e.msg }

// tooLargeError marks a POST body over maxBodyBytes; answered with 413
// so the client learns the body was oversized rather than "bad JSON".
type tooLargeError struct{ msg string }

func (e *tooLargeError) Error() string { return e.msg }

// decodeBody decodes a JSON request body into v, distinguishing an
// oversized body (413) from malformed JSON (400). http.MaxBytesReader
// (rather than a plain LimitReader) yields a typed error at the cap and
// closes the connection properly. A body is one JSON value: anything
// after it but whitespace is malformed, not silently ignored.
func decodeBody(r *http.Request, v any) error {
	dec := json.NewDecoder(http.MaxBytesReader(nil, r.Body, maxBodyBytes))
	dec.DisallowUnknownFields()
	err := dec.Decode(v)
	if err == nil {
		// Token answers io.EOF only when nothing but whitespace is left.
		_, err = dec.Token()
		if errors.Is(err, io.EOF) {
			return nil
		}
		if err == nil {
			err = errors.New("trailing data after the JSON value")
		}
	}
	var mbe *http.MaxBytesError
	if errors.As(err, &mbe) {
		return &tooLargeError{msg: fmt.Sprintf("request body exceeds %d bytes", maxBodyBytes)}
	}
	return badRequestf("bad JSON body: %v", err)
}

// DecodeParams reads the request's knobs: from the URL query on GET, from
// a JSON body on POST (unknown JSON fields are rejected; unknown query
// parameters are ignored so HTML forms can carry extras). The two
// encodings decode to identical Params.
func DecodeParams(r *http.Request) (Params, error) {
	switch r.Method {
	case http.MethodGet, http.MethodHead:
		return paramsFromQuery(r)
	case http.MethodPost:
		return paramsFromBody(r)
	default:
		return Params{}, &methodError{allow: "GET, POST", msg: "method " + r.Method + " not allowed (use GET or POST)"}
	}
}

func paramsFromBody(r *http.Request) (Params, error) {
	var p Params
	if err := decodeBody(r, &p); err != nil {
		return Params{}, err
	}
	return p, nil
}

func paramsFromQuery(r *http.Request) (Params, error) {
	q := r.URL.Query()
	p := Params{
		Q:       q.Get("q"),
		Profile: q.Get("profile"),
		Geo:     q.Get("geo"),
		Key:     q.Get("key"),
		Task:    q.Get("task"),
	}
	if v := q.Get("tasks"); v != "" {
		p.Tasks = strings.Split(v, ",")
	}
	var err error
	if p.K, err = intParam(q.Get("k"), "k"); err != nil {
		return p, err
	}
	if p.Coverage, err = floatParam(q.Get("coverage"), "coverage"); err != nil {
		return p, err
	}
	if p.Seed, err = int64Param(q.Get("seed"), "seed"); err != nil {
		return p, err
	}
	if p.Restarts, err = intParam(q.Get("restarts"), "restarts"); err != nil {
		return p, err
	}
	if p.Relax, err = boolParam(q.Get("relax"), "relax"); err != nil {
		return p, err
	}
	if p.From, err = intParam(q.Get("from"), "from"); err != nil {
		return p, err
	}
	if p.To, err = intParam(q.Get("to"), "to"); err != nil {
		return p, err
	}
	if p.Epoch, err = uint64Param(q.Get("epoch"), "epoch"); err != nil {
		return p, err
	}
	if p.Buckets, err = intParam(q.Get("buckets"), "buckets"); err != nil {
		return p, err
	}
	if p.Limit, err = intParam(q.Get("limit"), "limit"); err != nil {
		return p, err
	}
	return p, nil
}

func intParam(v, name string) (*int, error) {
	if v == "" {
		return nil, nil
	}
	n, err := strconv.Atoi(v)
	if err != nil {
		return nil, badRequestf("bad %s %q (want an integer)", name, v)
	}
	return &n, nil
}

func int64Param(v, name string) (*int64, error) {
	if v == "" {
		return nil, nil
	}
	n, err := strconv.ParseInt(v, 10, 64)
	if err != nil {
		return nil, badRequestf("bad %s %q (want an integer)", name, v)
	}
	return &n, nil
}

func uint64Param(v, name string) (*uint64, error) {
	if v == "" {
		return nil, nil
	}
	n, err := strconv.ParseUint(v, 10, 64)
	if err != nil {
		return nil, badRequestf("bad %s %q (want an unsigned integer)", name, v)
	}
	return &n, nil
}

func floatParam(v, name string) (*float64, error) {
	if v == "" {
		return nil, nil
	}
	f, err := strconv.ParseFloat(v, 64)
	if err != nil {
		return nil, badRequestf("bad %s %q (want a number)", name, v)
	}
	return &f, nil
}

func boolParam(v, name string) (*bool, error) {
	if v == "" {
		return nil, nil
	}
	b, err := strconv.ParseBool(v)
	if err != nil {
		return nil, badRequestf("bad %s %q (want true or false)", name, v)
	}
	return &b, nil
}

// ParseTask resolves a task name ("sm", "dm", case-insensitive, long
// forms accepted) to the mining sub-problem.
func ParseTask(s string) (maprat.Task, error) {
	switch strings.ToLower(strings.TrimSpace(s)) {
	case "sm", "similarity":
		return maprat.SimilarityMining, nil
	case "dm", "diversity":
		return maprat.DiversityMining, nil
	}
	return 0, badRequestf("bad task %q (want sm or dm)", s)
}

// ExplainRequest validates the knobs and builds the engine request — the
// one decode path every op in the op table goes through.
func (p Params) ExplainRequest() (maprat.ExplainRequest, error) {
	var req maprat.ExplainRequest
	if strings.TrimSpace(p.Q) == "" {
		return req, badRequestf("missing q parameter")
	}
	q, err := query.Parse(p.Q)
	if err != nil {
		return req, badRequestf("bad query: %v", err)
	}
	settings := maprat.DefaultSettings()
	if p.K != nil {
		if *p.K < 1 || *p.K > 12 {
			return req, badRequestf("bad k %d (want 1..12)", *p.K)
		}
		settings.K = *p.K
	}
	if p.Coverage != nil {
		if !(*p.Coverage >= 0 && *p.Coverage <= 1) {
			return req, badRequestf("bad coverage %g (want 0..1)", *p.Coverage)
		}
		settings.Coverage = *p.Coverage
	}
	if p.Profile != "" {
		key, err := cube.ParseKey(p.Profile)
		if err != nil {
			return req, badRequestf("bad profile: %v", err)
		}
		settings.Profile = key
	}
	if p.Seed != nil {
		settings.Seed = *p.Seed
	}
	if p.Restarts != nil {
		if *p.Restarts < 1 || *p.Restarts > 256 {
			return req, badRequestf("bad restarts %d (want 1..256)", *p.Restarts)
		}
		settings.Restarts = *p.Restarts
	}
	q.Window, err = p.window()
	if err != nil {
		return req, err
	}
	if p.Epoch != nil {
		q.Epoch = *p.Epoch
	}
	req = maprat.ExplainRequest{Query: q, Settings: settings}
	for _, ts := range p.Tasks {
		task, err := ParseTask(ts)
		if err != nil {
			return req, err
		}
		req.Tasks = append(req.Tasks, task)
	}
	if p.Relax != nil && !*p.Relax {
		req.DisableRelax = true
	}
	switch p.Geo {
	case "", "on":
	case "off":
		req.Query.Framework = true
	default:
		return req, badRequestf("bad geo %q (want on or off)", p.Geo)
	}
	return req, nil
}

// window converts the From/To years into the inclusive rating window.
// Years are 1..model.MaxYear, which also bounds the evolution sweep to
// one window per such year.
func (p Params) window() (store.TimeWindow, error) {
	var w store.TimeWindow
	if p.From != nil && (*p.From < model.MinYear || *p.From > model.MaxYear) {
		return w, badRequestf("bad from year %d (want %d..%d)", *p.From, model.MinYear, model.MaxYear)
	}
	if p.To != nil && (*p.To < model.MinYear || *p.To > model.MaxYear) {
		return w, badRequestf("bad to year %d (want %d..%d)", *p.To, model.MinYear, model.MaxYear)
	}
	if p.From != nil {
		w.From = time.Date(*p.From, 1, 1, 0, 0, 0, 0, time.UTC).Unix()
		w.HasFrom = true
	}
	if p.To != nil {
		w.To = time.Date(*p.To+1, 1, 1, 0, 0, 0, 0, time.UTC).Unix() - 1
		w.HasTo = true
	}
	if p.From != nil && p.To != nil && *p.To < *p.From {
		return w, badRequestf("bad window: to year %d before from year %d", *p.To, *p.From)
	}
	return w, nil
}

// GroupKey parses the required key parameter of the per-group endpoints.
func (p Params) GroupKey() (maprat.Key, error) {
	if strings.TrimSpace(p.Key) == "" {
		return maprat.Key{}, badRequestf("missing key parameter")
	}
	key, err := cube.ParseKey(p.Key)
	if err != nil {
		return maprat.Key{}, badRequestf("bad key: %v", err)
	}
	return key, nil
}

// DrillTask parses the optional task parameter (default Similarity
// Mining, matching the paper's city drill-down example).
func (p Params) DrillTask() (core.Task, error) {
	if strings.TrimSpace(p.Task) == "" {
		return maprat.SimilarityMining, nil
	}
	return ParseTask(p.Task)
}

// RefineLimit validates the optional refinement cap shared by /group and
// /refine: absent or 0 means all refinements.
func (p Params) RefineLimit() (int, error) {
	if p.Limit == nil {
		return 0, nil
	}
	if *p.Limit < 0 {
		return 0, badRequestf("bad limit %d (want >= 0)", *p.Limit)
	}
	return *p.Limit, nil
}

// TimelineBuckets validates the optional /group timeline resolution
// (0 = the explore default).
func (p Params) TimelineBuckets() (int, error) {
	if p.Buckets == nil {
		return 0, nil
	}
	if *p.Buckets < 0 || *p.Buckets > 256 {
		return 0, badRequestf("bad buckets %d (want 0..256)", *p.Buckets)
	}
	return *p.Buckets, nil
}
