// Package client is the Go SDK for a running MapRat server: typed calls
// for every synchronous /api/v1 endpoint, the asynchronous job surface
// (submit, poll, cancel, wait, stream progress over SSE), and
// retry-with-backoff around the transport. The wire types are shared
// with the server's transport package, so the SDK cannot drift from the
// contract it consumes.
//
// Typical use:
//
//	c, _ := client.New("http://localhost:8080")
//	ex, err := c.Explain(ctx, client.Params{Q: `movie:"Toy Story"`})
//
// and the async lifecycle:
//
//	job, _ := c.SubmitJob(ctx, "explain", client.Params{Q: ...})
//	st, _ := c.StreamJob(ctx, job.ID, func(ev client.JobEvent) error {
//	    log.Printf("%s %s", ev.Type, ev.Data)
//	    return nil
//	})
package client

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/url"
	"strconv"
	"strings"
	"time"

	"repro/internal/api"
)

// The wire types, re-exported so SDK users need only this package.
type (
	// Params is the knob set shared by every mining endpoint.
	Params = api.Params
	// ErrorBody is the machine-readable failure a server answers with.
	ErrorBody = api.ErrorBody
	// ExplainResponse is the /api/v1/explain payload.
	ExplainResponse = api.ExplainResponse
	// GroupResponse is the /api/v1/group payload.
	GroupResponse = api.GroupResponse
	// RefinementsResponse is the /api/v1/refine payload.
	RefinementsResponse = api.RefinementsResponse
	// DrillResponse is the /api/v1/drill payload.
	DrillResponse = api.DrillResponse
	// EvolutionResponse is the /api/v1/evolution payload.
	EvolutionResponse = api.EvolutionResponse
	// BrowseResponse is the /api/v1/browse payload.
	BrowseResponse = api.BrowseResponse
	// BatchResponse is the /api/v1/batch payload.
	BatchResponse = api.BatchResponse
	// JobStatus is the job resource the async endpoints return.
	JobStatus = api.JobStatus
	// JobProgress is a job's latest restart progress.
	JobProgress = api.JobProgress
	// RatingInput is one rating of an append batch.
	RatingInput = api.RatingInput
	// AppendResponse is the /api/v1/ratings payload: the assigned epoch.
	AppendResponse = api.AppendResponse
)

// APIError is a structured failure from the server: the HTTP status plus
// the error envelope's code and message.
type APIError struct {
	Status  int
	Code    api.ErrorCode
	Message string
	// RetryAfter is the server's backoff hint on 429 (zero if absent).
	RetryAfter time.Duration
}

// Error implements error.
func (e *APIError) Error() string {
	return fmt.Sprintf("maprat server: %d %s: %s", e.Status, e.Code, e.Message)
}

// Temporary reports whether retrying the identical request can succeed:
// admission-control rejections and gateway-class failures clear on their
// own; everything else needs a different request.
func (e *APIError) Temporary() bool {
	return e.Status == http.StatusTooManyRequests ||
		e.Status == http.StatusBadGateway ||
		e.Status == http.StatusServiceUnavailable ||
		e.Status == http.StatusGatewayTimeout
}

// Option configures a Client.
type Option func(*Client)

// WithHTTPClient substitutes the underlying *http.Client.
func WithHTTPClient(hc *http.Client) Option { return func(c *Client) { c.hc = hc } }

// WithRetry sets the retry budget: attempts is the total number of tries
// (1 disables retrying), base the first backoff delay (doubling per
// retry, capped at 10s). The server's Retry-After hint, when present,
// overrides the computed backoff.
func WithRetry(attempts int, base time.Duration) Option {
	return func(c *Client) { c.attempts, c.backoff = attempts, base }
}

// Client talks to one MapRat server.
type Client struct {
	base     *url.URL
	hc       *http.Client
	attempts int
	backoff  time.Duration
	// jitter draws a random duration from [0, max); tests substitute a
	// deterministic one.
	jitter func(max time.Duration) time.Duration
}

func randJitter(max time.Duration) time.Duration {
	if max <= 0 {
		return 0
	}
	return time.Duration(rand.Int63n(int64(max)))
}

// New builds a client for a server base URL like "http://host:8080".
func New(baseURL string, opts ...Option) (*Client, error) {
	u, err := url.Parse(baseURL)
	if err != nil {
		return nil, fmt.Errorf("client: bad base URL %q: %w", baseURL, err)
	}
	if u.Scheme == "" || u.Host == "" {
		return nil, fmt.Errorf("client: base URL %q needs a scheme and host", baseURL)
	}
	u.Path = strings.TrimRight(u.Path, "/")
	c := &Client{
		base:     u,
		hc:       &http.Client{},
		attempts: 3,
		backoff:  200 * time.Millisecond,
		jitter:   randJitter,
	}
	for _, o := range opts {
		o(c)
	}
	if c.attempts < 1 {
		c.attempts = 1
	}
	return c, nil
}

// do runs one HTTP call with retry+backoff and decodes a JSON success
// into out. Request bodies are byte slices, so every retry replays the
// identical payload. Retried failures: transport errors and Temporary
// API errors (429 honoring Retry-After, 502/503/504).
func (c *Client) do(ctx context.Context, method, path string, body []byte, out any) error {
	var lastErr error
	for attempt := 0; attempt < c.attempts; attempt++ {
		if attempt > 0 {
			if err := c.sleep(ctx, lastErr, attempt); err != nil {
				return err
			}
		}
		err := c.once(ctx, method, path, body, out)
		if err == nil {
			return nil
		}
		lastErr = err
		var ae *APIError
		if errors.As(err, &ae) && !ae.Temporary() {
			return err
		}
		if ctx.Err() != nil {
			return err
		}
	}
	return lastErr
}

// sleep waits out the backoff before retry #attempt, preferring the
// server's Retry-After hint when the last failure carried one. The wait
// always selects on ctx, so cancellation cuts it short. Both waits are
// jittered: the exponential backoff with equal jitter ([d/2, d)), the
// Retry-After hint upward by up to 25% — many synchronized callers
// otherwise all reach the recovering server on the same tick and knock
// it over again.
func (c *Client) sleep(ctx context.Context, lastErr error, attempt int) error {
	d := c.backoff << (attempt - 1)
	if d > 10*time.Second {
		d = 10 * time.Second
	}
	var ae *APIError
	if errors.As(lastErr, &ae) && ae.RetryAfter > 0 {
		// Never retry before the server asked; spread the herd after it.
		d = ae.RetryAfter + c.jitter(ae.RetryAfter/4)
	} else if d > 0 {
		d = d/2 + c.jitter(d/2)
	}
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

func (c *Client) url(path string) string { return c.base.String() + path }

func (c *Client) once(ctx context.Context, method, path string, body []byte, out any) error {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequestWithContext(ctx, method, c.url(path), rd)
	if err != nil {
		return err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode >= 400 {
		return apiErrorFrom(resp)
	}
	if out == nil {
		_, err = io.Copy(io.Discard, resp.Body)
		return err
	}
	return json.NewDecoder(resp.Body).Decode(out)
}

// apiErrorFrom reads an error response into an APIError, decoding the
// envelope when present and falling back to the raw body otherwise.
func apiErrorFrom(resp *http.Response) *APIError {
	ae := &APIError{Status: resp.StatusCode, Code: api.CodeInternal}
	if secs, err := strconv.Atoi(resp.Header.Get("Retry-After")); err == nil && secs > 0 {
		ae.RetryAfter = time.Duration(secs) * time.Second
	}
	raw, _ := io.ReadAll(io.LimitReader(resp.Body, 1<<16))
	var env api.ErrorEnvelope
	if err := json.Unmarshal(raw, &env); err == nil && env.Error.Code != "" {
		ae.Code = env.Error.Code
		ae.Message = env.Error.Message
	} else {
		ae.Message = strings.TrimSpace(string(raw))
	}
	return ae
}

// post marshals p and POSTs it; every mining endpoint accepts the same
// JSON body it accepts as GET query parameters.
func (c *Client) post(ctx context.Context, path string, p any, out any) error {
	body, err := json.Marshal(p)
	if err != nil {
		return err
	}
	return c.do(ctx, http.MethodPost, path, body, out)
}

// Explain runs the full SM/DM mining pipeline.
func (c *Client) Explain(ctx context.Context, p Params) (*ExplainResponse, error) {
	var out ExplainResponse
	if err := c.post(ctx, "/api/v1/explain", p, &out); err != nil {
		return nil, err
	}
	return &out, nil
}

// Group runs the per-group exploration (stats, related, refinements).
func (c *Client) Group(ctx context.Context, p Params) (*GroupResponse, error) {
	var out GroupResponse
	if err := c.post(ctx, "/api/v1/group", p, &out); err != nil {
		return nil, err
	}
	return &out, nil
}

// Refine returns the drill-deeper refinements of a group.
func (c *Client) Refine(ctx context.Context, p Params) (*RefinementsResponse, error) {
	var out RefinementsResponse
	if err := c.post(ctx, "/api/v1/refine", p, &out); err != nil {
		return nil, err
	}
	return &out, nil
}

// Drill mines city-anchored sub-groups inside a state group.
func (c *Client) Drill(ctx context.Context, p Params) (*DrillResponse, error) {
	var out DrillResponse
	if err := c.post(ctx, "/api/v1/drill", p, &out); err != nil {
		return nil, err
	}
	return &out, nil
}

// Evolution runs the yearly time slider.
func (c *Client) Evolution(ctx context.Context, p Params) (*EvolutionResponse, error) {
	var out EvolutionResponse
	if err := c.post(ctx, "/api/v1/evolution", p, &out); err != nil {
		return nil, err
	}
	return &out, nil
}

// Browse fetches the whole-log per-state choropleth.
func (c *Client) Browse(ctx context.Context) (*BrowseResponse, error) {
	var out BrowseResponse
	if err := c.do(ctx, http.MethodGet, "/api/v1/browse", nil, &out); err != nil {
		return nil, err
	}
	return &out, nil
}

// BrowseAt fetches the per-state choropleth pinned at an epoch (0 =
// latest): the payload is byte-identical no matter how many batches were
// appended after that epoch.
func (c *Client) BrowseAt(ctx context.Context, epoch uint64) (*BrowseResponse, error) {
	path := "/api/v1/browse"
	if epoch != 0 {
		path += "?epoch=" + strconv.FormatUint(epoch, 10)
	}
	var out BrowseResponse
	if err := c.do(ctx, http.MethodGet, path, nil, &out); err != nil {
		return nil, err
	}
	return &out, nil
}

// AppendRatings appends one batch of new ratings and returns the epoch
// the server accepted it at. dataset selects the mounted dataset ("" =
// default). The batch is all-or-nothing and WAL-durable before the
// server answers. A queue-full 429 retries within the client's retry
// budget honoring the server's Retry-After — safe, because admission
// rejections happen before the batch is logged.
func (c *Client) AppendRatings(ctx context.Context, dataset string, ratings []RatingInput) (*AppendResponse, error) {
	var out AppendResponse
	req := api.AppendRequest{Dataset: dataset, Ratings: ratings}
	if err := c.post(ctx, "/api/v1/ratings", req, &out); err != nil {
		return nil, err
	}
	return &out, nil
}

// Batch fans up to the server's MaxBatch explain requests out in one
// call; results are index-aligned and fail independently.
func (c *Client) Batch(ctx context.Context, reqs []Params) (*BatchResponse, error) {
	var out BatchResponse
	if err := c.post(ctx, "/api/v1/batch", api.BatchRequest{Requests: reqs}, &out); err != nil {
		return nil, err
	}
	return &out, nil
}

// SubmitJob submits an asynchronous job: op is one of explain, group,
// refine, drill, evolution, and p carries the same knobs as the
// synchronous endpoint. A 429 (queue full) is retried within the
// client's retry budget, honoring the server's Retry-After.
func (c *Client) SubmitJob(ctx context.Context, op string, p Params) (*JobStatus, error) {
	var out JobStatus
	if err := c.post(ctx, "/api/v1/jobs", api.JobSubmitRequest{Op: op, Params: p}, &out); err != nil {
		return nil, err
	}
	return &out, nil
}

// GetJob polls a job; the result document rides along once done.
func (c *Client) GetJob(ctx context.Context, id string) (*JobStatus, error) {
	var out JobStatus
	if err := c.do(ctx, http.MethodGet, "/api/v1/jobs/"+url.PathEscape(id), nil, &out); err != nil {
		return nil, err
	}
	return &out, nil
}

// CancelJob requests cancellation. Canceling an already-terminal job is
// a no-op that answers the current status.
func (c *Client) CancelJob(ctx context.Context, id string) (*JobStatus, error) {
	var out JobStatus
	if err := c.do(ctx, http.MethodDelete, "/api/v1/jobs/"+url.PathEscape(id), nil, &out); err != nil {
		return nil, err
	}
	return &out, nil
}

// Terminal reports whether a polled state string is an end state.
func Terminal(state string) bool {
	return state == "done" || state == "failed" || state == "canceled"
}

// JobFailedError is the typed error WaitJob and StreamJob return for a
// job that reached the terminal "failed" state, carrying the envelope
// code so callers can dispatch on it (errors.As). The terminal status
// is still returned alongside the error.
type JobFailedError struct {
	ID      string
	Code    api.ErrorCode
	Message string
}

// Error implements error.
func (e *JobFailedError) Error() string {
	return fmt.Sprintf("maprat job %s failed: %s: %s", e.ID, e.Code, e.Message)
}

// failedJobError converts a terminal snapshot into its typed error (nil
// unless the state is "failed"). A canceled job is not an error: the
// caller asked for that outcome.
func failedJobError(st *JobStatus) error {
	if st.State != "failed" {
		return nil
	}
	e := &JobFailedError{ID: st.ID, Code: api.CodeInternal, Message: "job failed"}
	if st.Error != nil {
		e.Code, e.Message = st.Error.Code, st.Error.Message
	}
	return e
}

// WaitJob polls until the job reaches a terminal state (or ctx ends),
// backing off from 50ms to 1s between polls. A 429 from the poll —
// admission control pushing back harder than the do() retry budget —
// does not fail the wait: the server's Retry-After becomes the next
// poll delay. A job that terminates in the "failed" state returns its
// status AND a *JobFailedError carrying the envelope code; "done" and
// "canceled" return a nil error.
func (c *Client) WaitJob(ctx context.Context, id string) (*JobStatus, error) {
	delay := 50 * time.Millisecond
	for {
		st, err := c.GetJob(ctx, id)
		if err != nil {
			var ae *APIError
			if !errors.As(err, &ae) || ae.Status != http.StatusTooManyRequests || ctx.Err() != nil {
				return nil, err
			}
			if ae.RetryAfter > delay {
				delay = ae.RetryAfter
			}
		} else if Terminal(st.State) {
			return st, failedJobError(st)
		}
		t := time.NewTimer(delay)
		select {
		case <-t.C:
		case <-ctx.Done():
			t.Stop()
			return nil, ctx.Err()
		}
		if delay *= 2; delay > time.Second {
			delay = time.Second
		}
	}
}
