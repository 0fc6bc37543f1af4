// Package client is the Go SDK for a running MapRat server: typed calls
// for every /api/v1 endpoint, with retry-with-backoff around the
// transport. The wire types are shared with the server's transport
// package, so the SDK cannot drift from the contract it consumes.
//
// Typical use:
//
//	c, _ := client.New("http://localhost:8080")
//	ex, err := c.Explain(ctx, client.Params{Q: `movie:"Toy Story"`})
//
// Every read, Browse included, POSTs its Params as a JSON body, which the
// server decodes exactly as it decodes the same knobs in a GET query
// string. A response body is a pure function of the request and the
// data, so two identical reads at one epoch return identical bodies.
// What one call did is sent as headers, and Explain copies them into the
// response's FromCache and ElapsedMS fields. Reads retry transport
// errors and 429/502/503/504. AppendRatings retries only the 429 admission
// rejection: any other failure may have come after the batch was logged,
// and a replay would log it twice.
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

// retryRead reports whether a read can be retried after err: transport
// errors and Temporary API errors (429 honoring Retry-After,
// 502/503/504). Reads are idempotent, so a replay is always safe.
func retryRead(err error) bool {
	var ae *APIError
	return !errors.As(err, &ae) || ae.Temporary()
}

// retryAppend reports whether an append can be retried after err: only
// a 429, which the server answers before the engine sees the batch.
// After any other failure the batch may already be logged.
func retryAppend(err error) bool {
	var ae *APIError
	return errors.As(err, &ae) && ae.Status == http.StatusTooManyRequests
}

// do runs one HTTP call with retry+backoff, decodes a JSON success into
// out and returns the success's headers. Request bodies are byte slices,
// so every retry replays the identical payload. retry decides which
// failures are tried again.
func (c *Client) do(ctx context.Context, method, path string, body []byte, out any, retry func(error) bool) (http.Header, error) {
	var lastErr error
	for attempt := 0; attempt < c.attempts; attempt++ {
		if attempt > 0 {
			if err := c.sleep(ctx, lastErr, attempt); err != nil {
				return nil, err
			}
		}
		hdr, err := c.once(ctx, method, path, body, out)
		if err == nil {
			return hdr, nil
		}
		lastErr = err
		if !retry(err) || ctx.Err() != nil {
			return nil, err
		}
	}
	return nil, lastErr
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

func (c *Client) once(ctx context.Context, method, path string, body []byte, out any) (http.Header, error) {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequestWithContext(ctx, method, c.url(path), rd)
	if err != nil {
		return nil, err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode >= 400 {
		return nil, apiErrorFrom(resp)
	}
	if out == nil {
		_, err = io.Copy(io.Discard, resp.Body)
		return resp.Header, err
	}
	raw, err := readBody(resp)
	if err != nil {
		return nil, err
	}
	return resp.Header, api.DecodeResponse(raw, out)
}

// maxPresize caps the read buffer readBody sizes from Content-Length, so
// a wrong or hostile header cannot make the client allocate more than
// this up front; a longer body grows the buffer as it arrives.
const maxPresize = 4 << 20

// readBody reads a response body into one buffer sized from its
// Content-Length (the server frames every JSON body), with room left for
// the read that reports EOF, so a framed body never regrows it.
func readBody(resp *http.Response) ([]byte, error) {
	var buf bytes.Buffer
	buf.Grow(int(min(max(resp.ContentLength, 0), maxPresize)) + bytes.MinRead)
	_, err := buf.ReadFrom(resp.Body)
	return buf.Bytes(), err
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

// post marshals p and POSTs it under the read retry policy; every
// mining endpoint accepts the same JSON body it accepts as GET query
// parameters.
func (c *Client) post(ctx context.Context, path string, p any, out any) (http.Header, error) {
	body, err := json.Marshal(p)
	if err != nil {
		return nil, err
	}
	return c.do(ctx, http.MethodPost, path, body, out, retryRead)
}

// Explain runs the full SM/DM mining pipeline. The body carries the
// answer alone; FromCache is read from the X-Maprat-Cache header ("hit"
// when the server's result cache answered) and ElapsedMS from the total
// entry of the Server-Timing header (the server's engine time in
// milliseconds, 0 when absent).
func (c *Client) Explain(ctx context.Context, p Params) (*ExplainResponse, error) {
	var out ExplainResponse
	hdr, err := c.post(ctx, "/api/v1/explain", p, &out)
	if err != nil {
		return nil, err
	}
	out.FromCache = hdr.Get("X-Maprat-Cache") == "hit"
	out.ElapsedMS = serverTimingTotal(hdr)
	return &out, nil
}

// serverTimingTotal returns the duration of the Server-Timing header's
// "total" metric in milliseconds, or 0 when the header names none.
func serverTimingTotal(h http.Header) float64 {
	for _, v := range h.Values("Server-Timing") {
		for _, metric := range strings.Split(v, ",") {
			name, params, _ := strings.Cut(metric, ";")
			if strings.TrimSpace(name) != "total" {
				continue
			}
			for _, param := range strings.Split(params, ";") {
				if dur, ok := strings.CutPrefix(strings.TrimSpace(param), "dur="); ok {
					if ms, err := strconv.ParseFloat(dur, 64); err == nil {
						return ms
					}
				}
			}
		}
	}
	return 0
}

// Group runs the per-group exploration (stats, related, refinements).
func (c *Client) Group(ctx context.Context, p Params) (*GroupResponse, error) {
	var out GroupResponse
	if _, err := c.post(ctx, "/api/v1/group", p, &out); err != nil {
		return nil, err
	}
	return &out, nil
}

// Refine returns the drill-deeper refinements of a group.
func (c *Client) Refine(ctx context.Context, p Params) (*RefinementsResponse, error) {
	var out RefinementsResponse
	if _, err := c.post(ctx, "/api/v1/refine", p, &out); err != nil {
		return nil, err
	}
	return &out, nil
}

// Drill mines city-anchored sub-groups inside a state group.
func (c *Client) Drill(ctx context.Context, p Params) (*DrillResponse, error) {
	var out DrillResponse
	if _, err := c.post(ctx, "/api/v1/drill", p, &out); err != nil {
		return nil, err
	}
	return &out, nil
}

// Evolution runs the yearly time slider.
func (c *Client) Evolution(ctx context.Context, p Params) (*EvolutionResponse, error) {
	var out EvolutionResponse
	if _, err := c.post(ctx, "/api/v1/evolution", p, &out); err != nil {
		return nil, err
	}
	return &out, nil
}

// Browse fetches the whole-log per-state choropleth. It reads only
// p.Epoch (absent or 0 = latest): a pinned document is
// byte-identical no matter how many batches were appended after that
// epoch.
func (c *Client) Browse(ctx context.Context, p Params) (*BrowseResponse, error) {
	var out BrowseResponse
	if _, err := c.post(ctx, "/api/v1/browse", p, &out); err != nil {
		return nil, err
	}
	return &out, nil
}

// AppendRatings appends one batch of new ratings and returns the epoch
// the server accepted it at. A server serves one dataset, so dataset
// must be ""; any other value returns an error without sending the
// batch. The parameter stays only because perfbench/runner.go:223 passes
// "", until ROADMAP item 1's perfbench change drops it. The batch is
// all-or-nothing and WAL-durable before the server answers. Appends are
// not idempotent, so only an admission 429 retries (within the client's
// retry budget, honoring Retry-After): the server rejects it before the
// batch is logged. Every other failure, a lost connection or a 503
// included, returns to the caller, who alone can tell whether the batch
// should be sent again.
func (c *Client) AppendRatings(ctx context.Context, dataset string, ratings []RatingInput) (*AppendResponse, error) {
	if dataset != "" {
		return nil, fmt.Errorf("client: dataset %q: a server serves one dataset, pass \"\"", dataset)
	}
	body, err := json.Marshal(api.AppendRequest{Ratings: ratings})
	if err != nil {
		return nil, err
	}
	var out AppendResponse
	if _, err := c.do(ctx, http.MethodPost, "/api/v1/ratings", body, &out, retryAppend); err != nil {
		return nil, err
	}
	return &out, nil
}
