package api

import (
	"context"
	"fmt"
	"log"
	"net/http"
	"runtime/debug"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro"
)

// Config tunes the v1 surface.
type Config struct {
	// RequestTimeout bounds each mining request; zero means
	// DefaultRequestTimeout, negative disables the deadline.
	RequestTimeout time.Duration
	// Logger receives the access log; nil disables it. Panic reports go
	// to log.Default() regardless, so crashes are recorded even when the
	// access log is off.
	Logger *log.Logger
	// EnableGzip lets clients negotiate gzip-compressed responses via
	// Accept-Encoding on every endpoint behind Wrap (the v1 surface and
	// the server's HTML pages).
	EnableGzip bool
}

// The v1 defaults. DefaultMaxBatch caps the requests one /api/v1/batch
// call accepts. DefaultBatchWorkers bounds the concurrency a batch fans
// out with; identical requests inside one batch still mine once, because
// the engine's singleflight layer dedups them.
const (
	DefaultRequestTimeout = 30 * time.Second
	DefaultMaxBatch       = 16
	DefaultBatchWorkers   = 4
)

// Handler serves the versioned /api/v1 surface over an opened engine:
//
//	GET|POST /api/v1/explain    — the full SM/DM mining pipeline
//	GET|POST /api/v1/group      — per-group exploration (stats, related, refinements)
//	GET|POST /api/v1/refine     — drill-deeper refinements only
//	GET|POST /api/v1/drill      — city-anchored mining inside a state group
//	GET|POST /api/v1/evolution  — the yearly time slider
//	GET|POST /api/v1/browse     — whole-log per-state choropleth
//	POST     /api/v1/batch      — up to DefaultMaxBatch explains, fanned out concurrently
//	POST     /api/v1/ratings    — append a batch of new ratings (202 + epoch)
//
// The six reads are the op table's entries: each runs through Run, so a
// GET query string and a POST body decode to the same Params, and the
// dataset resolves the same way on every read. Every endpoint answers
// failures with the ErrorEnvelope. Handlers encode into a buffer before
// touching the response headers, so an encode failure still produces a
// clean 500.
type Handler struct {
	reg     *maprat.Registry
	cfg     Config
	mux     *http.ServeMux
	metrics map[string]*endpointMetrics
	reqID   atomic.Uint64
	// appendSlots admits at most maxPendingAppends append batches at a
	// time; a batch that finds every slot taken answers 429.
	appendSlots chan struct{}
}

// New mounts the v1 endpoints over a single engine — the compatibility
// constructor for servers that predate multi-dataset serving. The engine
// becomes the sole (default) mount, so requests that name no dataset
// behave exactly as before.
func New(eng *maprat.Engine, cfg Config) *Handler {
	return NewMulti(maprat.NewSingleRegistry("default", eng, maprat.DatasetInfo{}), cfg)
}

// NewMulti mounts the v1 endpoints over a registry of datasets. Every
// mining endpoint selects its dataset per request — an explicit
// "dataset" parameter (query or JSON body), the X-Maprat-Dataset header,
// or the registry's default mount — and an unknown name answers the
// dataset_not_found envelope with 404.
func NewMulti(reg *maprat.Registry, cfg Config) *Handler {
	if reg == nil || reg.Len() == 0 {
		panic("api: NewMulti needs a registry with at least one mount")
	}
	if cfg.RequestTimeout == 0 {
		cfg.RequestTimeout = DefaultRequestTimeout
	}
	h := &Handler{
		reg:         reg,
		cfg:         cfg,
		mux:         http.NewServeMux(),
		metrics:     map[string]*endpointMetrics{},
		appendSlots: make(chan struct{}, maxPendingAppends),
	}
	for _, name := range opNames {
		h.mux.Handle("/api/v1/"+name, h.Wrap(name, h.handleOp(name)))
	}
	h.mux.Handle("/api/v1/batch", h.Wrap("batch", h.handleBatch))
	// The live-ingestion write path. Deliberately absent from
	// etagEndpoints: a write is never cacheable.
	h.mux.Handle("/api/v1/ratings", h.Wrap("ratings", h.handleAppend))
	// Routing failures reuse the envelope shape but carry the status the
	// condition deserves: 404 for a path that doesn't exist, 405 (with
	// Allow) for a method the endpoint doesn't support.
	h.mux.Handle("/api/v1/", h.Wrap("unknown", func(w http.ResponseWriter, r *http.Request) {
		writeEnvelope(w, CodeNotFound, "unknown endpoint "+r.URL.Path)
	}))
	return h
}

// ServeHTTP implements http.Handler.
func (h *Handler) ServeHTTP(w http.ResponseWriter, r *http.Request) { h.mux.ServeHTTP(w, r) }

// datasetName resolves which dataset a request addresses, in precedence
// order: an explicit value decoded from the body/params, the ?dataset=
// query parameter, then the X-Maprat-Dataset header. "" means "the
// default mount".
func datasetName(r *http.Request, explicit string) string {
	if explicit != "" {
		return explicit
	}
	if q := r.URL.Query().Get("dataset"); q != "" {
		return q
	}
	return r.Header.Get("X-Maprat-Dataset")
}

// datasetError marks a request naming a dataset that is not mounted.
type datasetError struct {
	name    string
	mounted []string
}

func (e *datasetError) Error() string {
	return fmt.Sprintf("no dataset %q (mounted: %s)", e.name, strings.Join(e.mounted, ", "))
}

// resolve picks the mount a request addresses; a name that is not
// mounted is a *datasetError (404 dataset_not_found).
func (h *Handler) resolve(r *http.Request, explicit string) (*maprat.Mount, error) {
	name := datasetName(r, explicit)
	m, ok := h.reg.Lookup(name)
	if !ok {
		return nil, &datasetError{name: name, mounted: h.reg.Names()}
	}
	return m, nil
}

// requestContext derives the mining context for one request.
func (h *Handler) requestContext(r *http.Request) (context.Context, context.CancelFunc) {
	if h.cfg.RequestTimeout < 0 {
		return r.Context(), func() {}
	}
	return context.WithTimeout(r.Context(), h.cfg.RequestTimeout)
}

// WriteJSON encodes v into a buffer first, so a marshalling failure can
// still answer a clean 500 (the error envelope) instead of corrupting a
// half-written 200. Shared with internal/server's JSON handlers.
func WriteJSON(w http.ResponseWriter, v any) {
	body, err := encodeJSON(v)
	if err != nil {
		writeEnvelope(w, CodeInternal, "encoding response: "+err.Error())
		return
	}
	w.Header().Set("Content-Type", "application/json")
	_, _ = w.Write(body)
}

// Run is the synchronous op path every front-end shares: decode the
// request's knobs, validate them through the op table, resolve the
// dataset, and run the call under the request's deadline. It returns the
// response document and the mount it was computed on. A non-nil defaults
// fills knobs the request left absent before validation, for a
// front-end whose defaults differ from the v1 ones. Every error it
// returns is classified by CodeForError and StatusForError.
func (h *Handler) Run(r *http.Request, op string, defaults func(*Params)) (any, *maprat.Mount, error) {
	p, err := DecodeParams(r)
	if err != nil {
		return nil, nil, err
	}
	if defaults != nil {
		defaults(&p)
	}
	call, err := Op(op, p)
	if err != nil {
		return nil, nil, err
	}
	m, err := h.resolve(r, p.Dataset)
	if err != nil {
		return nil, nil, err
	}
	ctx, cancel := h.requestContext(r)
	defer cancel()
	doc, err := call(ctx, m.Engine)
	return doc, m, err
}

// handleOp serves one pipeline's synchronous endpoint: Run, then write
// the response document.
func (h *Handler) handleOp(name string) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		doc, _, err := h.Run(r, name, nil)
		if err != nil {
			writeError(w, err)
			return
		}
		WriteJSON(w, doc)
	}
}

// handleBatch fans up to DefaultMaxBatch explain requests out through
// the op table's explain entry with bounded concurrency. The engine's
// singleflight + plan tiers make duplicate elements cheap: M identical
// explains mine exactly once. Results are index-aligned with the request
// list and each element fails independently.
func (h *Handler) handleBatch(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		methodNotAllowed(w, http.MethodPost, "batch requires POST")
		return
	}
	var batch BatchRequest
	if err := decodeBody(r, &batch); err != nil {
		writeError(w, err)
		return
	}
	if len(batch.Requests) == 0 {
		writeError(w, badRequestf("empty batch"))
		return
	}
	if len(batch.Requests) > DefaultMaxBatch {
		writeError(w, badRequestf("batch of %d exceeds the limit of %d", len(batch.Requests), DefaultMaxBatch))
		return
	}
	ctx, cancel := h.requestContext(r)
	defer cancel()

	results := make([]BatchResult, len(batch.Requests))
	sem := make(chan struct{}, DefaultBatchWorkers)
	var wg sync.WaitGroup
	for i, p := range batch.Requests {
		call, err := Op("explain", p)
		if err != nil {
			results[i] = BatchResult{Error: errorBodyFor(err)}
			continue
		}
		// Each element picks its own dataset; the request-level query /
		// header act as the default for elements that name none.
		m, err := h.resolve(r, p.Dataset)
		if err != nil {
			results[i] = BatchResult{Error: errorBodyFor(err)}
			continue
		}
		wg.Add(1)
		go func(i int, call Call, eng maprat.Miner) {
			defer wg.Done()
			// The recovery middleware only guards the handler's own
			// goroutine; an unrecovered panic here would kill the whole
			// process, so each worker contains its own.
			defer func() {
				if p := recover(); p != nil {
					log.Printf("batch element %d panic: %v\n%s", i, p, debug.Stack())
					results[i] = BatchResult{Error: &ErrorBody{Code: CodeInternal, Message: "internal error"}}
				}
			}()
			sem <- struct{}{}
			defer func() { <-sem }()
			v, err := call(ctx, eng)
			if err != nil {
				results[i] = BatchResult{Error: errorBodyFor(err)}
				return
			}
			results[i] = BatchResult{Explain: v.(*ExplainResponse)}
		}(i, call, m.Engine)
	}
	wg.Wait()
	WriteJSON(w, &BatchResponse{Results: results})
}
