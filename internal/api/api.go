package api

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"log"
	"net/http"
	"runtime/debug"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro"
	"repro/internal/jobs"
)

// Config tunes the v1 surface.
type Config struct {
	// RequestTimeout bounds each mining request; zero means
	// DefaultRequestTimeout, negative disables the deadline.
	RequestTimeout time.Duration
	// MaxBatch caps the requests accepted by /api/v1/batch (zero means
	// DefaultMaxBatch).
	MaxBatch int
	// BatchWorkers bounds the concurrency a batch fans out with (zero
	// means DefaultBatchWorkers). Identical requests inside one batch
	// still mine once: the engine's singleflight layer dedups them.
	BatchWorkers int
	// Logger receives the access log; nil disables it.
	Logger *log.Logger
	// ErrorLog receives panic reports; nil means log.Default(), so
	// crashes are recorded even when the access log is off.
	ErrorLog *log.Logger
	// Jobs tunes the async job subsystem (queue depth, worker pool,
	// result TTL, job timeout); the zero value uses the jobs package
	// defaults.
	Jobs jobs.Config
	// EnableGzip lets clients negotiate gzip-compressed JSON responses
	// via Accept-Encoding on every /api/v1 endpoint except the SSE
	// stream (which must never sit behind a buffering compressor).
	EnableGzip bool
}

// The v1 defaults.
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
//	POST     /api/v1/batch      — up to MaxBatch explains, fanned out concurrently
//	POST     /api/v1/ratings    — append a batch of new ratings (202 + epoch)
//
// Every endpoint answers failures with the ErrorEnvelope. Handlers encode
// into a buffer before touching the response headers, so an encode
// failure still produces a clean 500.
type Handler struct {
	reg     *maprat.Registry
	cfg     Config
	mux     *http.ServeMux
	metrics map[string]*endpointMetrics
	reqID   atomic.Uint64
	jobs    *jobs.Manager
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
	if cfg.MaxBatch <= 0 {
		cfg.MaxBatch = DefaultMaxBatch
	}
	if cfg.BatchWorkers <= 0 {
		cfg.BatchWorkers = DefaultBatchWorkers
	}
	h := &Handler{reg: reg, cfg: cfg, mux: http.NewServeMux(), metrics: map[string]*endpointMetrics{}}
	h.jobs = jobs.NewManager(cfg.Jobs)
	h.mux.Handle("/api/v1/explain", h.wrap("explain", h.handleExplain))
	h.mux.Handle("/api/v1/group", h.wrap("group", h.handleGroup))
	h.mux.Handle("/api/v1/refine", h.wrap("refine", h.handleRefine))
	h.mux.Handle("/api/v1/drill", h.wrap("drill", h.handleDrill))
	h.mux.Handle("/api/v1/evolution", h.wrap("evolution", h.handleEvolution))
	h.mux.Handle("/api/v1/browse", h.wrap("browse", h.handleBrowse))
	h.mux.Handle("/api/v1/batch", h.wrap("batch", h.handleBatch))
	// The live-ingestion write path. Deliberately absent from
	// etagEndpoints: a write is never cacheable.
	h.mux.Handle("/api/v1/ratings", h.wrap("ratings", h.handleAppend))
	// The async job surface. The patterns carry no method so every
	// unsupported method still answers the structured 405 envelope
	// (ServeMux's own 405 is plain text).
	h.mux.Handle("/api/v1/jobs", h.wrap("jobs_submit", h.handleJobs))
	h.mux.Handle("/api/v1/jobs/{id}", h.wrap("jobs_get", h.handleJob))
	h.mux.Handle("/api/v1/jobs/{id}/events", h.wrap("jobs_events", h.handleJobEvents))
	// Routing failures reuse the envelope shape but carry the status the
	// condition deserves: 404 for a path that doesn't exist, 405 (with
	// Allow) for a method the endpoint doesn't support — see notFound and
	// methodNotAllowed.
	h.mux.Handle("/api/v1/", h.wrap("unknown", func(w http.ResponseWriter, r *http.Request) {
		notFound(w, "unknown endpoint "+r.URL.Path)
	}))
	return h
}

// ServeHTTP implements http.Handler.
func (h *Handler) ServeHTTP(w http.ResponseWriter, r *http.Request) { h.mux.ServeHTTP(w, r) }

// Close drains the job subsystem: submits stop being admitted, queued
// jobs are canceled, and running jobs get until ctx ends to finish.
// The server calls it after the HTTP listener has shut down.
func (h *Handler) Close(ctx context.Context) error { return h.jobs.Close(ctx) }

// JobStats exposes the job subsystem's gauges and counters for /statsz.
func (h *Handler) JobStats() jobs.Stats { return h.jobs.Stats() }

// Registry exposes the mounted datasets (for /statsz and tests).
func (h *Handler) Registry() *maprat.Registry { return h.reg }

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

// lookupEngine resolves a dataset name against the registry. Handlers
// that need more than the Miner surface (appends, pinned browse)
// type-assert for it.
func (h *Handler) lookupEngine(name string) (maprat.Miner, bool) {
	m, ok := h.reg.Lookup(name)
	if !ok {
		return nil, false
	}
	return m.Engine, true
}

// resolveEngine picks the miner a request mines against, answering the
// dataset_not_found envelope itself when the named dataset is not
// mounted.
func (h *Handler) resolveEngine(w http.ResponseWriter, r *http.Request, explicit string) (maprat.Miner, bool) {
	name := datasetName(r, explicit)
	eng, ok := h.lookupEngine(name)
	if !ok {
		writeEnvelope(w, CodeDatasetNotFound, datasetNotFoundMsg(name, h.reg.Names()))
		return nil, false
	}
	return eng, true
}

func datasetNotFoundMsg(name string, mounted []string) string {
	return fmt.Sprintf("no dataset %q (mounted: %s)", name, strings.Join(mounted, ", "))
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
	var buf bytes.Buffer
	if err := json.NewEncoder(&buf).Encode(v); err != nil {
		writeEnvelope(w, CodeInternal, "encoding response: "+err.Error())
		return
	}
	w.Header().Set("Content-Type", "application/json")
	_, _ = w.Write(buf.Bytes())
}

// decodeFail answers a decode/validation failure: 405 with Allow for an
// unsupported method, 413 for an oversized body, 400 for everything
// else.
func decodeFail(w http.ResponseWriter, err error) {
	var me *methodError
	if errors.As(err, &me) {
		methodNotAllowed(w, me.allow, me.msg)
		return
	}
	var tle *tooLargeError
	if errors.As(err, &tle) {
		writeEnvelopeStatus(w, http.StatusRequestEntityTooLarge, CodeBadRequest, tle.msg)
		return
	}
	writeEnvelope(w, CodeBadRequest, err.Error())
}

func (h *Handler) handleExplain(w http.ResponseWriter, r *http.Request) {
	p, err := DecodeParams(r)
	if err != nil {
		decodeFail(w, err)
		return
	}
	req, err := p.ExplainRequest()
	if err != nil {
		decodeFail(w, err)
		return
	}
	eng, ok := h.resolveEngine(w, r, p.Dataset)
	if !ok {
		return
	}
	ctx, cancel := h.requestContext(r)
	defer cancel()
	ex, err := eng.ExplainContext(ctx, req)
	if err != nil {
		writeError(w, err)
		return
	}
	WriteJSON(w, explainDTO(ex))
}

func (h *Handler) handleGroup(w http.ResponseWriter, r *http.Request) {
	p, req, key, ok := h.decodeGroupish(w, r)
	if !ok {
		return
	}
	buckets, err := p.TimelineBuckets()
	if err != nil {
		decodeFail(w, err)
		return
	}
	limit, err := p.RefineLimit()
	if err != nil {
		decodeFail(w, err)
		return
	}
	eng, ok := h.resolveEngine(w, r, p.Dataset)
	if !ok {
		return
	}
	ctx, cancel := h.requestContext(r)
	defer cancel()
	ge, err := eng.ExploreFullContext(ctx, req.Query, key, buckets, limit)
	if err != nil {
		writeError(w, err)
		return
	}
	WriteJSON(w, groupResponseDTO(req.Query.String(), ge))
}

func (h *Handler) handleRefine(w http.ResponseWriter, r *http.Request) {
	p, req, key, ok := h.decodeGroupish(w, r)
	if !ok {
		return
	}
	limit, err := p.RefineLimit()
	if err != nil {
		decodeFail(w, err)
		return
	}
	eng, ok := h.resolveEngine(w, r, p.Dataset)
	if !ok {
		return
	}
	ctx, cancel := h.requestContext(r)
	defer cancel()
	refs, err := eng.RefineGroupContext(ctx, req.Query, key, limit)
	if err != nil {
		writeError(w, err)
		return
	}
	WriteJSON(w, &RefinementsResponse{
		Query:       req.Query.String(),
		Key:         key.Param(),
		Refinements: refinementDTOs(refs),
	})
}

func (h *Handler) handleDrill(w http.ResponseWriter, r *http.Request) {
	p, req, key, ok := h.decodeGroupish(w, r)
	if !ok {
		return
	}
	task, err := p.DrillTask()
	if err != nil {
		decodeFail(w, err)
		return
	}
	eng, ok := h.resolveEngine(w, r, p.Dataset)
	if !ok {
		return
	}
	ctx, cancel := h.requestContext(r)
	defer cancel()
	tr, err := eng.DrillMineContext(ctx, req.Query, key, task, req.Settings)
	if err != nil {
		writeError(w, err)
		return
	}
	WriteJSON(w, &DrillResponse{
		Query:  req.Query.String(),
		Parent: key.Param(),
		Result: taskResultDTO(*tr),
	})
}

// decodeGroupish decodes the shared (params, explain request, group key)
// triple of the per-group endpoints, answering the error itself on
// failure.
func (h *Handler) decodeGroupish(w http.ResponseWriter, r *http.Request) (Params, maprat.ExplainRequest, maprat.Key, bool) {
	p, err := DecodeParams(r)
	if err != nil {
		decodeFail(w, err)
		return p, maprat.ExplainRequest{}, maprat.Key{}, false
	}
	req, err := p.ExplainRequest()
	if err != nil {
		decodeFail(w, err)
		return p, req, maprat.Key{}, false
	}
	key, err := p.GroupKey()
	if err != nil {
		decodeFail(w, err)
		return p, req, key, false
	}
	return p, req, key, true
}

func (h *Handler) handleEvolution(w http.ResponseWriter, r *http.Request) {
	p, err := DecodeParams(r)
	if err != nil {
		decodeFail(w, err)
		return
	}
	req, err := p.ExplainRequest()
	if err != nil {
		decodeFail(w, err)
		return
	}
	eng, ok := h.resolveEngine(w, r, p.Dataset)
	if !ok {
		return
	}
	ctx, cancel := h.requestContext(r)
	defer cancel()
	points, err := eng.EvolutionContext(ctx, req)
	if err != nil {
		writeError(w, err)
		return
	}
	WriteJSON(w, evolutionDTO(req.Query.String(), points))
}

func (h *Handler) handleBrowse(w http.ResponseWriter, r *http.Request) {
	switch r.Method {
	case http.MethodGet, http.MethodHead, http.MethodPost:
	default:
		methodNotAllowed(w, "GET, POST", "method "+r.Method+" not allowed (use GET or POST)")
		return
	}
	eng, ok := h.resolveEngine(w, r, "")
	if !ok {
		return
	}
	epoch, err := uint64Param(r.URL.Query().Get("epoch"), "epoch")
	if err != nil {
		decodeFail(w, err)
		return
	}
	var states []maprat.StateOverview
	if epoch != nil && *epoch != 0 {
		// Epoch pinning needs the engine's epoch clock; a Miner without
		// it serves only the latest view.
		eb, ok := eng.(interface {
			BrowseStatesAt(uint64) ([]maprat.StateOverview, error)
		})
		if !ok {
			writeEnvelope(w, CodeBadRequest, "this server does not support epoch-pinned browse")
			return
		}
		if states, err = eb.BrowseStatesAt(*epoch); err != nil {
			writeError(w, err)
			return
		}
	} else {
		states = eng.BrowseStates()
	}
	if states == nil {
		writeEnvelope(w, CodeInternal, "browse mode needs the precomputed global cube")
		return
	}
	resp := &BrowseResponse{GeoJSON: browseGeoJSON(states)}
	for _, st := range states {
		resp.States = append(resp.States, StateOverview{
			State: st.State, Mean: st.Agg.Mean(), Std: st.Agg.Std(), Count: st.Agg.Count,
		})
	}
	WriteJSON(w, resp)
}

// handleBatch fans up to MaxBatch explain requests out through
// ExplainContext with bounded concurrency. The engine's singleflight +
// plan tiers make duplicate elements cheap: M identical explains mine
// exactly once. Results are index-aligned with the request list and each
// element fails independently.
func (h *Handler) handleBatch(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		methodNotAllowed(w, http.MethodPost, "batch requires POST")
		return
	}
	var batch BatchRequest
	if err := decodeBody(r, &batch); err != nil {
		decodeFail(w, err)
		return
	}
	if len(batch.Requests) == 0 {
		decodeFail(w, badRequestf("empty batch"))
		return
	}
	if len(batch.Requests) > h.cfg.MaxBatch {
		decodeFail(w, badRequestf("batch of %d exceeds the limit of %d", len(batch.Requests), h.cfg.MaxBatch))
		return
	}
	ctx, cancel := h.requestContext(r)
	defer cancel()

	results := make([]BatchResult, len(batch.Requests))
	sem := make(chan struct{}, h.cfg.BatchWorkers)
	var wg sync.WaitGroup
	for i, p := range batch.Requests {
		req, err := p.ExplainRequest()
		if err != nil {
			results[i] = BatchResult{Error: &ErrorBody{Code: CodeBadRequest, Message: err.Error()}}
			continue
		}
		// Each element picks its own dataset; the request-level query /
		// header act as the default for elements that name none.
		eng, ok := h.lookupEngine(datasetName(r, p.Dataset))
		if !ok {
			results[i] = BatchResult{Error: &ErrorBody{
				Code:    CodeDatasetNotFound,
				Message: datasetNotFoundMsg(datasetName(r, p.Dataset), h.reg.Names()),
			}}
			continue
		}
		wg.Add(1)
		go func(i int, req maprat.ExplainRequest, eng maprat.Miner) {
			defer wg.Done()
			// The recovery middleware only guards the handler's own
			// goroutine; an unrecovered panic here would kill the whole
			// process, so each worker contains its own.
			defer func() {
				if p := recover(); p != nil {
					h.errorf("batch element %d panic: %v\n%s", i, p, debug.Stack())
					results[i] = BatchResult{Error: &ErrorBody{Code: CodeInternal, Message: "internal error"}}
				}
			}()
			sem <- struct{}{}
			defer func() { <-sem }()
			ex, err := eng.ExplainContext(ctx, req)
			if err != nil {
				results[i] = BatchResult{Error: errorBodyFor(err)}
				return
			}
			results[i] = BatchResult{Explain: explainDTO(ex)}
		}(i, req, eng)
	}
	wg.Wait()
	WriteJSON(w, &BatchResponse{Results: results})
}
