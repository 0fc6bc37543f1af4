package api

import (
	"context"
	"log"
	"net/http"
	"strconv"
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

// DefaultRequestTimeout bounds a mining request whose Config leaves
// RequestTimeout zero.
const DefaultRequestTimeout = 30 * time.Second

// Handler serves the versioned /api/v1 surface over an opened engine:
//
//	GET|POST /api/v1/explain    — the full SM/DM mining pipeline
//	GET|POST /api/v1/group      — per-group exploration (stats, related, refinements)
//	GET|POST /api/v1/refine     — drill-deeper refinements only
//	GET|POST /api/v1/drill      — city-anchored mining inside a state group
//	GET|POST /api/v1/evolution  — the yearly time slider
//	GET|POST /api/v1/browse     — whole-log per-state choropleth
//	POST     /api/v1/ratings    — append a batch of new ratings (202 + epoch)
//
// The six reads are the op table's entries. Each is one request through
// Run, so a GET query string and a POST body decode to the same Params.
// Every endpoint answers failures with the ErrorEnvelope. Handlers encode
// into a buffer before touching the response headers, so an encode
// failure still produces a clean 500.
type Handler struct {
	eng     maprat.Miner
	cfg     Config
	mux     *http.ServeMux
	metrics map[string]*endpointMetrics
	reqID   atomic.Uint64
	// appendSlots admits at most maxPendingAppends append batches at a
	// time; a batch that finds every slot taken answers 429.
	appendSlots chan struct{}
}

// NewMulti mounts the v1 endpoints over the served dataset's engine.
func NewMulti(m *maprat.Mount, cfg Config) *Handler {
	if m == nil || m.Engine == nil {
		panic("api: NewMulti needs a mounted engine")
	}
	if cfg.RequestTimeout == 0 {
		cfg.RequestTimeout = DefaultRequestTimeout
	}
	h := &Handler{
		eng:         m.Engine,
		cfg:         cfg,
		mux:         http.NewServeMux(),
		metrics:     map[string]*endpointMetrics{},
		appendSlots: make(chan struct{}, maxPendingAppends),
	}
	for _, name := range opNames {
		h.mux.Handle("/api/v1/"+name, h.Wrap(name, h.handleOp(name)))
	}
	// The live-ingestion write path. It is not an op, so it carries no
	// ETag: a write is never cacheable.
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
	writeBody(w, body, err)
}

// writeBody writes an encoded JSON body, or the 500 envelope when the
// encode failed. The body goes out with its Content-Length, so net/http
// never chunks it and a client can size its read buffer; the gzip
// middleware drops the header when it compresses.
func writeBody(w http.ResponseWriter, body []byte, err error) {
	if err != nil {
		writeEnvelope(w, CodeInternal, "encoding response: "+err.Error())
		return
	}
	h := w.Header()
	h.Set("Content-Type", "application/json")
	h.Set("Content-Length", strconv.Itoa(len(body)))
	_, _ = w.Write(body)
}

// Run is the synchronous op path every front-end shares: decode the
// request's knobs, validate them through the op table, and run the call
// under the request's deadline. It returns the response document. A
// non-nil defaults fills knobs the request left absent before
// validation, for a front-end whose defaults differ from the v1 ones.
// Every error it returns is classified by CodeForError and
// StatusForError.
func (h *Handler) Run(r *http.Request, op string, defaults func(*Params)) (any, error) {
	rep, err := h.run(r, op, defaults)
	if err != nil {
		return nil, err
	}
	return rep.Doc(), nil
}

// run is Run up to the call's Reply.
func (h *Handler) run(r *http.Request, op string, defaults func(*Params)) (*Reply, error) {
	p, err := DecodeParams(r)
	if err != nil {
		return nil, err
	}
	if defaults != nil {
		defaults(&p)
	}
	call, err := Op(op, p)
	if err != nil {
		return nil, err
	}
	ctx, cancel := h.requestContext(r)
	defer cancel()
	return call(ctx, h.eng)
}

// handleOp serves one pipeline's synchronous endpoint: run, then write
// the reply's body. An explain's per-call facts go out as headers:
// X-Maprat-Cache says whether the result cache answered (hit) or the
// call mined (miss), and Server-Timing's total is the engine's time in
// milliseconds.
func (h *Handler) handleOp(name string) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		rep, err := h.run(r, name, nil)
		if err != nil {
			writeError(w, err)
			return
		}
		body, err := rep.encode()
		if ex := rep.ex; ex != nil && err == nil {
			cache := "miss"
			if ex.FromCache {
				cache = "hit"
			}
			w.Header().Set("X-Maprat-Cache", cache)
			var buf [32]byte
			w.Header().Set("Server-Timing", string(strconv.AppendFloat(append(buf[:0], "total;dur="...), elapsedMS(ex.Elapsed), 'f', -1, 64)))
		}
		writeBody(w, body, err)
	}
}
