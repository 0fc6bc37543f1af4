package api

import (
	"compress/gzip"
	"fmt"
	"hash/fnv"
	"log"
	"net/http"
	"runtime/debug"
	"strconv"
	"strings"
	"sync/atomic"
	"time"
)

// endpointMetrics accumulates one endpoint's counters. All fields are
// atomics: the handlers never take a lock on the request path.
type endpointMetrics struct {
	requests    atomic.Uint64
	errors      atomic.Uint64    // responses with status >= 400
	byClass     [6]atomic.Uint64 // [1..5] = 1xx..5xx
	totalMicros atomic.Int64
}

// EndpointSnapshot is the /statsz view of one endpoint's counters.
type EndpointSnapshot struct {
	Requests uint64 `json:"requests"`
	// Errors counts responses with a 4xx/5xx status (499 included).
	Errors uint64 `json:"errors"`
	// AvgMS is the mean wall-clock latency across all requests.
	AvgMS float64 `json:"avg_ms"`
	// Status buckets responses by class, e.g. {"2xx": 41, "5xx": 1}.
	Status map[string]uint64 `json:"status,omitempty"`
}

func (m *endpointMetrics) snapshot() EndpointSnapshot {
	s := EndpointSnapshot{
		Requests: m.requests.Load(),
		Errors:   m.errors.Load(),
	}
	if s.Requests > 0 {
		s.AvgMS = float64(m.totalMicros.Load()) / 1000 / float64(s.Requests)
	}
	for class := 1; class <= 5; class++ {
		if n := m.byClass[class].Load(); n > 0 {
			if s.Status == nil {
				s.Status = map[string]uint64{}
			}
			s.Status[fmt.Sprintf("%dxx", class)] = n
		}
	}
	return s
}

// MetricsSnapshot returns the per-endpoint latency/status counters, keyed
// by endpoint name — the payload the server surfaces under /statsz.
func (h *Handler) MetricsSnapshot() map[string]EndpointSnapshot {
	out := make(map[string]EndpointSnapshot, len(h.metrics))
	for name, m := range h.metrics {
		out[name] = m.snapshot()
	}
	return out
}

// statusRecorder captures the response status so the middleware can count
// it and the panic handler can tell whether headers already went out. It
// also defers the ETag header until the status is known: the tag only
// belongs on a successful representation, never on an error envelope.
type statusRecorder struct {
	http.ResponseWriter
	status  int
	written bool
	etag    string // set on 200 responses just before headers go out
}

func (r *statusRecorder) beforeHeaders(code int) {
	if r.etag != "" && code == http.StatusOK {
		r.ResponseWriter.Header().Set("ETag", r.etag)
	}
}

func (r *statusRecorder) WriteHeader(code int) {
	if !r.written {
		r.beforeHeaders(code)
		r.status = code
		r.written = true
	}
	r.ResponseWriter.WriteHeader(code)
}

func (r *statusRecorder) Write(b []byte) (int, error) {
	if !r.written {
		r.beforeHeaders(http.StatusOK)
		r.status = http.StatusOK
		r.written = true
	}
	return r.ResponseWriter.Write(b)
}

// gzipWriter transparently compresses the response body when the client
// opted in via Accept-Encoding. The encoding decision is deferred to the
// first header write so bodyless responses (304) stay unencoded.
type gzipWriter struct {
	http.ResponseWriter
	gz          *gzip.Writer
	wroteHeader bool
}

func (g *gzipWriter) WriteHeader(code int) {
	if !g.wroteHeader {
		g.wroteHeader = true
		if code != http.StatusNoContent && code != http.StatusNotModified {
			g.Header().Set("Content-Encoding", "gzip")
			g.Header().Del("Content-Length")
			g.gz = gzip.NewWriter(g.ResponseWriter)
		}
	}
	g.ResponseWriter.WriteHeader(code)
}

func (g *gzipWriter) Write(b []byte) (int, error) {
	if !g.wroteHeader {
		g.WriteHeader(http.StatusOK)
	}
	if g.gz != nil {
		return g.gz.Write(b)
	}
	return g.ResponseWriter.Write(b)
}

// Close flushes the gzip trailer after the handler returns.
func (g *gzipWriter) Close() error {
	if g.gz != nil {
		return g.gz.Close()
	}
	return nil
}

// acceptsGzip reports whether the request opted into a gzip response.
// A qvalue of 0 means "not acceptable" (RFC 9110 §12.4.2), so
// `gzip;q=0` is an explicit refusal, not an opt-in.
func acceptsGzip(r *http.Request) bool {
	for _, part := range strings.Split(r.Header.Get("Accept-Encoding"), ",") {
		enc, params, _ := strings.Cut(strings.TrimSpace(part), ";")
		if enc = strings.TrimSpace(enc); enc != "gzip" && enc != "*" {
			continue
		}
		q, ok := strings.CutPrefix(strings.ReplaceAll(strings.TrimSpace(params), " ", ""), "q=")
		if ok {
			if v, err := strconv.ParseFloat(q, 64); err == nil && v == 0 {
				continue
			}
		}
		return true
	}
	return false
}

// etagEndpoints names the deterministic GET endpoints that participate
// in conditional requests: seeded mining is a pure function of (request,
// dataset), so their representations are cacheable under a strong tag.
var etagEndpoints = map[string]bool{
	"explain":   true,
	"group":     true,
	"refine":    true,
	"drill":     true,
	"evolution": true,
	"browse":    true,
}

// etagFor derives the strong entity tag for a GET request: a hash of the
// endpoint, the canonical (sorted) query string, and the fingerprint of
// the dataset the request addresses. Any change to the knobs or the data
// underneath yields a different tag. The second return is false when the
// request names a dataset that is not mounted — no tag exists, and the
// handler's own resolution will answer the 404 envelope.
func (h *Handler) etagFor(name string, r *http.Request) (string, bool) {
	m, ok := h.reg.Lookup(datasetName(r, ""))
	if !ok {
		return "", false
	}
	// Under live ingestion the fingerprint folds the epoch in: an unpinned
	// tag rolls over on every accepted append batch (a write invalidates
	// cached 304s), while a ?epoch=-pinned tag is a function of the pinned
	// epoch and stays valid across later appends.
	fp := m.Engine.Fingerprint()
	if v := r.URL.Query().Get("epoch"); v != "" {
		if ep, err := strconv.ParseUint(v, 10, 64); err == nil && ep > 0 {
			if pin, ok := m.Engine.(interface{ FingerprintAt(uint64) uint64 }); ok {
				fp = pin.FingerprintAt(ep)
			}
		}
		// Garbage (or 0 = latest) falls through to the live fingerprint;
		// the handler's own decode answers the 400 for garbage, and a
		// client can never hold a tag for a request that answered 400.
	}
	f := fnv.New64a()
	f.Write([]byte(name))
	f.Write([]byte{0})
	f.Write([]byte(r.URL.Query().Encode()))
	f.Write([]byte{0})
	fmt.Fprintf(f, "%016x", fp)
	return fmt.Sprintf(`"mr64-%016x"`, f.Sum64()), true
}

// etagMatches implements the If-None-Match comparison for a strong tag:
// any listed tag equal to ours. The `*` wildcard is deliberately NOT
// honored: the 304 short-circuit runs before request validation, and a
// wildcard would turn requests that should answer 400/404 into 304s. A
// client can only hold a concrete tag it was handed on a previous 200,
// so exact matches cannot hit that trap.
func etagMatches(header, tag string) bool {
	for _, part := range strings.Split(header, ",") {
		if strings.TrimSpace(part) == tag {
			return true
		}
	}
	return false
}

// Wrap applies the v1 middleware stack to one endpoint: request ID,
// panic recovery, opt-in gzip encoding, conditional-request handling on
// the deterministic GET endpoints, access log, and per-endpoint
// latency/status counters reported under name in MetricsSnapshot. The
// server mounts its HTML pages behind it too. Call it only while
// building the mux, before the handler serves.
func (h *Handler) Wrap(name string, fn http.HandlerFunc) http.Handler {
	m := &endpointMetrics{}
	h.metrics[name] = m
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()
		id := r.Header.Get("X-Request-ID")
		if id == "" {
			id = fmt.Sprintf("v1-%06d", h.reqID.Add(1))
		}
		w.Header().Set("X-Request-ID", id)
		var gzw *gzipWriter
		if h.cfg.EnableGzip {
			w.Header().Set("Vary", "Accept-Encoding")
			if acceptsGzip(r) {
				gzw = &gzipWriter{ResponseWriter: w}
				w = gzw
			}
		}
		rec := &statusRecorder{ResponseWriter: w, status: http.StatusOK}
		defer func() {
			if p := recover(); p != nil {
				if p == http.ErrAbortHandler {
					// The stdlib's deliberate silent-abort mechanism:
					// re-panic so net/http suppresses it as intended.
					panic(p)
				}
				// Never silent: the access log may be off.
				log.Printf("%s %s id=%s panic: %v\n%s", r.Method, r.URL.Path, id, p, debug.Stack())
				if !rec.written {
					writeEnvelope(rec, CodeInternal, "internal error")
				}
			}
			if gzw != nil {
				_ = gzw.Close()
			}
			elapsed := time.Since(start)
			m.requests.Add(1)
			m.totalMicros.Add(elapsed.Microseconds())
			if class := rec.status / 100; class >= 1 && class <= 5 {
				m.byClass[class].Add(1)
				if class >= 4 {
					m.errors.Add(1)
				}
			}
			h.logf("%s %s id=%s status=%d elapsed=%s", r.Method, r.URL.Path, id, rec.status, elapsed.Round(time.Microsecond))
		}()
		// Conditional requests: a matching If-None-Match answers 304
		// without running the pipeline at all — the tag covers both the
		// request knobs and the dataset, so a match proves the client
		// already holds exactly what mining would recompute.
		if etagEndpoints[name] && (r.Method == http.MethodGet || r.Method == http.MethodHead) {
			if tag, ok := h.etagFor(name, r); ok {
				if etagMatches(r.Header.Get("If-None-Match"), tag) {
					rec.Header().Set("ETag", tag)
					rec.WriteHeader(http.StatusNotModified)
					return
				}
				rec.etag = tag
			}
		}
		fn(rec, r)
	})
}

func (h *Handler) logf(format string, args ...any) {
	if h.cfg.Logger != nil {
		h.cfg.Logger.Printf(format, args...)
	}
}
