// Package server is MapRat's web front-end (§3, Figures 1–3): a search
// form over item attributes with mining settings and a time restriction,
// tabbed SM/DM choropleth result pages, a per-group exploration page with
// statistics and the city drill-down, a time-slider page, and the
// versioned JSON API mounted from internal/api. It is a stdlib net/http
// application; the choropleths are the inline SVG documents produced by
// internal/viz.
package server

import (
	"context"
	"fmt"
	"html/template"
	"log"
	"net"
	"net/http"
	"time"

	"repro"
	"repro/internal/api"
	"repro/internal/jobs"
	"repro/internal/store"
	"repro/internal/viz"
)

// Config tunes the server's request lifecycle.
type Config struct {
	// RequestTimeout bounds each mining request; the request's context is
	// cancelled at the deadline and the handler answers 504. Zero means
	// DefaultRequestTimeout; negative disables the per-request deadline.
	RequestTimeout time.Duration
	// ShutdownGrace bounds how long ListenAndServe waits for in-flight
	// requests after its context ends. Zero means DefaultShutdownGrace.
	ShutdownGrace time.Duration
	// MaxBatch caps /api/v1/batch (zero means api.DefaultMaxBatch).
	MaxBatch int
	// AccessLog receives the v1 surface's access log; nil disables it.
	// Panic reports go to the process logger regardless.
	AccessLog *log.Logger
	// Jobs tunes the async job subsystem mounted under /api/v1/jobs
	// (zero value = the jobs package defaults).
	Jobs jobs.Config
	// EnableGzip lets API clients negotiate gzip responses via
	// Accept-Encoding.
	EnableGzip bool
}

// The lifecycle defaults: generous for full-scale mining, finite so a
// stuck request cannot pin a connection forever.
const (
	DefaultRequestTimeout = 30 * time.Second
	DefaultShutdownGrace  = 10 * time.Second
)

// Server routes MapRat's HTTP endpoints. Every mining handler derives its
// context from the request (so a client that disconnects cancels its mine
// mid-restart) bounded by Config.RequestTimeout.
type Server struct {
	// def is the default mount. The HTML pages serve it.
	def maprat.Miner
	// eng is def when it is a local engine, nil otherwise; it gates the
	// few features that need direct store/dataset access (item titles,
	// result-cache stats).
	eng *maprat.Engine
	reg *maprat.Registry
	mux *http.ServeMux
	cfg Config
	api *api.Handler
}

// New builds a server over an opened engine with default lifecycle
// settings.
func New(eng *maprat.Engine) *Server { return NewWithConfig(eng, Config{}) }

// NewWithConfig builds a single-dataset server with explicit lifecycle
// settings.
func NewWithConfig(eng *maprat.Engine, cfg Config) *Server {
	return NewMulti(maprat.NewSingleRegistry("default", eng, maprat.DatasetInfo{}), cfg)
}

// NewMulti builds a server over a registry of mounted datasets. The v1
// API selects a dataset per request (?dataset= / X-Maprat-Dataset); the
// HTML pages serve the default (first) mount.
func NewMulti(reg *maprat.Registry, cfg Config) *Server {
	if cfg.RequestTimeout == 0 {
		cfg.RequestTimeout = DefaultRequestTimeout
	}
	if cfg.ShutdownGrace == 0 {
		cfg.ShutdownGrace = DefaultShutdownGrace
	}
	def := reg.Default().Engine
	eng, _ := def.(*maprat.Engine)
	s := &Server{def: def, eng: eng, reg: reg, mux: http.NewServeMux(), cfg: cfg}
	s.api = api.NewMulti(reg, api.Config{
		RequestTimeout: cfg.RequestTimeout,
		MaxBatch:       cfg.MaxBatch,
		Logger:         cfg.AccessLog,
		Jobs:           cfg.Jobs,
		EnableGzip:     cfg.EnableGzip,
	})
	s.mux.HandleFunc("/", s.handleIndex)
	s.mux.HandleFunc("/explain", s.handleExplain)
	s.mux.HandleFunc("/group", s.handleGroup)
	s.mux.HandleFunc("/evolution", s.handleEvolution)
	s.mux.HandleFunc("/browse", s.handleBrowse)
	s.mux.Handle("/api/v1/", s.api)
	s.mux.HandleFunc("/healthz", s.handleHealth)
	s.mux.HandleFunc("/statsz", s.handleStats)
	return s
}

// ServeHTTP implements http.Handler.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) { s.mux.ServeHTTP(w, r) }

// ListenAndServe serves on addr until ctx ends, then shuts down
// gracefully: the listener closes immediately, in-flight requests get
// Config.ShutdownGrace to finish. It returns nil on a clean shutdown.
func (s *Server) ListenAndServe(ctx context.Context, addr string) error {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return err
	}
	return s.Serve(ctx, ln)
}

// Serve is ListenAndServe over an existing listener (which it takes
// ownership of and closes).
func (s *Server) Serve(ctx context.Context, ln net.Listener) error {
	// Request contexts deliberately do not descend from ctx: shutdown
	// must drain in-flight mines, not cancel them. A mine that outlives
	// ShutdownGrace is cut off when Shutdown gives up and the process
	// exits; per-request deadlines already bound each mine anyway.
	srv := &http.Server{Handler: s}
	errc := make(chan error, 1)
	go func() { errc <- srv.Serve(ln) }()
	select {
	case err := <-errc:
		return err
	case <-ctx.Done():
	}
	grace, cancel := context.WithTimeout(context.Background(), s.cfg.ShutdownGrace) //maprat:allow(ctxflow) shutdown grace window: ctx is already done here, the drain deadline must outlive it
	defer cancel()
	err := srv.Shutdown(grace)
	// Drain the job subsystem too: queued jobs are canceled, running
	// jobs get the rest of the grace window to finish before their
	// contexts are cut.
	if cerr := s.api.Close(grace); err == nil {
		err = cerr
	}
	if err != nil {
		return err
	}
	<-errc // always http.ErrServerClosed after a Shutdown
	return nil
}

// requestContext derives the mining context for one request.
func (s *Server) requestContext(r *http.Request) (context.Context, context.CancelFunc) {
	if s.cfg.RequestTimeout < 0 {
		return r.Context(), func() {}
	}
	return context.WithTimeout(r.Context(), s.cfg.RequestTimeout)
}

// statusForError maps a mining failure to an HTTP status. The mapping is
// owned by internal/api so the HTML pages and the v1 surface cannot
// drift: timeouts are the gateway's fault (504), disconnects get the
// nginx-style 499, and only the errors meaning "the client asked for
// something that doesn't exist" — no items, no ratings in the window, no
// such group — are 404s. Everything else is an internal mining failure
// and must surface as a 500, not be blamed on the client.
func statusForError(err error) int { return api.StatusForError(err) }

// htmlError is the HTML front-end's single text-error seam. The result
// pages speak plain-text errors (their contract predates the v1
// envelope, and browsers render them fine), but every status they carry
// still comes from the same api.StatusForError mapping as the v1
// surface, so the two front-ends cannot drift. Every other error path in
// this package must go through this helper or the api envelope writers —
// maprat-vet's envelope analyzer enforces it.
func htmlError(w http.ResponseWriter, msg string, status int) {
	http.Error(w, msg, status) //maprat:allow(envelope) the HTML front-end's one sanctioned text-error seam; statuses still come from api.StatusForError
}

func (s *Server) handleHealth(w http.ResponseWriter, _ *http.Request) {
	fmt.Fprintln(w, "ok")
}

// handleStats exposes the engine's caching tiers and the v1 surface's
// per-endpoint counters as JSON for monitoring: the plan materialization
// tier (hit/miss/builds/tuple budget/bytes), the result LRU, the explain
// singleflight, the mining-run counter, and per-endpoint latency/status
// metrics. The payload is encoded into a buffer before any header is
// written, so an encode failure still produces a clean 500.
func (s *Server) handleStats(w http.ResponseWriter, _ *http.Request) {
	type datasetStat struct {
		Name        string `json:"name"`
		Fingerprint string `json:"fingerprint"`
		Users       int    `json:"users"`
		Items       int    `json:"items"`
		Ratings     int    `json:"ratings"`
		// Source is how the dataset was opened: snapshot, text or
		// generated ("" when the server was built without mount info).
		Source   string  `json:"source,omitempty"`
		Path     string  `json:"path,omitempty"`
		FileSize int64   `json:"file_size,omitempty"`
		OpenMS   float64 `json:"open_ms,omitempty"`
	}
	resp := struct {
		PlanCache store.PlanStats `json:"plan_cache"`
		Result    struct {
			Hits    uint64 `json:"hits"`
			Misses  uint64 `json:"misses"`
			Entries int    `json:"entries"`
		} `json:"result_cache"`
		Mines    uint64                          `json:"mines"`
		API      map[string]api.EndpointSnapshot `json:"api"`
		Jobs     jobs.Stats                      `json:"jobs"`
		Datasets []datasetStat                   `json:"datasets"`
		Ingest   *maprat.IngestStats             `json:"ingest,omitempty"`
	}{
		PlanCache: s.def.PlanStats(),
		Mines:     s.def.MineCount(),
		API:       s.api.MetricsSnapshot(),
		Jobs:      s.api.JobStats(),
	}
	// A write-armed engine contributes its live-ingestion section (epoch
	// clock, batch/tuple counters, WAL size, plan invalidation split).
	if ip, ok := s.def.(interface {
		IngestStats() (maprat.IngestStats, bool)
	}); ok {
		if st, on := ip.IngestStats(); on {
			resp.Ingest = &st
		}
	}
	for _, m := range s.reg.Mounts() {
		st := m.Engine.DatasetStats()
		resp.Datasets = append(resp.Datasets, datasetStat{
			Name:        m.Name,
			Fingerprint: fmt.Sprintf("%016x", m.Engine.Fingerprint()),
			Users:       st.Users,
			Items:       st.Items,
			Ratings:     st.Ratings,
			Source:      m.Info.Source,
			Path:        m.Info.Path,
			FileSize:    m.Info.FileSize,
			OpenMS:      float64(m.Info.OpenDuration.Microseconds()) / 1000,
		})
	}
	if s.eng != nil {
		if c := s.eng.Store().Cache(); c != nil {
			resp.Result.Hits, resp.Result.Misses = c.Stats()
			resp.Result.Entries = c.Len()
		}
	}
	api.WriteJSON(w, resp)
}

func (s *Server) handleIndex(w http.ResponseWriter, r *http.Request) {
	if r.URL.Path != "/" {
		http.NotFound(w, r)
		return
	}
	stats := s.def.DatasetStats()
	lo, hi := s.def.TimeRange()
	render(w, indexTmpl, map[string]any{
		"Users":    stats.Users,
		"Items":    stats.Items,
		"Ratings":  stats.Ratings,
		"FromYear": time.Unix(lo, 0).UTC().Year(),
		"ToYear":   time.Unix(hi, 0).UTC().Year(),
	})
}

// parseRequest reads the Figure-1 form fields shared by all result pages
// through the same decoder the v1 surface uses, so the two front-ends
// accept exactly the same knob set.
func (s *Server) parseRequest(r *http.Request) (api.Params, maprat.ExplainRequest, error) {
	p, err := api.DecodeParams(r)
	if err != nil {
		return p, maprat.ExplainRequest{}, err
	}
	req, err := p.ExplainRequest()
	return p, req, err
}

// requireGet guards the HTML result pages: their forms submit with GET,
// so any other method answers 405 (the v1 surface is the place for POST
// bodies) instead of reaching the decoder's JSON-body path.
func requireGet(w http.ResponseWriter, r *http.Request) bool {
	if r.Method == http.MethodGet || r.Method == http.MethodHead {
		return true
	}
	w.Header().Set("Allow", "GET")
	htmlError(w, "method "+r.Method+" not allowed (use GET)", http.StatusMethodNotAllowed)
	return false
}

func (s *Server) handleExplain(w http.ResponseWriter, r *http.Request) {
	if !requireGet(w, r) {
		return
	}
	_, req, err := s.parseRequest(r)
	if err != nil {
		htmlError(w, err.Error(), http.StatusBadRequest)
		return
	}
	ctx, cancel := s.requestContext(r)
	defer cancel()
	ex, err := s.def.ExplainContext(ctx, req)
	if err != nil {
		htmlError(w, err.Error(), statusForError(err))
		return
	}
	v := maprat.RenderExploration(ex)
	type tab struct {
		Title  string
		SVG    template.HTML
		Groups []maprat.GroupResult
		Result maprat.TaskResult
	}
	var tabs []tab
	for i, tr := range ex.Results {
		tabs = append(tabs, tab{
			Title:  tr.Task.String(),
			SVG:    template.HTML(v.Maps[i].SVG()),
			Groups: tr.Groups,
			Result: tr,
		})
	}
	titles := make([]string, 0, len(ex.ItemIDs))
	if s.eng != nil { // a wrapping Miner exposes no item catalog
		for _, id := range ex.ItemIDs {
			if it := s.eng.Dataset().ItemByID(id); it != nil {
				titles = append(titles, fmt.Sprintf("%s (%d)", it.Title, it.Year))
			}
		}
	}
	render(w, explainTmpl, map[string]any{
		"Query":      ex.Query.String(),
		"RawQuery":   r.URL.Query().Get("q"),
		"Items":      titles,
		"NumRatings": ex.NumRatings,
		"Overall":    ex.Overall,
		"Tabs":       tabs,
		"Elapsed":    ex.Elapsed.Round(time.Millisecond).String(),
		"FromCache":  ex.FromCache,
		"URLQuery":   template.URL(r.URL.RawQuery),
	})
}

func (s *Server) handleGroup(w http.ResponseWriter, r *http.Request) {
	if !requireGet(w, r) {
		return
	}
	p, req, err := s.parseRequest(r)
	if err != nil {
		htmlError(w, err.Error(), http.StatusBadRequest)
		return
	}
	key, err := p.GroupKey()
	if err != nil {
		htmlError(w, err.Error(), http.StatusBadRequest)
		return
	}
	ctx, cancel := s.requestContext(r)
	defer cancel()
	// One unified call serves stats, related groups and refinements from
	// the same materialized plan. A context deadline or disconnect in any
	// stage propagates as 504/499 — refinements are no longer a separate
	// best-effort call whose cancellation was silently swallowed.
	ge, err := s.def.ExploreFullContext(ctx, req.Query, key, 0, 8)
	if err != nil {
		htmlError(w, err.Error(), statusForError(err))
		return
	}
	st := ge.Stats
	type bar struct {
		Score int
		Count int
		Width int
	}
	maxCount := 1
	for _, c := range st.Histogram {
		if c > maxCount {
			maxCount = c
		}
	}
	var bars []bar
	for sc := 1; sc < len(st.Histogram); sc++ {
		bars = append(bars, bar{Score: sc, Count: st.Histogram[sc], Width: 300 * st.Histogram[sc] / maxCount})
	}
	render(w, groupTmpl, map[string]any{
		"Query":       req.Query.String(),
		"RawQuery":    r.URL.Query().Get("q"),
		"Stats":       st,
		"Bars":        bars,
		"Related":     ge.Related,
		"Refinements": ge.Refinements,
		"URLQuery":    template.URL(r.URL.RawQuery),
	})
}

// handleBrowse renders the whole-log per-state choropleth from the
// precomputed global cube — browse mode before any query is entered.
func (s *Server) handleBrowse(w http.ResponseWriter, r *http.Request) {
	states := s.def.BrowseStates()
	if states == nil {
		htmlError(w, "browse mode needs the precomputed global cube", http.StatusServiceUnavailable)
		return
	}
	m := viz.Map{Title: "All ratings by state (whole log)"}
	for _, st := range states {
		m.Shades = append(m.Shades, viz.Shade{
			State:   st.State,
			Mean:    st.Agg.Mean(),
			Support: st.Agg.Count,
			Label:   "reviewers from " + st.State,
			Icons:   "all reviewers",
		})
	}
	render(w, browseTmpl, map[string]any{
		"SVG":    template.HTML(m.SVG()),
		"States": states,
	})
}

func (s *Server) handleEvolution(w http.ResponseWriter, r *http.Request) {
	if !requireGet(w, r) {
		return
	}
	_, req, err := s.parseRequest(r)
	if err != nil {
		htmlError(w, err.Error(), http.StatusBadRequest)
		return
	}
	ctx, cancel := s.requestContext(r)
	defer cancel()
	points, err := s.def.EvolutionContext(ctx, req)
	if err != nil {
		htmlError(w, err.Error(), statusForError(err))
		return
	}
	type row struct {
		Year   int
		Groups []maprat.GroupResult
		Empty  bool
	}
	var rows []row
	for _, p := range points {
		y := time.Unix(p.Window.From, 0).UTC().Year()
		if p.Err != nil || p.Explanation == nil {
			rows = append(rows, row{Year: y, Empty: true})
			continue
		}
		var groups []maprat.GroupResult
		if sm := p.Explanation.Result(maprat.SimilarityMining); sm != nil {
			groups = sm.Groups
		}
		rows = append(rows, row{Year: y, Groups: groups})
	}
	render(w, evolutionTmpl, map[string]any{
		"Query": req.Query.String(),
		"Rows":  rows,
	})
}

func render(w http.ResponseWriter, t *template.Template, data any) {
	w.Header().Set("Content-Type", "text/html; charset=utf-8")
	if err := t.Execute(w, data); err != nil {
		htmlError(w, err.Error(), http.StatusInternalServerError)
	}
}
