// Package server is MapRat's web front-end (§3, Figures 1–3): a search
// form over item attributes with mining settings and a time restriction,
// tabbed SM/DM choropleth result pages, a per-group exploration page with
// statistics and the city drill-down, a time-slider page, the browse
// page, and the versioned JSON API mounted from internal/api. The result
// pages are templates over the v1 response documents, which they get from
// the same api.Handler.Run call the v1 endpoints make. It is a stdlib
// net/http application; the choropleths are the inline SVG documents
// produced by internal/viz.
package server

import (
	"context"
	"fmt"
	"html/template"
	"net"
	"net/http"
	"time"

	"repro"
	"repro/internal/api"
	"repro/internal/store"
	"repro/internal/viz"
)

// Config tunes the server. It is the v1 surface's settings (request
// timeout, access log, gzip), which the HTML pages share. The zero value
// is valid.
type Config = api.Config

// shutdownGrace bounds how long ListenAndServe waits for in-flight
// requests after its context ends: generous for full-scale mining,
// finite so a stuck request cannot hold up shutdown forever.
const shutdownGrace = 10 * time.Second

// Server routes MapRat's HTTP endpoints. The HTML result pages and the
// v1 endpoints reach the engine the same way: api.Handler.Run behind the
// v1 middleware, so every mining request derives its context from the
// request (a client that disconnects cancels its mine mid-restart),
// bounded by Config.RequestTimeout.
type Server struct {
	// eng serves every page; mount names it in /statsz.
	eng   maprat.Miner
	mount *maprat.Mount
	mux   *http.ServeMux
	api   *api.Handler
}

// NewMulti builds a server over the served dataset's mount.
func NewMulti(m *maprat.Mount, cfg Config) *Server {
	s := &Server{eng: m.Engine, mount: m, mux: http.NewServeMux(), api: api.NewMulti(m, cfg)}
	s.mux.HandleFunc("/", s.handleIndex)
	s.mux.Handle("/explain", s.api.Wrap("page_explain", s.handleExplain))
	s.mux.Handle("/group", s.api.Wrap("page_group", s.handleGroup))
	s.mux.Handle("/evolution", s.api.Wrap("page_evolution", s.handleEvolution))
	s.mux.Handle("/browse", s.api.Wrap("page_browse", s.handleBrowse))
	s.mux.Handle("/api/v1/", s.api)
	s.mux.HandleFunc("/healthz", s.handleHealth)
	s.mux.HandleFunc("/statsz", s.handleStats)
	return s
}

// ServeHTTP implements http.Handler.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) { s.mux.ServeHTTP(w, r) }

// ListenAndServe serves on addr until ctx ends, then shuts down
// gracefully: the listener closes immediately, in-flight requests get
// shutdownGrace to finish. It returns nil on a clean shutdown.
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
	// shutdownGrace is cut off when Shutdown gives up and the process
	// exits; per-request deadlines already bound each mine anyway.
	srv := &http.Server{Handler: s}
	errc := make(chan error, 1)
	go func() { errc <- srv.Serve(ln) }()
	select {
	case err := <-errc:
		return err
	case <-ctx.Done():
	}
	grace, cancel := context.WithTimeout(context.Background(), shutdownGrace) //maprat:allow(ctxflow) shutdown grace window: ctx is already done here, the drain deadline must outlive it
	defer cancel()
	if err := srv.Shutdown(grace); err != nil {
		return err
	}
	<-errc // always http.ErrServerClosed after a Shutdown
	return nil
}

func (s *Server) handleHealth(w http.ResponseWriter, _ *http.Request) {
	fmt.Fprintln(w, "ok")
}

// handleStats exposes the engine's caching tiers and the per-endpoint
// counters as JSON for monitoring: the plan materialization tier
// (hit/miss/builds/tuple budget/bytes), the result LRU, the explain
// singleflight, the mining-run counter, and the latency/status metrics of
// every v1 endpoint and HTML page. The payload is encoded into a buffer before any header is
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
		Datasets []datasetStat                   `json:"datasets"`
		Ingest   *maprat.IngestStats             `json:"ingest,omitempty"`
	}{
		PlanCache: s.eng.PlanStats(),
		Mines:     s.eng.MineCount(),
		API:       s.api.MetricsSnapshot(),
	}
	// A write-armed engine contributes its live-ingestion section (epoch
	// clock, batch/tuple counters, WAL size, plan invalidation split).
	if st, on := s.eng.IngestStats(); on {
		resp.Ingest = &st
	}
	// A list of one: monitoring clients read the list shape.
	m, st := s.mount, s.eng.Dataset().Stats()
	resp.Datasets = []datasetStat{{
		Name:        m.Name,
		Fingerprint: fmt.Sprintf("%016x", s.eng.Fingerprint()),
		Users:       st.Users,
		Items:       st.Items,
		Ratings:     st.Ratings,
		Source:      m.Info.Source,
		Path:        m.Info.Path,
		FileSize:    m.Info.FileSize,
		OpenMS:      float64(m.Info.OpenDuration.Microseconds()) / 1000,
	}}
	if eng, ok := s.eng.(*maprat.Engine); ok {
		if c := eng.Store().Cache(); c != nil {
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
	stats := s.eng.Dataset().Stats()
	lo, hi := s.eng.TimeRange()
	render(w, indexTmpl, map[string]any{
		"Users":    stats.Users,
		"Items":    stats.Items,
		"Ratings":  stats.Ratings,
		"FromYear": time.Unix(lo, 0).UTC().Year(),
		"ToYear":   time.Unix(hi, 0).UTC().Year(),
	})
}

// run serves an HTML result page's request through the v1 op path:
// GET only (the forms submit with GET; the v1 surface is the place for
// POST bodies), then api.Handler.Run. A failure is answered as plain
// text with the status the v1 endpoint would answer, and ok is false.
func (s *Server) run(w http.ResponseWriter, r *http.Request, op string, defaults func(*api.Params)) (doc any, ok bool) {
	if r.Method != http.MethodGet && r.Method != http.MethodHead {
		w.Header().Set("Allow", "GET")
		http.Error(w, "method "+r.Method+" not allowed (use GET)", http.StatusMethodNotAllowed)
		return nil, false
	}
	doc, err := s.api.Run(r, op, defaults)
	if err != nil {
		http.Error(w, err.Error(), api.StatusForError(err))
		return nil, false
	}
	return doc, true
}

func (s *Server) handleExplain(w http.ResponseWriter, r *http.Request) {
	doc, ok := s.run(w, r, "explain", nil)
	if !ok {
		return
	}
	ex := doc.(*api.ExplainResponse)
	maps := api.ExplainMaps(ex)
	type tab struct {
		SVG    template.HTML
		Result api.TaskResult
	}
	var tabs []tab
	for i, tr := range ex.Tasks {
		tabs = append(tabs, tab{SVG: template.HTML(maps.Maps[i].SVG()), Result: tr})
	}
	titles := make([]string, 0, len(ex.ItemIDs))
	ds := s.eng.Dataset()
	for _, id := range ex.ItemIDs {
		if it := ds.ItemByID(id); it != nil {
			titles = append(titles, fmt.Sprintf("%s (%d)", it.Title, it.Year))
		}
	}
	elapsed := time.Duration(ex.ElapsedMS * float64(time.Millisecond))
	render(w, explainTmpl, map[string]any{
		"Query":      ex.Query,
		"RawQuery":   r.URL.Query().Get("q"),
		"Framework":  framework(r),
		"Items":      titles,
		"NumRatings": ex.NumRatings,
		"Mean":       ex.OverallMean,
		"Std":        ex.OverallStd,
		"Tabs":       tabs,
		"Elapsed":    elapsed.Round(time.Millisecond).String(),
		"FromCache":  ex.FromCache,
		"URLQuery":   template.URL(r.URL.RawQuery),
	})
}

// framework reports whether a page was requested in framework mode. Its
// groups live in the framework cube, so its explore links carry geo=off
// to reach the plan the page was mined from.
func framework(r *http.Request) bool { return r.URL.Query().Get("geo") == "off" }

// groupPageLimit caps the group page's refinement list when the URL
// names no limit.
const groupPageLimit = 8

func (s *Server) handleGroup(w http.ResponseWriter, r *http.Request) {
	// One call serves stats, related groups and refinements from the same
	// materialized plan.
	doc, ok := s.run(w, r, "group", func(p *api.Params) {
		if p.Limit == nil {
			limit := groupPageLimit
			p.Limit = &limit
		}
	})
	if !ok {
		return
	}
	g := doc.(*api.GroupResponse)
	type bar struct {
		Score int
		Count int
		Width int
	}
	maxCount := 1
	for _, c := range g.Histogram {
		maxCount = max(maxCount, c)
	}
	var bars []bar
	for i, c := range g.Histogram {
		bars = append(bars, bar{Score: i + 1, Count: c, Width: 300 * c / maxCount})
	}
	render(w, groupTmpl, map[string]any{
		"Query":       g.Query,
		"RawQuery":    r.URL.Query().Get("q"),
		"Framework":   framework(r),
		"Group":       g.Group,
		"Cities":      g.Cities,
		"Timeline":    g.Timeline,
		"Bars":        bars,
		"Related":     g.Related,
		"Refinements": g.Refinements,
		"URLQuery":    template.URL(r.URL.RawQuery),
	})
}

// handleBrowse renders browse mode, the whole-log per-state choropleth
// shown before any query is entered, from the browse document.
func (s *Server) handleBrowse(w http.ResponseWriter, r *http.Request) {
	doc, ok := s.run(w, r, "browse", nil)
	if !ok {
		return
	}
	b := doc.(*api.BrowseResponse)
	m := viz.Map{Title: "All ratings by state (whole log)"}
	for _, st := range b.States {
		m.Shades = append(m.Shades, viz.Shade{
			State:   st.State,
			Mean:    st.Mean,
			Support: st.Count,
			Label:   "reviewers from " + st.State,
			Icons:   "all reviewers",
		})
	}
	render(w, browseTmpl, map[string]any{
		"SVG":    template.HTML(m.SVG()),
		"States": b.States,
	})
}

func (s *Server) handleEvolution(w http.ResponseWriter, r *http.Request) {
	doc, ok := s.run(w, r, "evolution", nil)
	if !ok {
		return
	}
	ev := doc.(*api.EvolutionResponse)
	type row struct {
		Year   int
		Groups []api.Group
		Empty  bool
	}
	var rows []row
	for _, p := range ev.Points {
		if p.Explain == nil {
			rows = append(rows, row{Year: p.Year, Empty: true})
			continue
		}
		var groups []api.Group
		for _, tr := range p.Explain.Tasks {
			if tr.Task == "SM" {
				groups = tr.Groups
				break
			}
		}
		rows = append(rows, row{Year: p.Year, Groups: groups})
	}
	render(w, evolutionTmpl, map[string]any{
		"Query": ev.Query,
		"Rows":  rows,
	})
}

func render(w http.ResponseWriter, t *template.Template, data any) {
	w.Header().Set("Content-Type", "text/html; charset=utf-8")
	if err := t.Execute(w, data); err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
	}
}
