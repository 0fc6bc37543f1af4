// Package bench is the experiment harness: one function per experiment
// (E1–E12, listed in Experiments), each regenerating the functional
// content of a paper figure or claim and printing the measured table.
// cmd/maprat-bench runs them all; the root bench_test.go wraps the same
// workloads in testing.B benchmarks.
package bench

import (
	"context"
	"fmt"
	"io"
	"math"
	"sort"
	"time"

	"repro"
	"repro/internal/core"
	"repro/internal/cube"
	"repro/internal/query"
)

// Report is one experiment's rendered result.
type Report struct {
	ID    string
	Title string
	Lines []string
}

func (r *Report) addf(format string, args ...any) {
	r.Lines = append(r.Lines, fmt.Sprintf(format, args...))
}

// Print writes the report with a header rule.
func (r *Report) Print(w io.Writer) {
	fmt.Fprintf(w, "\n=== %s — %s ===\n", r.ID, r.Title)
	for _, l := range r.Lines {
		fmt.Fprintln(w, l)
	}
}

// Experiment pairs an experiment ID with its runner.
type Experiment struct {
	ID  string
	Run func(context.Context, *maprat.Engine) Report
}

// Experiments is the single ordered registry of every experiment; RunAll
// and cmd/maprat-bench both iterate it, so a new experiment registered
// here appears in default runs, -only lookup, and JSON snapshots alike.
var Experiments = []Experiment{
	{"E1", E1Queries}, {"E2", E2SimilarityToyStory}, {"E3", E3Exploration},
	{"E4", E4Controversial}, {"E5", E5Caching}, {"E6", E6QualityVsBaselines},
	{"E7", E7Scalability}, {"E8", E8Rendering}, {"E9", E9TimeSlider},
	{"E10", E10Ablations}, {"E11", E11ColdPath}, {"E12", E12Snapshot},
}

// RunAll executes every experiment against the engine and streams the
// reports.
func RunAll(ctx context.Context, eng *maprat.Engine, w io.Writer) {
	for _, e := range Experiments {
		rep := e.Run(ctx, eng)
		rep.Print(w)
	}
}

// timeIt returns the median wall time of reps runs of f.
func timeIt(reps int, f func()) time.Duration {
	if reps < 1 {
		reps = 1
	}
	ds := make([]time.Duration, reps)
	for i := range ds {
		start := time.Now()
		f()
		ds[i] = time.Since(start)
	}
	sort.Slice(ds, func(a, b int) bool { return ds[a] < ds[b] })
	return ds[reps/2]
}

// solveRHE runs RHE under ctx; like the rest of the harness it panics on
// failure (only cancellation can fail a solve).
func solveRHE(ctx context.Context, p *core.Problem) core.Solution {
	sol, err := p.SolveRHECtx(ctx)
	if err != nil {
		panic(err)
	}
	return sol
}

func mustParse(eng *maprat.Engine, s string) maprat.Query {
	q, err := eng.ParseQuery(s)
	if err != nil {
		panic(fmt.Sprintf("bench: parse %q: %v", s, err))
	}
	return q
}

// E1QueryMix is the Figure-1 workload: the query forms the search UI
// supports (single title, actor, conjunctive director∧genre, disjunctive
// trilogy).
var E1QueryMix = []string{
	`movie:"Toy Story"`,
	`actor:"Tom Hanks"`,
	`director:"Steven Spielberg" AND genre:Thriller`,
	`movie:"The Lord of the Rings: The Fellowship of the Ring" OR movie:"The Lord of the Rings: The Two Towers" OR movie:"The Lord of the Rings: The Return of the King"`,
	`genre:Animation`,
}

// E1Queries measures query resolution (parse → item set → R_I gather) for
// the Figure-1 query mix.
func E1Queries(ctx context.Context, eng *maprat.Engine) Report {
	r := Report{ID: "E1", Title: "Figure 1 — query forms: resolution latency"}
	r.addf("%-72s %7s %9s %12s", "query", "items", "ratings", "resolve+gather")
	for _, qs := range E1QueryMix {
		q := mustParse(eng, qs)
		var ids []int
		var tuples int
		med := timeIt(5, func() {
			ids, _ = query.Resolve(eng.Store(), q)
			tuples = len(eng.Store().TuplesForItems(ids, q.Window))
		})
		r.addf("%-72s %7d %9d %12s", truncate(qs, 72), len(ids), tuples, med)
	}
	return r
}

// E2SimilarityToyStory regenerates Figure 2: the best-3 Similarity-Mining
// groups for Toy Story, checking the figure's qualitative shape (three
// geo-anchored, internally consistent, positively rated groups).
func E2SimilarityToyStory(ctx context.Context, eng *maprat.Engine) Report {
	r := Report{ID: "E2", Title: "Figure 2 — Similarity Mining for movie:\"Toy Story\""}
	q := mustParse(eng, `movie:"Toy Story"`)
	req := maprat.ExplainRequest{
		Query: q, Tasks: []maprat.Task{maprat.SimilarityMining}, DisableCache: true,
	}
	var ex *maprat.Explanation
	med := timeIt(3, func() {
		var err error
		ex, err = eng.ExplainContext(ctx, req)
		if err != nil {
			panic(err)
		}
	})
	sm := ex.Result(maprat.SimilarityMining)
	r.addf("ratings=%d overall μ=%.2f — mined in %s", ex.NumRatings, ex.Overall.Mean(), med)
	r.addf("objective (weighted σ) = %.4f, coverage = %.1f%% (α = %.0f%%)",
		sm.Objective, sm.Coverage*100, sm.RelaxedCoverage*100)
	r.addf("%-62s %-6s %6s %6s %6s %7s", "group", "state", "μ", "σ", "n", "share")
	allPositive, allGeo := true, true
	for _, g := range sm.Groups {
		r.addf("%-62s %-6s %6.2f %6.2f %6d %6.1f%%",
			truncate(g.Phrase, 62), g.State, g.Agg.Mean(), g.Agg.Std(), g.Agg.Count, g.Share*100)
		if g.Agg.Mean() < 3.0 {
			allPositive = false
		}
		if g.State == "" {
			allGeo = false
		}
	}
	r.addf("shape check: %d groups (paper: 3) | all geo-anchored: %v (paper: yes) | all positive: %v (paper: yes)",
		len(sm.Groups), allGeo, allPositive)
	return r
}

// E3Exploration regenerates Figure 3: drill into the top SM group —
// histogram, city drill-down, rating evolution, related groups.
func E3Exploration(ctx context.Context, eng *maprat.Engine) Report {
	r := Report{ID: "E3", Title: "Figure 3 — exploration of the top Similarity group"}
	q := mustParse(eng, `movie:"Toy Story"`)
	ex, err := eng.ExplainContext(ctx, maprat.ExplainRequest{Query: q, Tasks: []maprat.Task{maprat.SimilarityMining}})
	if err != nil {
		panic(err)
	}
	top := ex.Result(maprat.SimilarityMining).Groups[0]
	var ge *maprat.GroupExploration
	med := timeIt(5, func() {
		ge, err = eng.ExploreFullContext(ctx, q, top.Key, 8, -1)
		if err != nil {
			panic(err)
		}
	})
	st, related := &ge.Stats, ge.Related
	r.addf("group: %s — explored in %s", st.Phrase, med)
	r.addf("μ=%.2f σ=%.2f n=%d share=%.1f%%", st.Agg.Mean(), st.Agg.Std(), st.Agg.Count, st.Share*100)
	hist := "histogram:"
	for s := 1; s < len(st.Histogram); s++ {
		hist += fmt.Sprintf(" %d★=%d", s, st.Histogram[s])
	}
	r.Lines = append(r.Lines, hist)
	if len(st.Cities) > 0 {
		n := len(st.Cities)
		if n > 4 {
			n = 4
		}
		for _, c := range st.Cities[:n] {
			r.addf("  city %-20s μ=%.2f n=%d", c.City, c.Agg.Mean(), c.Agg.Count)
		}
	}
	shown := 0
	for _, b := range st.Timeline {
		if b.Agg.Count == 0 {
			continue
		}
		r.addf("  %s μ=%.2f n=%d", b.Label(), b.Agg.Mean(), b.Agg.Count)
		shown++
	}
	r.addf("timeline points=%d, related groups=%d", shown, len(related))
	return r
}

// FrameworkCube is the un-anchored candidate configuration used by the
// intro's controversial-title analysis.
func FrameworkCube() cube.Config {
	return cube.Config{RequireState: false, MinSupport: 10, MaxAVPairs: 2, SkipApex: true}
}

// E4Controversial regenerates the intro example: Diversity Mining on the
// polarized title must surface a sibling pair with a large gap while the
// overall average looks mediocre (paper: 4.8/10 ≈ 2.4/5).
func E4Controversial(ctx context.Context, eng *maprat.Engine) Report {
	r := Report{ID: "E4", Title: "Intro example — Diversity Mining on the controversial title"}
	q := mustParse(eng, `movie:"The Twilight Saga: Eclipse"`)
	s := maprat.DefaultSettings()
	s.K = 2
	s.Coverage = 0.10
	free := FrameworkCube()
	req := maprat.ExplainRequest{
		Query: q, Settings: s, Tasks: []maprat.Task{maprat.DiversityMining},
		CubeConfig: &free, DisableCache: true,
	}
	var ex *maprat.Explanation
	med := timeIt(3, func() {
		var err error
		ex, err = eng.ExplainContext(ctx, req)
		if err != nil {
			panic(err)
		}
	})
	dm := ex.Result(maprat.DiversityMining)
	r.addf("overall μ=%.2f over %d ratings (paper: ≈2.4/5) — mined in %s",
		ex.Overall.Mean(), ex.NumRatings, med)
	for _, g := range dm.Groups {
		r.addf("  %-48s μ=%.2f n=%d", truncate(g.Phrase, 48), g.Agg.Mean(), g.Agg.Count)
	}
	gap := 0.0
	for i := range dm.Groups {
		for j := i + 1; j < len(dm.Groups); j++ {
			if d := math.Abs(dm.Groups[i].Agg.Mean() - dm.Groups[j].Agg.Mean()); d > gap {
				gap = d
			}
		}
	}
	sibling := false
	if len(dm.Groups) >= 2 {
		_, sibling = dm.Groups[0].Key.SiblingOf(dm.Groups[1].Key)
	}
	r.addf("shape check: max pair gap = %.2f stars (paper: love vs hate) | sibling pair: %v", gap, sibling)

	// The intro's exact pair (male vs female under-18) covers only ~4% of
	// the audience, so it needs the coverage constraint dropped further.
	s.Coverage = 0.03
	req.Settings = s
	ex2, err := eng.ExplainContext(ctx, req)
	if err == nil {
		dm2 := ex2.Result(maprat.DiversityMining)
		r.addf("with α=3%% (the intro pair is a small slice of the audience):")
		for _, g := range dm2.Groups {
			r.addf("  %-48s μ=%.2f n=%d", truncate(g.Phrase, 48), g.Agg.Mean(), g.Agg.Count)
		}
	}
	return r
}

// E5Caching measures the §2.3 latency claim: the same query cold (no
// cache), warm (explanation cache) — and reports the store-open
// precomputation cost amortized across queries.
func E5Caching(ctx context.Context, eng *maprat.Engine) Report {
	r := Report{ID: "E5", Title: "§2.3 — pre-computation and caching ablation"}
	q := mustParse(eng, `actor:"Tom Hanks"`)
	cold := timeIt(3, func() {
		if _, err := eng.ExplainContext(ctx, maprat.ExplainRequest{Query: q, DisableCache: true}); err != nil {
			panic(err)
		}
	})
	// Prime, then measure warm hits.
	if _, err := eng.ExplainContext(ctx, maprat.ExplainRequest{Query: q}); err != nil {
		panic(err)
	}
	warm := timeIt(5, func() {
		ex, err := eng.ExplainContext(ctx, maprat.ExplainRequest{Query: q})
		if err != nil || !ex.FromCache {
			panic(fmt.Sprintf("expected cache hit, err=%v", err))
		}
	})
	r.addf("cold (full mining)      : %12s", cold)
	r.addf("warm (result cache hit) : %12s", warm)
	if warm > 0 {
		r.addf("speedup                 : %11.0fx", float64(cold)/float64(warm))
	}
	hits, misses := eng.Store().Cache().Stats()
	r.addf("cache stats: %d hits / %d misses", hits, misses)
	return r
}

// E6QualityVsBaselines compares RHE to the exhaustive optimum (small
// instances) and to greedy / best-of-N random selections (full instances):
// the inherited claim from ref [2] that randomized hill exploration is the
// right solver for these NP-hard problems.
func E6QualityVsBaselines(ctx context.Context, eng *maprat.Engine) Report {
	r := Report{ID: "E6", Title: "ref [2] — RHE vs exhaustive / greedy / random"}
	queries := []string{
		`movie:"Toy Story"`, `movie:"Forrest Gump"`, `movie:"Jurassic Park"`,
		`movie:"Heat"`, `movie:"The Green Mile"`, `movie:"Apollo 13"`,
	}

	// Part 1: optimality gap on small instances (K=2, pruned candidates).
	r.addf("-- optimality gap (K=2, coarse candidates, exact optimum by enumeration) --")
	r.addf("%-28s %5s %10s %10s %8s", "query", "cands", "RHE obj", "OPT obj", "gap")
	gapSum, gapN := 0.0, 0
	for _, qs := range queries {
		p := buildProblem(eng, qs, core.SimilarityMining, func(s *maprat.Settings) {
			s.K = 2
			s.Coverage = 0.10
		}, coarseCube())
		if p == nil {
			continue
		}
		opt, err := p.SolveExhaustive()
		if err != nil || !opt.Feasible {
			continue
		}
		rhe := solveRHE(ctx, p)
		gap := rhe.Objective - opt.Objective
		r.addf("%-28s %5d %10.4f %10.4f %8.4f", truncate(qs, 28), len(p.Candidates()), rhe.Objective, opt.Objective, gap)
		gapSum += gap
		gapN++
	}
	if gapN > 0 {
		r.addf("mean optimality gap over %d instances: %.4f (0 = always optimal)", gapN, gapSum/float64(gapN))
	}

	// Part 2: RHE vs greedy vs random at demo settings, both tasks.
	for _, task := range []core.Task{core.SimilarityMining, core.DiversityMining} {
		r.addf("-- %s at demo settings (K=3) --", task)
		r.addf("%-28s %12s %12s %12s | %10s %10s %10s", "query",
			"RHE obj", "greedy obj", "random obj", "RHE", "greedy", "random")
		for _, qs := range queries {
			p := buildProblem(eng, qs, task, nil, nil)
			if p == nil {
				continue
			}
			var rhe, greedy, random core.Solution
			tRHE := timeIt(3, func() { rhe = solveRHE(ctx, p) })
			tGreedy := timeIt(3, func() { greedy = p.SolveGreedy() })
			tRandom := timeIt(3, func() { random = p.SolveRandom(p.Settings.Restarts) })
			r.addf("%-28s %12.4f %12.4f %12.4f | %10s %10s %10s",
				truncate(qs, 28), feasObj(rhe), feasObj(greedy), feasObj(random),
				tRHE, tGreedy, tRandom)
		}
	}
	r.addf("(objectives: lower is better; NaN marks an infeasible heuristic result)")
	return r
}

func feasObj(s core.Solution) float64 {
	if !s.Feasible {
		return math.NaN()
	}
	return s.Objective
}

func coarseCube() *cube.Config {
	c := cube.Config{RequireState: true, MinSupport: 0, MaxAVPairs: 1, SkipApex: true}
	return &c
}

// buildProblem resolves a query and constructs a mining problem directly
// (bypassing Explain) so solvers can be compared on identical instances.
// MinSupport 0 in the override means "adaptive like the engine".
func buildProblem(eng *maprat.Engine, qs string, task core.Task, tweak func(*maprat.Settings), cfgOverride *cube.Config) *core.Problem {
	q := mustParse(eng, qs)
	ids, err := query.Resolve(eng.Store(), q)
	if err != nil || len(ids) == 0 {
		return nil
	}
	tuples := eng.Store().TuplesForItems(ids, q.Window)
	if len(tuples) == 0 {
		return nil
	}
	cfg := cube.DefaultConfig()
	if cfgOverride != nil {
		cfg = *cfgOverride
	}
	if cfg.MinSupport == 0 {
		cfg.MinSupport = len(tuples) / 50
		if cfg.MinSupport < 3 {
			cfg.MinSupport = 3
		}
	}
	cfg = maprat.AdaptCubeConfig(cfg, len(tuples))
	// Coarse instances for exhaustive search need aggressive pruning.
	if cfgOverride != nil && cfgOverride.MaxAVPairs == 1 {
		cfg.MinSupport = len(tuples) / 60
		if cfg.MinSupport < 8 {
			cfg.MinSupport = 8
		}
	}
	c := cube.Build(tuples, cfg)
	s := maprat.DefaultSettings()
	if tweak != nil {
		tweak(&s)
	}
	p, err := core.NewProblem(task, c, s)
	if err != nil {
		return nil
	}
	return p
}

// E7Scalability sweeps mining latency against |R_I| and K — the §2.3
// concern that thousands of candidate groups over ~1M ratings must stay
// interactive.
func E7Scalability(ctx context.Context, eng *maprat.Engine) Report {
	r := Report{ID: "E7", Title: "§2.3 — mining latency vs |R_I| and vs K"}
	r.addf("-- latency vs |R_I| (SM, demo settings) --")
	r.addf("%-44s %9s %7s %12s", "query", "ratings", "cands", "RHE median")
	for _, qs := range []string{
		`movie:"Heat"`,
		`movie:"Toy Story"`,
		`actor:"Tom Hanks"`,
		`director:"Steven Spielberg"`,
		`genre:Animation`,
		`genre:Drama`,
	} {
		p := buildProblem(eng, qs, core.SimilarityMining, nil, nil)
		if p == nil {
			continue
		}
		med := timeIt(3, func() { solveRHE(ctx, p) })
		r.addf("%-44s %9d %7d %12s", truncate(qs, 44), p.NumTuples(), len(p.Candidates()), med)
	}
	r.addf("-- latency vs K (SM on actor:\"Tom Hanks\") --")
	r.addf("%3s %12s %10s", "K", "RHE median", "objective")
	for _, k := range []int{2, 3, 4, 5, 6} {
		p := buildProblem(eng, `actor:"Tom Hanks"`, core.SimilarityMining, func(s *maprat.Settings) {
			s.K = k
			s.Coverage = 0.15 // two disjoint state groups top out near 19%
		}, nil)
		if p == nil {
			continue
		}
		var sol core.Solution
		med := timeIt(3, func() { sol = solveRHE(ctx, p) })
		r.addf("%3d %12s %10.4f", k, med, sol.Objective)
	}
	return r
}

// E8Rendering measures the visualization module: SVG and ASCII choropleth
// rendering of a full two-tab exploration.
func E8Rendering(ctx context.Context, eng *maprat.Engine) Report {
	r := Report{ID: "E8", Title: "§2.3 Visualization — choropleth rendering"}
	q := mustParse(eng, `movie:"Toy Story"`)
	ex, err := eng.ExplainContext(ctx, maprat.ExplainRequest{Query: q})
	if err != nil {
		panic(err)
	}
	v := maprat.RenderExploration(ex)
	var svgLen, asciiLen int
	svgMed := timeIt(9, func() {
		svgLen = 0
		for i := range v.Maps {
			svgLen += len(v.Maps[i].SVG())
		}
	})
	asciiMed := timeIt(9, func() { asciiLen = len(v.ASCII(true)) })
	r.addf("SVG   (both tabs): %7d bytes in %s", svgLen, svgMed)
	r.addf("ASCII (both tabs): %7d bytes in %s", asciiLen, asciiMed)
	return r
}

// E9TimeSlider regenerates the §3.1 time-slider: per-year Similarity
// Mining for Toy Story, showing how the groups and the reception drift.
func E9TimeSlider(ctx context.Context, eng *maprat.Engine) Report {
	r := Report{ID: "E9", Title: "§3.1 — time slider: Toy Story per year"}
	q := mustParse(eng, `movie:"Toy Story"`)
	var points []maprat.EvolutionPoint
	med := timeIt(1, func() {
		var err error
		points, err = eng.EvolutionContext(ctx, maprat.ExplainRequest{
			Query: q, Tasks: []maprat.Task{maprat.SimilarityMining}, DisableCache: true,
		})
		if err != nil {
			panic(err)
		}
	})
	r.addf("%d yearly windows mined in %s", len(points), med)
	var firstMean, lastMean float64
	for _, p := range points {
		year := time.Unix(p.Window.From, 0).UTC().Year()
		if p.Err != nil || p.Explanation == nil {
			r.addf("%d: no feasible mining (%v)", year, p.Err)
			continue
		}
		m := p.Explanation.Overall.Mean()
		// Partial edge windows carry too few ratings to witness the trend.
		if p.Explanation.NumRatings >= 50 {
			if firstMean == 0 {
				firstMean = m
			}
			lastMean = m
		}
		top := ""
		if sm := p.Explanation.Result(maprat.SimilarityMining); sm != nil && len(sm.Groups) > 0 {
			top = sm.Groups[0].Phrase
		}
		r.addf("%d: n=%-6d μ=%.2f  top group: %s", year, p.Explanation.NumRatings, m, top)
	}
	r.addf("shape check: drift %.2f → %.2f (planted −0.30 drift ⇒ negative trend)", firstMean, lastMean)
	return r
}

func truncate(s string, n int) string {
	if len(s) <= n {
		return s
	}
	return s[:n-1] + "…"
}

// E11ColdPath measures the cold first-response pipeline the packed-key
// cube build and the bitset coverage engine target: a full Explain with
// every cache tier disabled, plus the two kernels in isolation against
// their retained reference implementations. Snapshots of this report
// (BENCH_PR3.json) track the cold-path trajectory across PRs.
func E11ColdPath(ctx context.Context, eng *maprat.Engine) Report {
	r := Report{ID: "E11", Title: "cold path — packed cube build + bitset coverage"}

	r.addf("-- cold Explain (all cache tiers disabled) --")
	r.addf("%-44s %9s %12s", "query", "ratings", "median")
	for _, qs := range []string{
		`movie:"Toy Story"`,
		`actor:"Tom Hanks"`,
		`genre:Animation`,
	} {
		q := mustParse(eng, qs)
		req := maprat.ExplainRequest{Query: q, DisableCache: true}
		var ex *maprat.Explanation
		med := timeIt(3, func() {
			var err error
			ex, err = eng.ExplainContext(ctx, req)
			if err != nil {
				panic(err)
			}
		})
		r.addf("%-44s %9d %12s", truncate(qs, 44), ex.NumRatings, med)
	}

	// Kernel isolation on a mid-size R_I: the roll-up build and the bitset
	// coverage engine against their executable reference specifications.
	q := mustParse(eng, `actor:"Tom Hanks"`)
	ids, _ := query.Resolve(eng.Store(), q)
	tuples := eng.Store().TuplesForItems(ids, q.Window)
	cfg := maprat.AdaptCubeConfig(cube.DefaultConfig(), len(tuples))
	r.addf("-- cube build over %d tuples --", len(tuples))
	packed := timeIt(5, func() { cube.Build(tuples, cfg) })
	reference := timeIt(5, func() { cube.BuildReference(tuples, cfg) })
	r.addf("packed roll-up build    : %12s", packed)
	r.addf("reference map build     : %12s", reference)
	if packed > 0 {
		r.addf("speedup                 : %11.1fx", float64(reference)/float64(packed))
	}

	c := cube.Build(tuples, cfg)
	p, err := core.NewProblem(core.SimilarityMining, c, maprat.DefaultSettings())
	if err != nil {
		r.addf("coverage kernel skipped: %v", err)
		return r
	}
	r.addf("-- RHE solve (%d candidates, %d tuples) --", len(p.Candidates()), p.NumTuples())
	solve := timeIt(3, func() { solveRHE(ctx, p) })
	r.addf("bitset coverage engine  : %12s", solve)
	return r
}

// E10Ablations measures the reproduction's main design choices: geo-
// anchored vs framework candidates, the DM sibling boost, and σ vs MAD as
// the consistency error.
func E10Ablations(ctx context.Context, eng *maprat.Engine) Report {
	r := Report{ID: "E10", Title: "design-choice ablations"}

	// (a) geo-anchoring: candidate space and SM outcome on Toy Story.
	q := mustParse(eng, `movie:"Toy Story"`)
	ids, _ := query.Resolve(eng.Store(), q)
	tuples := eng.Store().TuplesForItems(ids, q.Window)
	r.addf("-- (a) geo-anchored vs framework candidates (SM, Toy Story) --")
	r.addf("%-12s %8s %12s %12s", "mode", "cands", "objective", "RHE median")
	for _, mode := range []struct {
		name string
		cfg  cube.Config
	}{
		{"geo", cube.Config{RequireState: true, MinSupport: 12, MaxAVPairs: 3, SkipApex: true}},
		{"framework", cube.Config{RequireState: false, MinSupport: 12, MaxAVPairs: 3, SkipApex: true}},
	} {
		c := cube.Build(tuples, mode.cfg)
		p, err := core.NewProblem(core.SimilarityMining, c, maprat.DefaultSettings())
		if err != nil {
			r.addf("%-12s %8d %12s %12s", mode.name, c.Len(), "infeasible", "-")
			continue
		}
		var sol core.Solution
		med := timeIt(3, func() { sol = solveRHE(ctx, p) })
		r.addf("%-12s %8d %12.4f %12s", mode.name, c.Len(), sol.Objective, med)
	}

	// (b) sibling boost on the controversial title (DM, α=3%).
	r.addf("-- (b) DM sibling boost on the controversial title (α=3%%, K=2) --")
	eq := mustParse(eng, `movie:"The Twilight Saga: Eclipse"`)
	for _, boost := range []float64{1.0, 2.0} {
		s := maprat.DefaultSettings()
		s.K = 2
		s.Coverage = 0.03
		s.SiblingBoost = boost
		free := FrameworkCube()
		ex, err := eng.ExplainContext(ctx, maprat.ExplainRequest{
			Query: eq, Settings: s, Tasks: []maprat.Task{maprat.DiversityMining},
			CubeConfig: &free, DisableCache: true,
		})
		if err != nil {
			r.addf("w=%.0f: %v", boost, err)
			continue
		}
		dm := ex.Result(maprat.DiversityMining)
		sib := false
		if len(dm.Groups) >= 2 {
			_, sib = dm.Groups[0].Key.SiblingOf(dm.Groups[1].Key)
		}
		pair := ""
		for i, g := range dm.Groups {
			if i > 0 {
				pair += "  vs  "
			}
			pair += fmt.Sprintf("%s (μ=%.2f)", g.Phrase, g.Agg.Mean())
		}
		r.addf("w=%.0f: sibling=%v  %s", boost, sib, pair)
	}

	// (c) σ vs MAD over the Toy Story candidates: agreement of the two
	// consistency errors on candidate ordering.
	r.addf("-- (c) σ vs MAD as the consistency error (Toy Story candidates) --")
	cfg := maprat.AdaptCubeConfig(cube.DefaultConfig(), len(tuples))
	c := cube.Build(tuples, cfg)
	type pairErr struct{ sigma, mad float64 }
	errs := make([]pairErr, 0, c.Len())
	for i := range c.Groups {
		g := &c.Groups[i]
		errs = append(errs, pairErr{sigma: g.Agg.Std(), mad: g.MAD(tuples)})
	}
	// Pearson correlation + pairwise order agreement on a bounded sample.
	var sx, sy, sxx, syy, sxy float64
	for _, e := range errs {
		sx += e.sigma
		sy += e.mad
		sxx += e.sigma * e.sigma
		syy += e.mad * e.mad
		sxy += e.sigma * e.mad
	}
	n := float64(len(errs))
	denom := math.Sqrt(n*sxx-sx*sx) * math.Sqrt(n*syy-sy*sy)
	pearson := 0.0
	if denom > 0 {
		pearson = (n*sxy - sx*sy) / denom
	}
	agree, totalPairs := 0, 0
	step := len(errs)/400 + 1
	for i := 0; i < len(errs); i += step {
		for j := i + step; j < len(errs); j += step {
			totalPairs++
			if (errs[i].sigma < errs[j].sigma) == (errs[i].mad < errs[j].mad) {
				agree++
			}
		}
	}
	r.addf("candidates=%d  Pearson(σ, MAD)=%.3f  pairwise order agreement=%.1f%% (%d pairs)",
		len(errs), pearson, 100*float64(agree)/float64(max(1, totalPairs)), totalPairs)
	r.addf("σ is O(1) from additive aggregates; MAD needs a member pass — hot path uses σ")
	return r
}
