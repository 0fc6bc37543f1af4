package maprat

// One benchmark per experiment of internal/bench (E1–E9), mirroring its
// workloads so `go test -bench=.` regenerates the
// latency side of every figure/claim. Benchmarks default to the small
// (80k-rating) dataset so the suite stays minutes-fast; set
// MAPRAT_BENCH_SCALE=full for the MovieLens-1M scale the paper demos on
// (cmd/maprat-bench always uses full scale).

import (
	"fmt"
	"os"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/cube"
	"repro/internal/query"
	"repro/internal/viz"
)

var (
	benchOnce sync.Once
	benchDS   *Dataset
	benchEng  *Engine
)

func benchEngine(b *testing.B) *Engine {
	b.Helper()
	benchOnce.Do(func() {
		cfg := SmallGenConfig()
		if os.Getenv("MAPRAT_BENCH_SCALE") == "full" {
			cfg = DefaultGenConfig()
		}
		var err error
		benchDS, err = Generate(cfg)
		if err != nil {
			panic(err)
		}
		benchEng, err = Open(benchDS, nil)
		if err != nil {
			panic(err)
		}
	})
	return benchEng
}

func benchQuery(b *testing.B, e *Engine, s string) Query {
	b.Helper()
	q, err := e.ParseQuery(s)
	if err != nil {
		b.Fatalf("parse %q: %v", s, err)
	}
	return q
}

// BenchmarkE1_QueryResolution measures Figure 1's query forms: parse,
// resolve to items, gather R_I.
func BenchmarkE1_QueryResolution(b *testing.B) {
	e := benchEngine(b)
	cases := []struct {
		name string
		q    string
	}{
		{"title", `movie:"Toy Story"`},
		{"actor", `actor:"Tom Hanks"`},
		{"conjunction", `director:"Steven Spielberg" AND genre:Thriller`},
		{"disjunction", `movie:"The Lord of the Rings: The Two Towers" OR movie:"Jaws"`},
		{"genre", `genre:Animation`},
	}
	for _, c := range cases {
		b.Run(c.name, func(b *testing.B) {
			q := benchQuery(b, e, c.q)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				ids, err := query.Resolve(e.Store(), q)
				if err != nil || len(ids) == 0 {
					b.Fatalf("resolve: %v (%d items)", err, len(ids))
				}
				tuples := e.Store().TuplesForItems(ids, q.Window)
				if len(tuples) == 0 {
					b.Fatal("no tuples")
				}
			}
		})
	}
}

// BenchmarkE2_SimilarityMining measures the Figure-2 pipeline end to end
// (resolve → cube → RHE), cache disabled.
func BenchmarkE2_SimilarityMining(b *testing.B) {
	e := benchEngine(b)
	q := benchQuery(b, e, `movie:"Toy Story"`)
	req := ExplainRequest{Query: q, Tasks: []Task{SimilarityMining}, DisableCache: true}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := e.ExplainContext(b.Context(), req); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkE3_Exploration measures the Figure-3 drill-down (stats,
// cities, timeline, related groups).
func BenchmarkE3_Exploration(b *testing.B) {
	e := benchEngine(b)
	q := benchQuery(b, e, `movie:"Toy Story"`)
	ex, err := e.ExplainContext(b.Context(), ExplainRequest{Query: q, Tasks: []Task{SimilarityMining}})
	if err != nil {
		b.Fatal(err)
	}
	key := ex.Result(SimilarityMining).Groups[0].Key
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := e.ExploreFullContext(b.Context(), q, key, 8, -1); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkE4_DiversityMining measures the intro example: framework-mode
// DM on the polarized title.
func BenchmarkE4_DiversityMining(b *testing.B) {
	e := benchEngine(b)
	q := benchQuery(b, e, `movie:"The Twilight Saga: Eclipse"`)
	s := DefaultSettings()
	s.K = 2
	s.Coverage = 0.10
	free := cube.Config{RequireState: false, MinSupport: 10, MaxAVPairs: 2, SkipApex: true}
	req := ExplainRequest{
		Query: q, Settings: s, Tasks: []Task{DiversityMining},
		CubeConfig: &free, DisableCache: true,
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := e.ExplainContext(b.Context(), req); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkE5_CachingAblation measures the §2.3 claim: the identical
// request cold (mining every time) vs warm (LRU result-cache hit).
func BenchmarkE5_CachingAblation(b *testing.B) {
	e := benchEngine(b)
	q := benchQuery(b, e, `actor:"Tom Hanks"`)
	b.Run("cold", func(b *testing.B) {
		req := ExplainRequest{Query: q, DisableCache: true}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := e.ExplainContext(b.Context(), req); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("warm", func(b *testing.B) {
		req := ExplainRequest{Query: q}
		if _, err := e.ExplainContext(b.Context(), req); err != nil {
			b.Fatal(err)
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			ex, err := e.ExplainContext(b.Context(), req)
			if err != nil {
				b.Fatal(err)
			}
			if !ex.FromCache {
				b.Fatal("expected cache hit")
			}
		}
	})
}

// benchProblem builds one solver instance outside the timed loop.
func benchProblem(b *testing.B, e *Engine, qs string, task Task) *core.Problem {
	b.Helper()
	q := benchQuery(b, e, qs)
	ids, err := query.Resolve(e.Store(), q)
	if err != nil || len(ids) == 0 {
		b.Fatalf("resolve: %v", err)
	}
	tuples := e.Store().TuplesForItems(ids, q.Window)
	cfg := AdaptCubeConfig(cube.DefaultConfig(), len(tuples))
	c := cube.Build(tuples, cfg)
	p, err := core.NewProblem(task, c, DefaultSettings())
	if err != nil {
		b.Fatalf("problem: %v", err)
	}
	return p
}

// solve runs RHE under the benchmark's context and fails it on error.
func solve(b *testing.B, p *core.Problem) core.Solution {
	sol, err := p.SolveRHECtx(b.Context())
	if err != nil {
		b.Fatal(err)
	}
	return sol
}

// BenchmarkE6_RHEvsBaselines compares the solvers on the identical SM
// instance (quality is reported by cmd/maprat-bench; this measures cost).
func BenchmarkE6_RHEvsBaselines(b *testing.B) {
	e := benchEngine(b)
	p := benchProblem(b, e, `movie:"Toy Story"`, SimilarityMining)
	b.Run("RHE", func(b *testing.B) {
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if sol := solve(b, p); !sol.Feasible {
				b.Fatal("infeasible")
			}
		}
	})
	b.Run("greedy", func(b *testing.B) {
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if sol := p.SolveGreedy(); !sol.Feasible {
				b.Fatal("infeasible")
			}
		}
	})
	b.Run("random", func(b *testing.B) {
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if sol := p.SolveRandom(16); !sol.Feasible {
				b.Fatal("infeasible")
			}
		}
	})
}

// BenchmarkE7_Scalability sweeps RHE cost against the query's rating
// volume and against K.
func BenchmarkE7_Scalability(b *testing.B) {
	e := benchEngine(b)
	for _, qs := range []string{
		`movie:"Heat"`,
		`movie:"Toy Story"`,
		`actor:"Tom Hanks"`,
		`genre:Animation`,
		`genre:Drama`,
	} {
		p := benchProblem(b, e, qs, SimilarityMining)
		b.Run(fmt.Sprintf("ratings_%d", p.NumTuples()), func(b *testing.B) {
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				solve(b, p)
			}
		})
	}
	for _, k := range []int{2, 3, 4, 6} {
		q := benchQuery(b, e, `actor:"Tom Hanks"`)
		ids, _ := query.Resolve(e.Store(), q)
		tuples := e.Store().TuplesForItems(ids, q.Window)
		c := cube.Build(tuples, AdaptCubeConfig(cube.DefaultConfig(), len(tuples)))
		s := DefaultSettings()
		s.K = k
		p, err := core.NewProblem(SimilarityMining, c, s)
		if err != nil {
			b.Fatal(err)
		}
		b.Run(fmt.Sprintf("K_%d", k), func(b *testing.B) {
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				solve(b, p)
			}
		})
	}
}

// BenchmarkE8_Rendering measures the visualization layer: SVG and ASCII
// choropleths for a full two-tab exploration.
func BenchmarkE8_Rendering(b *testing.B) {
	e := benchEngine(b)
	q := benchQuery(b, e, `movie:"Toy Story"`)
	ex, err := e.ExplainContext(b.Context(), ExplainRequest{Query: q})
	if err != nil {
		b.Fatal(err)
	}
	v := RenderExploration(ex)
	b.Run("svg", func(b *testing.B) {
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			for m := range v.Maps {
				if len(v.Maps[m].SVG()) == 0 {
					b.Fatal("empty svg")
				}
			}
		}
	})
	b.Run("ascii", func(b *testing.B) {
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if len(v.ASCII(true)) == 0 {
				b.Fatal("empty ascii")
			}
		}
	})
	b.Run("likert", func(b *testing.B) {
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			for m := 10; m <= 50; m++ {
				viz.Likert(float64(m) / 10)
			}
		}
	})
}

// BenchmarkE10_ParallelRestarts measures the worker-pool RHE through the
// public API: identical Solutions, wall clock scaling with Workers
// (workers=0 is the GOMAXPROCS default).
func BenchmarkE10_ParallelRestarts(b *testing.B) {
	e := benchEngine(b)
	q := benchQuery(b, e, `genre:Drama`)
	for _, workers := range []int{1, 2, 4, 0} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			s := DefaultSettings()
			s.Restarts = 32
			s.Workers = workers
			req := ExplainRequest{Query: q, Settings: s, Tasks: []Task{SimilarityMining}, DisableCache: true}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := e.ExplainContext(b.Context(), req); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkE11_ConcurrentIdenticalQueries measures the demo-booth hot
// spot end to end: many clients asking the same question at once, served
// by the cache with the singleflight layer collapsing the misses.
func BenchmarkE11_ConcurrentIdenticalQueries(b *testing.B) {
	e := benchEngine(b)
	q := benchQuery(b, e, `genre:Comedy`)
	req := ExplainRequest{Query: q}
	b.ReportAllocs()
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			if _, err := e.ExplainContext(b.Context(), req); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkWarmExplore measures the materialization tier's payoff on the
// repeated-interaction hot path — a group-page click after an Explain.
// cold disables the tier, so every exploration re-runs the full resolve →
// gather → cube-build pipeline; warm fetches the materialized plan and
// only computes the Figure-3 statistics. The tier's promise is the warm
// path running at least several times faster.
func BenchmarkWarmExplore(b *testing.B) {
	e := benchEngine(b)
	q := benchQuery(b, e, `movie:"Toy Story"`)
	ex, err := e.ExplainContext(b.Context(), ExplainRequest{Query: q, Tasks: []Task{SimilarityMining}})
	if err != nil {
		b.Fatal(err)
	}
	key := ex.Result(SimilarityMining).Groups[0].Key

	b.Run("cold", func(b *testing.B) {
		opts := DefaultOptions()
		opts.Store.PlanCacheTuples = 0
		cold, err := Open(benchDS, &opts)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := cold.ExploreFullContext(b.Context(), q, key, 8, -1); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("warm", func(b *testing.B) {
		// Materialize the plan outside the timed loop.
		if _, err := e.ExploreFullContext(b.Context(), q, key, 8, -1); err != nil {
			b.Fatal(err)
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := e.ExploreFullContext(b.Context(), q, key, 8, -1); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkColdExplain measures the first-response latency the paper's
// interactivity rests on: a full Explain with every cache tier disabled, so
// the run pays query resolution, the R_I gather, candidate-cube
// construction and the RHE solve from scratch. This is the cold path the
// packed-key cube build and the bitset coverage engine target; the warm
// path is covered by BenchmarkWarmExplore.
func BenchmarkColdExplain(b *testing.B) {
	e := benchEngine(b)
	for _, c := range []struct {
		name string
		q    string
	}{
		{"title", `movie:"Toy Story"`},
		{"actor", `actor:"Tom Hanks"`},
		{"genre", `genre:Animation`},
	} {
		b.Run(c.name, func(b *testing.B) {
			q := benchQuery(b, e, c.q)
			req := ExplainRequest{Query: q, DisableCache: true}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := e.ExplainContext(b.Context(), req); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkE9_TimeSlider measures the §3.1 per-year mining sweep.
func BenchmarkE9_TimeSlider(b *testing.B) {
	e := benchEngine(b)
	q := benchQuery(b, e, `movie:"Toy Story"`)
	req := ExplainRequest{Query: q, Tasks: []Task{SimilarityMining}, DisableCache: true}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		points, err := e.EvolutionContext(b.Context(), req)
		if err != nil {
			b.Fatal(err)
		}
		if len(points) < 4 {
			b.Fatalf("only %d windows", len(points))
		}
	}
}
