package core

import (
	"math/rand"
	"testing"

	"repro/internal/cube"
)

func benchInstance(b *testing.B, task Task) *Problem {
	b.Helper()
	return benchInstanceN(b, task, 5_000)
}

func benchInstanceN(b *testing.B, task Task, n int) *Problem {
	b.Helper()
	tuples := miningTuples(n, 99)
	c := cube.Build(tuples, cube.Config{RequireState: true, MinSupport: 25, MaxAVPairs: 3, SkipApex: true})
	s := DefaultSettings()
	p, err := NewProblem(task, c, s)
	if err != nil {
		b.Fatal(err)
	}
	return p
}

func BenchmarkEvaluate(b *testing.B) {
	p := benchInstance(b, SimilarityMining)
	sel := p.Candidates()[:3]
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p.Evaluate(sel)
	}
}

func BenchmarkSolveRHE_SM(b *testing.B) {
	p := benchInstance(b, SimilarityMining)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if sol := solve(b, p); !sol.Feasible {
			b.Fatal("infeasible")
		}
	}
}

func BenchmarkSolveRHE_DM(b *testing.B) {
	p := benchInstance(b, DiversityMining)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if sol := solve(b, p); !sol.Feasible {
			b.Fatal("infeasible")
		}
	}
}

// BenchmarkSolveRHELarge solves an instance the size of a popular
// actor's R_I (18k tuples, ~1.4k candidate groups). At this size the
// coverage-repair scan over every candidate dominates an unpruned solve,
// which the 5k instance above hides.
func BenchmarkSolveRHELarge(b *testing.B) {
	for _, task := range []Task{SimilarityMining, DiversityMining} {
		b.Run(task.String(), func(b *testing.B) {
			p := benchInstanceN(b, task, 18_000)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if sol := solve(b, p); !sol.Feasible {
					b.Fatal("infeasible")
				}
			}
		})
	}
}

// BenchmarkSolveRHEWorkers shows the multi-restart speedup: identical
// Solutions, wall clock scaling with the worker pool, which GOMAXPROCS
// sizes (run with -cpu 1,2,4 to compare).
func BenchmarkSolveRHEWorkers(b *testing.B) {
	p := benchInstance(b, SimilarityMining)
	p.Settings.Restarts = 32
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if sol := solve(b, p); !sol.Feasible {
			b.Fatal("infeasible")
		}
	}
}

// BenchmarkRHECoverage measures the coverage engine behind RHE's sampled
// neighbourhood: one full solve on the bitset engine (word-wise OR +
// popcount, incremental swap evaluation) against the epoch-marking
// reference that re-scans every selected group's member list per trial.
func BenchmarkRHECoverage(b *testing.B) {
	run := func(b *testing.B, reference bool) {
		p := benchInstance(b, SimilarityMining)
		p.Settings.Restarts = 4
		if reference {
			p.useReferenceCoverage()
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if sol := solve(b, p); !sol.Feasible {
				b.Fatal("infeasible")
			}
		}
	}
	b.Run("bitset", func(b *testing.B) { run(b, false) })
	b.Run("reference", func(b *testing.B) { run(b, true) })
}

// planTuples shapes n tuples like one plan's R_I in live traffic: a fixed
// population of users with quadratically skewed demographics (a few
// without an attribute value), each rating with a skewed frequency.
func planTuples(n int, seed int64) []cube.Tuple {
	rng := rand.New(rand.NewSource(seed))
	skewed := func(card int) int16 {
		u := rng.Float64()
		return int16(float64(card) * u * u)
	}
	wild := func(v int16, oneIn int) int16 {
		if rng.Intn(oneIn) == 0 {
			return cube.Wildcard
		}
		return v
	}
	users := make([][cube.NumAttrs]int16, 6040)
	for i := range users {
		v := &users[i]
		v[cube.Gender] = wild(skewed(cube.Cardinality(cube.Gender)), 200)
		v[cube.Age] = wild(skewed(cube.Cardinality(cube.Age)), 200)
		v[cube.Occupation] = wild(skewed(cube.Cardinality(cube.Occupation)), 200)
		v[cube.State] = wild(skewed(cube.Cardinality(cube.State)), 40)
		v[cube.City] = wild(skewed(cube.Cardinality(cube.City)), 20)
	}
	tuples := make([]cube.Tuple, n)
	for i := range tuples {
		u := int(skewed(len(users)))
		tuples[i] = cube.Tuple{
			Vals:  users[u],
			Score: int8(1 + rng.Intn(5)),
			Unix:  int64(978300000 + rng.Intn(1000000)),
		}
		rng.Intn(50) // discarded: the draws after it, and so the benchmarks' inputs, depend on it
	}
	return tuples
}

// BenchmarkMine times what one explain's mining costs the engine on a
// plan-shaped cube (about 5.6k tuples, 700 groups): NewProblem and
// SolveRHECtx for SM and then DM, with the default settings. Unlike the
// BenchmarkSolveRHE_* loops it pays the per-solve setup too, such as the
// DM candidate order.
func BenchmarkMine(b *testing.B) {
	c := cube.Build(planTuples(5_600, 42), cube.DefaultConfig())
	c.MemberBits() // cached on the plan's cube before any mine
	s := DefaultSettings()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, task := range []Task{SimilarityMining, DiversityMining} {
			p, err := NewProblem(task, c, s)
			if err != nil {
				b.Fatal(err)
			}
			if sol := solve(b, p); !sol.Feasible {
				b.Fatal("infeasible")
			}
		}
	}
	b.ReportMetric(float64(c.Len()), "groups")
}

// BenchmarkNewProblem times the per-solve setup alone on the same
// plan-shaped cube as BenchmarkMine (about 5.6k tuples and 650 groups):
// the candidate filter, the per-group statistics and, for DM, the head of
// the extreme order.
func BenchmarkNewProblem(b *testing.B) {
	c := cube.Build(planTuples(5_600, 42), cube.DefaultConfig())
	c.MemberBits()
	for _, task := range []Task{SimilarityMining, DiversityMining} {
		b.Run(task.String(), func(b *testing.B) {
			s := DefaultSettings()
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := NewProblem(task, c, s); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func BenchmarkSolveGreedy(b *testing.B) {
	p := benchInstance(b, SimilarityMining)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if sol := p.SolveGreedy(); !sol.Feasible {
			b.Fatal("infeasible")
		}
	}
}

func BenchmarkCoverageOf(b *testing.B) {
	p := benchInstance(b, SimilarityMining)
	sel := p.Candidates()
	if len(sel) > 6 {
		sel = sel[:6]
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if cov := coverageOf(p, sel); cov <= 0 {
			b.Fatal("zero coverage")
		}
	}
}
