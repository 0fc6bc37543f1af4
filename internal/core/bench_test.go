package core

import (
	"fmt"
	"runtime"
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
// Solutions, wall clock scaling with the worker pool (compare workers=1
// against workers=GOMAXPROCS).
func BenchmarkSolveRHEWorkers(b *testing.B) {
	for _, workers := range []int{1, 2, 4, runtime.GOMAXPROCS(0)} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			p := benchInstance(b, SimilarityMining)
			p.Settings.Restarts = 32
			p.Settings.Workers = workers
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
