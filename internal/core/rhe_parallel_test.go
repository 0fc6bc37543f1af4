package core

import (
	"context"
	"reflect"
	"testing"
	"time"

	"repro/internal/cube"
)

// TestParallelRHEMatchesSequential is the determinism contract of the
// worker-pool solver: for any fixed seed, the Solution must be
// byte-identical no matter how many workers execute the restarts.
func TestParallelRHEMatchesSequential(t *testing.T) {
	tuples := miningTuples(900, 31)
	c := buildCube(t, tuples, cube.Config{RequireState: true, MinSupport: 8, MaxAVPairs: 2})
	for _, task := range []Task{SimilarityMining, DiversityMining} {
		for seed := int64(1); seed <= 4; seed++ {
			s := DefaultSettings()
			s.Seed = seed
			s.Restarts = 12

			s.Workers = 1
			seq := solve(t, newProblem(t, task, c, s))

			for _, workers := range []int{2, 4, 8} {
				s.Workers = workers
				par := solve(t, newProblem(t, task, c, s))
				if !reflect.DeepEqual(seq, par) {
					t.Fatalf("%v seed %d: workers=%d diverged:\nseq %+v\npar %+v",
						task, seed, workers, seq, par)
				}
			}
		}
	}
}

// TestParallelRHESharedProblem exercises the documented internal
// parallelism on a single Problem value (workers clone scratch; the
// instance data is shared read-only). Mostly a -race canary.
func TestParallelRHESharedProblem(t *testing.T) {
	tuples := miningTuples(700, 37)
	c := buildCube(t, tuples, cube.Config{RequireState: true, MinSupport: 8, MaxAVPairs: 2})
	s := DefaultSettings()
	s.Workers = 4
	s.Restarts = 16
	p := newProblem(t, DiversityMining, c, s)
	first := solve(t, p)
	if !first.Feasible {
		t.Fatal("infeasible")
	}
	second := solve(t, p)
	if !reflect.DeepEqual(first, second) {
		t.Fatalf("repeated parallel solves diverged: %+v vs %+v", first, second)
	}
}

func TestSolveRHECtxPreCancelled(t *testing.T) {
	tuples := miningTuples(500, 41)
	c := buildCube(t, tuples, cube.Config{RequireState: true, MinSupport: 8, MaxAVPairs: 2})
	p := newProblem(t, SimilarityMining, c, DefaultSettings())
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := p.SolveRHECtx(ctx); err != context.Canceled {
		t.Fatalf("got err %v, want context.Canceled", err)
	}
}

// TestSolveRHECtxCancelMidMine gives an oversized instance a deadline far
// shorter than its sequential runtime; the solver must notice and bail
// with the context error instead of running to completion.
func TestSolveRHECtxCancelMidMine(t *testing.T) {
	tuples := miningTuples(4000, 43)
	c := buildCube(t, tuples, cube.Config{RequireState: true, MinSupport: 4, MaxAVPairs: 3})
	s := DefaultSettings()
	s.Restarts = 10_000
	s.MaxIters = 10_000
	s.Workers = 2
	p := newProblem(t, SimilarityMining, c, s)

	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	start := time.Now()
	_, err := p.SolveRHECtx(ctx)
	if err != context.DeadlineExceeded {
		t.Fatalf("got err %v, want context.DeadlineExceeded", err)
	}
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Fatalf("cancellation took %v; solver is not checking the context", elapsed)
	}
}

// TestWorkersDoNotChangeEvals pins the work-accounting invariant the
// experiments rely on: Evals is a schedule-independent measure.
func TestWorkersDoNotChangeEvals(t *testing.T) {
	tuples := miningTuples(600, 47)
	c := buildCube(t, tuples, cube.Config{RequireState: true, MinSupport: 8, MaxAVPairs: 2})
	s := DefaultSettings()
	s.Workers = 1
	base := solve(t, newProblem(t, SimilarityMining, c, s)).Evals
	s.Workers = 6
	if got := solve(t, newProblem(t, SimilarityMining, c, s)).Evals; got != base {
		t.Fatalf("Evals varies with workers: %d vs %d", got, base)
	}
}
