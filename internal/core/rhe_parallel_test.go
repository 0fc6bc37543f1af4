package core

import (
	"context"
	"reflect"
	"runtime"
	"testing"
	"time"

	"repro/internal/cube"
)

// TestParallelRHEMatchesSequential is the determinism contract of the
// worker-pool solver: for any fixed seed, the Solution must be
// byte-identical no matter how many workers execute the restarts. The
// pool is sized by GOMAXPROCS, so the test swaps it: one worker at
// GOMAXPROCS 1, up to eight above.
func TestParallelRHEMatchesSequential(t *testing.T) {
	tuples := miningTuples(900, 31)
	c := buildCube(t, tuples, cube.Config{RequireState: true, MinSupport: 8, MaxAVPairs: 2})
	for _, task := range []Task{SimilarityMining, DiversityMining} {
		for seed := int64(1); seed <= 4; seed++ {
			s := DefaultSettings()
			s.Seed = seed
			s.Restarts = 12

			seq := solveAt(t, 1, newProblem(t, task, c, s))

			for _, procs := range []int{2, 4, 8} {
				par := solveAt(t, procs, newProblem(t, task, c, s))
				if !reflect.DeepEqual(seq, par) {
					t.Fatalf("%v seed %d: GOMAXPROCS=%d diverged:\nseq %+v\npar %+v",
						task, seed, procs, seq, par)
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
	s.Restarts = 16
	p := newProblem(t, DiversityMining, c, s)
	first := solveAt(t, 4, p)
	if !first.Feasible {
		t.Fatal("infeasible")
	}
	second := solveAt(t, 4, p)
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
	p := newProblem(t, SimilarityMining, c, s)
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(2))

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
	base := solveAt(t, 1, newProblem(t, SimilarityMining, c, s)).Evals
	if got := solveAt(t, 6, newProblem(t, SimilarityMining, c, s)).Evals; got != base {
		t.Fatalf("Evals varies with workers: %d vs %d", got, base)
	}
}
