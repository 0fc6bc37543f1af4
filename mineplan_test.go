package maprat

import (
	"bytes"
	"context"
	"errors"
	"reflect"
	"runtime"
	"strings"
	"testing"
	"time"

	"repro/internal/store"
)

// minePlanFor pins q and fetches its explain plan from e.
func minePlanFor(t *testing.T, e *Engine, q Query) *store.Plan {
	t.Helper()
	q, err := e.pinQuery(q)
	if err != nil {
		t.Fatal(err)
	}
	p, err := e.planFor(t.Context(), q, e.cubeConfig(q, nil))
	if err != nil {
		t.Fatalf("plan for %v: %v", q, err)
	}
	return p
}

// TestMinePlanMatchesSequentialFold checks that MinePlan, which solves its
// tasks side by side, answers what a sequential fold of solveTask over
// req.Tasks would: the same results in the same order, and the first
// failing task's error in that order.
func TestMinePlanMatchesSequentialFold(t *testing.T) {
	e := testEngine(t)
	lo, hi := e.TimeRange()
	genre := mustQuery(t, e, `genre:Drama`)
	genre.Window = store.Between(lo+(hi-lo)/4, hi-(hi-lo)/4)
	framework := mustQuery(t, e, `actor:"Tom Hanks"`)
	framework.Framework = true
	relaxed := DefaultSettings()
	relaxed.Coverage = 0.9 // out of reach of three groups: the ladder halves it
	cases := []struct {
		name string
		req  ExplainRequest
	}{
		{"movie", ExplainRequest{Query: mustQuery(t, e, `movie:"Toy Story"`)}},
		{"actor", ExplainRequest{Query: mustQuery(t, e, `actor:"Tom Hanks"`)}},
		{"genre window", ExplainRequest{Query: genre}},
		{"framework", ExplainRequest{Query: framework}},
		{"relaxed", ExplainRequest{Query: mustQuery(t, e, `movie:"Heat"`), Settings: relaxed}},
		{"DM first", ExplainRequest{Query: mustQuery(t, e, `movie:"Heat"`), Tasks: []Task{DiversityMining, SimilarityMining}}},
	}
	for _, tc := range cases {
		p := minePlanFor(t, e, tc.req.Query)
		got, err := MinePlan(t.Context(), p, tc.req)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		req := tc.req
		if req.Settings.K == 0 {
			req.Settings = DefaultSettings()
		}
		if len(req.Tasks) == 0 {
			req.Tasks = []Task{SimilarityMining, DiversityMining}
		}
		var want []TaskResult
		for _, task := range req.Tasks {
			tr, err := solveTask(t.Context(), task, p.Cube, req)
			if err != nil {
				t.Fatalf("%s: sequential %v: %v", tc.name, task, err)
			}
			want = append(want, tr)
		}
		if !reflect.DeepEqual(got.Results, want) {
			t.Fatalf("%s: MinePlan results %+v, the sequential fold %+v", tc.name, got.Results, want)
		}
		if got.NumRatings != len(p.Tuples) || !reflect.DeepEqual(got.ItemIDs, p.ItemIDs) || got.Overall != p.Overall {
			t.Fatalf("%s: explanation header %d ratings, items %v, overall %+v; plan %d, %v, %+v",
				tc.name, got.NumRatings, got.ItemIDs, got.Overall, len(p.Tuples), p.ItemIDs, p.Overall)
		}
		if tc.name == "relaxed" {
			for _, tr := range got.Results {
				if !(tr.RelaxedCoverage < relaxed.Coverage) {
					t.Fatalf("relaxed: %v mined at α %v, the ladder was not walked", tr.Task, tr.RelaxedCoverage)
				}
			}
		}
	}

	// DM needs K ≥ 2, SM does not: whichever position DM holds, the
	// error names it.
	p := minePlanFor(t, e, cases[0].req.Query)
	for _, tasks := range [][]Task{{SimilarityMining, DiversityMining}, {DiversityMining, SimilarityMining}} {
		s := DefaultSettings()
		s.K = 1
		_, err := MinePlan(t.Context(), p, ExplainRequest{Query: cases[0].req.Query, Settings: s, Tasks: tasks})
		if err == nil || !strings.HasPrefix(err.Error(), "DM: ") {
			t.Fatalf("tasks %v with K 1: error %v, want one naming DM", tasks, err)
		}
	}
}

// TestMinePlanCancelJoinsEveryTask cancels mines whose solves would
// grind for seconds. MinePlan must return the context's error, or, when
// the first task fails on its own, that task's error without waiting for
// the deadline: the failure stops the other tasks. In both cases no
// solve may still be running once it has returned.
func TestMinePlanCancelJoinsEveryTask(t *testing.T) {
	e := testEngine(t)
	q := mustQuery(t, e, `genre:Drama`)
	p := minePlanFor(t, e, q)
	before := runtime.NumGoroutine()
	for _, tc := range []struct {
		name     string
		k        int
		tasks    []Task
		deadline time.Duration
	}{
		{"mid-mine", 3, nil, 20 * time.Millisecond},
		// DM fails at once (K < 2), and SM alone would mine past the
		// deadline: the error is DM's, returned before the deadline and
		// only after SM has stopped.
		{"after an early failure", 1, []Task{DiversityMining, SimilarityMining}, time.Minute},
	} {
		s := DefaultSettings()
		s.K, s.Restarts = tc.k, 100_000_000
		ctx, cancel := context.WithTimeout(t.Context(), tc.deadline)
		_, err := MinePlan(ctx, p, ExplainRequest{Query: q, Settings: s, Tasks: tc.tasks})
		ctxErr := ctx.Err()
		buf := make([]byte, 1<<20)
		stacks := buf[:runtime.Stack(buf, true)]
		cancel()
		if tc.tasks == nil && (!errors.Is(err, context.DeadlineExceeded) || !errors.Is(err, ctxErr)) {
			t.Fatalf("%s: got %v, want the context's %v", tc.name, err, ctxErr)
		}
		if tc.tasks != nil && (err == nil || !strings.HasPrefix(err.Error(), "DM: ") || ctxErr != nil) {
			t.Fatalf("%s: got %v with the context at %v, want DM's error before the deadline", tc.name, err, ctxErr)
		}
		for _, frame := range []string{"repro.solveTask(", "core.(*Problem).runRestart("} {
			if bytes.Contains(stacks, []byte(frame)) {
				t.Fatalf("%s: %s is still on a stack after MinePlan returned", tc.name, frame)
			}
		}
	}
	// Goroutines past their last deferred call may still be counted for
	// a moment; they must all be gone soon.
	for deadline := time.Now().Add(5 * time.Second); runtime.NumGoroutine() > before; {
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines after the cancelled mines, %d before", runtime.NumGoroutine(), before)
		}
		time.Sleep(time.Millisecond)
	}
}
