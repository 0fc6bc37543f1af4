package maprat

import (
	"context"
	"errors"
	"reflect"
	"runtime"
	"sync"
	"testing"
	"time"
)

// freshEngine opens an unshared engine over the shared test dataset, so
// MineCount and cache state start at zero on every run.
func freshEngine(t testing.TB) *Engine {
	t.Helper()
	eng, err := Open(testEngine(t).Dataset(), nil)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	return eng
}

// stripVolatile zeroes the per-call fields so Explanations can be compared
// structurally.
func stripVolatile(ex *Explanation) Explanation {
	out := *ex
	out.Elapsed = 0
	out.FromCache = false
	return out
}

// TestConcurrentIdenticalExplainsMineOnce drives a burst of identical
// queries through one engine: every caller must get the same explanation,
// and the cache + singleflight layers must collapse the burst into a
// single mining run.
func TestConcurrentIdenticalExplainsMineOnce(t *testing.T) {
	e := freshEngine(t)
	q := mustQuery(t, e, `genre:Drama`)

	const callers = 12
	var wg sync.WaitGroup
	results := make([]*Explanation, callers)
	errs := make([]error, callers)
	start := make(chan struct{})
	for i := 0; i < callers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			<-start
			results[i], errs[i] = e.ExplainContext(t.Context(), ExplainRequest{Query: q})
		}(i)
	}
	close(start)
	wg.Wait()

	for i, err := range errs {
		if err != nil {
			t.Fatalf("caller %d: %v", i, err)
		}
	}
	want := stripVolatile(results[0])
	for i := 1; i < callers; i++ {
		if got := stripVolatile(results[i]); !reflect.DeepEqual(got, want) {
			t.Fatalf("caller %d diverged:\ngot  %+v\nwant %+v", i, got, want)
		}
	}
	if mines := e.MineCount(); mines != 1 {
		t.Fatalf("burst of %d identical queries mined %d times, want 1", callers, mines)
	}
}

// TestConcurrentMixedExplains is the -race canary for the whole engine:
// distinct queries, drill-downs and browse calls in flight at once.
func TestConcurrentMixedExplains(t *testing.T) {
	e := freshEngine(t)
	queries := []string{
		`genre:Drama`,
		`genre:Comedy`,
		`movie:"Toy Story"`,
		`genre:Action`,
	}
	var wg sync.WaitGroup
	for rep := 0; rep < 3; rep++ {
		for _, qs := range queries {
			wg.Add(1)
			go func(qs string) {
				defer wg.Done()
				q, err := e.ParseQuery(qs)
				if err != nil {
					t.Errorf("parse %q: %v", qs, err)
					return
				}
				if _, err := e.ExplainContext(t.Context(), ExplainRequest{Query: q}); err != nil {
					t.Errorf("explain %q: %v", qs, err)
				}
			}(qs)
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			if states, err := e.BrowseStatesAt(0); err != nil || len(states) == 0 {
				t.Errorf("BrowseStatesAt empty: %v", err)
			}
		}()
	}
	wg.Wait()
}

// TestEngineWorkersMatchSequential runs the same request with a one-worker
// and a four-worker solver through the public API (the RHE pool is sized
// by GOMAXPROCS); the mined groups must be identical (Elapsed differs, so
// compare Results).
func TestEngineWorkersMatchSequential(t *testing.T) {
	e := testColdEngine(t)
	q := mustQuery(t, e, `genre:Drama`)
	explainAt := func(procs int) *Explanation {
		defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
		ex, err := e.ExplainContext(t.Context(), ExplainRequest{Query: q})
		if err != nil {
			t.Fatal(err)
		}
		return ex
	}
	seq, par := explainAt(1), explainAt(4)
	if !reflect.DeepEqual(seq.Results, par.Results) {
		t.Fatalf("results diverged:\nseq %+v\npar %+v", seq.Results, par.Results)
	}
}

func TestExplainContextPreCancelled(t *testing.T) {
	e := testColdEngine(t)
	q := mustQuery(t, e, `genre:Drama`)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := e.ExplainContext(ctx, ExplainRequest{Query: q})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("got %v, want context.Canceled", err)
	}
}

// TestExplainContextCancelMidMine makes the mine expensive enough that the
// deadline fires inside RHE, and checks the context error surfaces.
func TestExplainContextCancelMidMine(t *testing.T) {
	e := testColdEngine(t)
	q := mustQuery(t, e, `genre:Drama`)
	s := DefaultSettings()
	s.Restarts = 100_000
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	_, err := e.ExplainContext(ctx, ExplainRequest{Query: q, Settings: s})
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("got %v, want context.DeadlineExceeded", err)
	}
}

// TestDrillContextDeadline is the drill counterpart of
// TestExplainContextCancelMidMine: the deadline must reach the drill's
// RHE run, which would otherwise grind through every restart. The plan is
// warmed first, so the deadline can only fire inside DrillPlan's solve.
func TestDrillContextDeadline(t *testing.T) {
	e := testEngine(t)
	q := mustQuery(t, e, `genre:Drama`)
	ex, err := e.ExplainContext(t.Context(), ExplainRequest{Query: q, Tasks: []Task{SimilarityMining}})
	if err != nil {
		t.Fatal(err)
	}
	key := ex.Result(SimilarityMining).Groups[0].Key
	if _, err := e.DrillMineContext(t.Context(), q, key, SimilarityMining, DefaultSettings()); err != nil {
		t.Fatalf("warm-up drill: %v", err)
	}

	s := DefaultSettings()
	s.Restarts = 100_000
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	done := make(chan error, 1)
	go func() {
		_, err := e.DrillMineContext(ctx, q, key, SimilarityMining, s)
		done <- err
	}()
	select {
	case err := <-done:
		if !errors.Is(err, context.DeadlineExceeded) {
			t.Fatalf("got %v, want context.DeadlineExceeded", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("drill still mining 10s past its 20ms deadline")
	}
}

// TestContextVariantsPreCancelled sweeps the remaining Context APIs with a
// dead context; all must refuse immediately.
func TestContextVariantsPreCancelled(t *testing.T) {
	e := testEngine(t)
	q := mustQuery(t, e, `genre:Drama`)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()

	ex, err := e.ExplainContext(t.Context(), ExplainRequest{Query: q})
	if err != nil {
		t.Fatal(err)
	}
	key := ex.Results[0].Groups[0].Key

	if _, err := e.ExploreFullContext(ctx, q, key, 0, -1); !errors.Is(err, context.Canceled) {
		t.Errorf("ExploreFullContext: %v", err)
	}
	if _, err := e.RefineGroupContext(ctx, q, key, 4); !errors.Is(err, context.Canceled) {
		t.Errorf("RefineGroupContext: %v", err)
	}
	if _, err := e.DrillMineContext(ctx, q, key, SimilarityMining, DefaultSettings()); !errors.Is(err, context.Canceled) {
		t.Errorf("DrillMineContext: %v", err)
	}
	if _, err := e.EvolutionContext(ctx, ExplainRequest{Query: q}); !errors.Is(err, context.Canceled) {
		t.Errorf("EvolutionContext: %v", err)
	}
}
