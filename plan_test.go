package maprat

import (
	"errors"
	"fmt"
	"reflect"
	"sync"
	"testing"

	"repro/internal/cube"
	"repro/internal/store"
)

// TestPlanReuseAcrossPipelines is the ISSUE's core acceptance: after one
// ExplainContext, ExploreFullContext, RefineGroupContext and
// DrillMineContext on the same query do
// zero query-resolution and zero cube-build work — the materialized plan
// serves all of them.
func TestPlanReuseAcrossPipelines(t *testing.T) {
	e := freshEngine(t)
	q := mustQuery(t, e, `movie:"Toy Story"`)

	ex, err := e.ExplainContext(t.Context(), ExplainRequest{Query: q, Tasks: []Task{SimilarityMining}})
	if err != nil {
		t.Fatal(err)
	}
	key := ex.Result(SimilarityMining).Groups[0].Key
	after := e.PlanStats()
	if after.Builds != 1 {
		t.Fatalf("Explain built %d plans, want 1 (stats %+v)", after.Builds, after)
	}

	if _, err := e.ExploreFullContext(t.Context(), q, key, 8, -1); err != nil {
		t.Fatalf("ExploreGroup: %v", err)
	}
	if _, err := e.RefineGroupContext(t.Context(), q, key, 5); err != nil {
		t.Fatalf("RefineGroup: %v", err)
	}
	if _, err := e.DrillMineContext(t.Context(), q, key, SimilarityMining, DefaultSettings()); err != nil {
		t.Fatalf("DrillMine: %v", err)
	}

	st := e.PlanStats()
	if st.Builds != 1 {
		t.Errorf("Explore/Refine/DrillMine re-built the plan: builds = %d, want 1", st.Builds)
	}
	if st.Hits < 3 {
		t.Errorf("plan hits = %d, want ≥ 3 (one per follow-up interaction)", st.Hits)
	}
	if st.Tuples == 0 || st.Bytes == 0 {
		t.Errorf("budget accounting empty: %+v", st)
	}
}

// TestPlanDisabledEngineStillWorks drives every pipeline with the
// materialization tier off; planFor must fall back to fresh builds.
func TestPlanDisabledEngineStillWorks(t *testing.T) {
	ds, err := Generate(SmallGenConfig())
	if err != nil {
		t.Fatal(err)
	}
	opts := DefaultOptions()
	opts.Store.PlanCacheTuples = 0
	e, err := Open(ds, &opts)
	if err != nil {
		t.Fatal(err)
	}
	q := mustQuery(t, e, `movie:"Toy Story"`)
	ex, err := e.ExplainContext(t.Context(), ExplainRequest{Query: q, Tasks: []Task{SimilarityMining}})
	if err != nil {
		t.Fatal(err)
	}
	key := ex.Result(SimilarityMining).Groups[0].Key
	if _, err := e.ExploreFullContext(t.Context(), q, key, 8, -1); err != nil {
		t.Fatal(err)
	}
	if _, err := e.RefineGroupContext(t.Context(), q, key, 5); err != nil {
		t.Fatal(err)
	}
	if st := e.PlanStats(); st != (store.PlanStats{}) {
		t.Errorf("disabled tier reported stats: %+v", st)
	}
}

// TestMaterializationDeterminism: mined Solutions for a fixed seed are
// byte-identical with the materialization tier on and off, and the
// exploration payloads match too.
func TestMaterializationDeterminism(t *testing.T) {
	ds, err := Generate(SmallGenConfig())
	if err != nil {
		t.Fatal(err)
	}
	on, err := Open(ds, nil)
	if err != nil {
		t.Fatal(err)
	}
	offOpts := DefaultOptions()
	offOpts.Store.PlanCacheTuples = 0
	offOpts.Store.CacheSize = 0
	off, err := Open(ds, &offOpts)
	if err != nil {
		t.Fatal(err)
	}

	for _, qs := range []string{`movie:"Toy Story"`, `actor:"Tom Hanks"`} {
		q := mustQuery(t, on, qs)
		req := ExplainRequest{Query: q}
		exOn, err := on.ExplainContext(t.Context(), req)
		if err != nil {
			t.Fatalf("%s (tier on): %v", qs, err)
		}
		exOff, err := off.ExplainContext(t.Context(), req)
		if err != nil {
			t.Fatalf("%s (tier off): %v", qs, err)
		}
		if !reflect.DeepEqual(stripVolatile(exOn), stripVolatile(exOff)) {
			t.Errorf("%s: explanations diverge with the tier on/off:\non  %+v\noff %+v",
				qs, stripVolatile(exOn), stripVolatile(exOff))
		}

		key := exOn.Results[0].Groups[0].Key
		geOn, err := on.ExploreFullContext(t.Context(), q, key, 8, -1)
		if err != nil {
			t.Fatal(err)
		}
		geOff, err := off.ExploreFullContext(t.Context(), q, key, 8, -1)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(geOn, geOff) {
			t.Errorf("%s: exploration diverges with the tier on/off", qs)
		}
	}
}

// TestExplainCacheHitIsDeepCopy is the regression test for the
// cache-aliasing bug: a caller mutating its Explanation must not poison
// the cached value other callers receive.
func TestExplainCacheHitIsDeepCopy(t *testing.T) {
	e := freshEngine(t)
	q := mustQuery(t, e, `movie:"Toy Story"`)
	req := ExplainRequest{Query: q, Tasks: []Task{SimilarityMining}}

	first, err := e.ExplainContext(t.Context(), req) // leader: its value IS the cached one
	if err != nil {
		t.Fatal(err)
	}
	wantIDs := append([]int(nil), first.ItemIDs...)
	wantQuery := first.Query.String()
	wantPhrase := first.Results[0].Groups[0].Phrase
	wantGroups := len(first.Results[0].Groups)

	// Maul the leader's copy in every aliased dimension.
	first.ItemIDs[0] = -999
	first.Query.Preds[0].Value = "poisoned"
	first.Results[0].Groups[0].Phrase = "poisoned"
	first.Results[0].Groups = first.Results[0].Groups[:0]
	first.Results = first.Results[:0]

	second, err := e.ExplainContext(t.Context(), req)
	if err != nil {
		t.Fatal(err)
	}
	if !second.FromCache {
		t.Fatal("second fetch missed the cache")
	}
	if !reflect.DeepEqual(second.ItemIDs, wantIDs) {
		t.Errorf("ItemIDs poisoned through the cache: %v", second.ItemIDs)
	}
	if got := second.Query.String(); got != wantQuery {
		t.Errorf("Query.Preds poisoned through the cache: %q, want %q", got, wantQuery)
	}
	if len(second.Results) != 1 || len(second.Results[0].Groups) != wantGroups {
		t.Fatalf("Results/Groups poisoned through the cache: %+v", second.Results)
	}
	if got := second.Results[0].Groups[0].Phrase; got != wantPhrase {
		t.Errorf("Phrase = %q, want %q", got, wantPhrase)
	}

	// And a hit's copy must not poison the next hit either.
	second.Results[0].Groups[0].Phrase = "poisoned again"
	third, err := e.ExplainContext(t.Context(), req)
	if err != nil {
		t.Fatal(err)
	}
	if got := third.Results[0].Groups[0].Phrase; got != wantPhrase {
		t.Errorf("hit-to-hit aliasing: Phrase = %q, want %q", got, wantPhrase)
	}
}

// TestConcurrentExploresBuildPlanOnce is the -race check that concurrent
// first-touch interactions on one query collapse into a single plan build
// through the tier's singleflight front.
func TestConcurrentExploresBuildPlanOnce(t *testing.T) {
	e := freshEngine(t)
	q := mustQuery(t, e, `movie:"Toy Story"`)
	// The CA state group materializes for every Toy-Story-scale query.
	key := cube.KeyAll.With(cube.State, cube.StateIndex("CA"))

	const callers = 12
	var wg sync.WaitGroup
	stats := make([]*GroupStats, callers)
	errs := make([]error, callers)
	start := make(chan struct{})
	for i := 0; i < callers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			<-start
			var ge *GroupExploration
			ge, errs[i] = e.ExploreFullContext(t.Context(), q, key, 8, -1)
			if ge != nil {
				stats[i] = &ge.Stats
			}
		}(i)
	}
	close(start)
	wg.Wait()

	for i := 0; i < callers; i++ {
		if errs[i] != nil {
			t.Fatalf("caller %d: %v", i, errs[i])
		}
		if !reflect.DeepEqual(*stats[i], *stats[0]) {
			t.Fatalf("caller %d diverged", i)
		}
	}
	if st := e.PlanStats(); st.Builds != 1 {
		t.Fatalf("burst of %d explores built %d plans, want 1 (stats %+v)", callers, st.Builds, st)
	}
}

// TestPlanKeyedByCubeConfig: a framework-mode (un-anchored) request uses
// a different cube config and therefore a different plan — the tier must
// key them apart.
func TestPlanKeyedByCubeConfig(t *testing.T) {
	e := freshEngine(t)
	q := mustQuery(t, e, `movie:"The Twilight Saga: Eclipse"`)
	s := DefaultSettings()
	s.K = 2
	s.Coverage = 0.10
	if _, err := e.ExplainContext(t.Context(), ExplainRequest{Query: q, Settings: s, Tasks: []Task{DiversityMining}}); err != nil {
		t.Fatal(err)
	}
	q.Framework = true
	if _, err := e.ExplainContext(t.Context(), ExplainRequest{Query: q, Settings: s, Tasks: []Task{DiversityMining}}); err != nil {
		t.Fatal(err)
	}
	if st := e.PlanStats(); st.Builds != 2 {
		t.Errorf("distinct cube configs shared a plan: builds = %d, want 2", st.Builds)
	}
}

// TestPlanKeyFormatsEveryCubeField: PlanKey formats the cube config by
// hand, field by field. It must write what fmt's %+v writes, which names
// every field, so a field added to cube.Config and left out of the key
// fails here instead of letting two configs share a plan.
func TestPlanKeyFormatsEveryCubeField(t *testing.T) {
	q := mustQuery(t, freshEngine(t), `movie:"Toy Story" OR movie:"Heat"`)
	q.Window = TimeWindow{From: 1, To: 2}
	for _, cfg := range []cube.Config{
		{}, cube.DefaultConfig(), cube.FrameworkConfig(),
		{RequireState: true, RequireCity: true, MinSupport: -7, MaxAVPairs: 1 << 20, SkipApex: true},
	} {
		if got, want := PlanKey(q, cfg), fmt.Sprintf("plan|%s|cube=%+v", q.String(), cfg); got != want {
			t.Errorf("PlanKey = %q, want %q", got, want)
		}
	}
}

// TestFrameworkClicksShareExplainPlan: group, refine and drill calls on
// the groups of a framework-mode explanation run on the plan that
// explanation was mined from, so the whole session builds one plan. A
// stateless key reaches that plan from a state-anchored query too: no
// other cube can hold it.
func TestFrameworkClicksShareExplainPlan(t *testing.T) {
	e := freshEngine(t)
	ctx := t.Context()
	q := mustQuery(t, e, `movie:"Toy Story"`)
	q.Framework = true
	s := DefaultSettings()
	s.K = 2
	s.Coverage = 0.10
	ex, err := e.ExplainContext(ctx, ExplainRequest{Query: q, Settings: s})
	if err != nil {
		t.Fatal(err)
	}
	stateless := false
	for _, tr := range ex.Results {
		for _, g := range tr.Groups {
			if _, err := e.ExploreFullContext(ctx, q, g.Key, 0, 0); err != nil {
				t.Errorf("group %v: %v", g.Key, err)
			}
			if _, err := e.RefineGroupContext(ctx, q, g.Key, 0); err != nil {
				t.Errorf("refine %v: %v", g.Key, err)
			}
			if _, err := e.DrillMineContext(ctx, q, g.Key, SimilarityMining, s); errors.Is(err, ErrNoGroup) {
				t.Errorf("drill %v: %v", g.Key, err)
			}
			if !g.Key.Has(cube.State) {
				stateless = true
				geo := q
				geo.Framework = false
				if _, err := e.ExploreFullContext(ctx, geo, g.Key, 0, 0); err != nil {
					t.Errorf("state-anchored group %v: %v", g.Key, err)
				}
			}
		}
	}
	if !stateless {
		t.Fatal("fixture explanation has no stateless group; pick another query")
	}
	if st := e.PlanStats(); st.Builds != 1 {
		t.Errorf("framework explain and its clicks built %d plans, want 1 (stats %+v)", st.Builds, st)
	}
}

// TestMemoHitIsDeepCopy is TestExplainCacheHitIsDeepCopy for the results
// memoized on a plan: a caller mutating every slice of a group, refine or
// drill answer must not poison the memoized value later callers receive.
func TestMemoHitIsDeepCopy(t *testing.T) {
	e := freshEngine(t)
	ctx := t.Context()
	q := mustQuery(t, e, `movie:"Toy Story"`)
	key := cube.KeyAll.With(cube.State, cube.StateIndex("CA"))
	ops := []struct {
		name string
		read func() (any, error)
		maul func(v any)
	}{
		{"group", func() (any, error) { return e.ExploreFullContext(ctx, q, key, 8, 0) }, func(v any) {
			ge := v.(*GroupExploration)
			if len(ge.Stats.Cities) == 0 || len(ge.Stats.Timeline) == 0 || len(ge.Related) == 0 || len(ge.Refinements) == 0 {
				t.Fatalf("group answer has an empty slice, so the test cannot maul it: %+v", ge)
			}
			ge.Stats.Cities[0].City = "poisoned"
			ge.Stats.Cities = ge.Stats.Cities[:0]
			ge.Stats.Timeline[0].Agg.Count = -1
			ge.Stats.Timeline = ge.Stats.Timeline[:0]
			ge.Stats.Histogram[1] = -1
			ge.Related[0].Phrase = "poisoned"
			ge.Related = ge.Related[:0]
			ge.Refinements[0].Added = "poisoned"
			ge.Refinements[0].Group.Phrase = "poisoned"
			ge.Refinements = ge.Refinements[:0]
		}},
		{"refine", func() (any, error) { return e.RefineGroupContext(ctx, q, key, 0) }, func(v any) {
			refs := v.([]Refinement)
			if len(refs) == 0 {
				t.Fatal("no refinements to maul")
			}
			refs[0].Added = "poisoned"
			refs[0].Group.Phrase = "poisoned"
			refs[0].Delta = -99
		}},
		{"drill", func() (any, error) { return e.DrillMineContext(ctx, q, key, SimilarityMining, DefaultSettings()) }, func(v any) {
			tr := v.(*TaskResult)
			if len(tr.Groups) == 0 {
				t.Fatal("no drill groups to maul")
			}
			tr.Groups[0].Phrase = "poisoned"
			tr.Groups[0].Agg.Count = -1
			tr.Groups = tr.Groups[:0]
			tr.Objective = -99
		}},
	}
	for _, op := range ops {
		// The first read is the miss whose value was memoized, the second
		// a hit: mauling either must leave the memo intact.
		for i := 0; i < 2; i++ {
			hits := e.PlanStats().MemoHits
			v, err := op.read()
			if err != nil {
				t.Fatalf("%s: %v", op.name, err)
			}
			if hit := e.PlanStats().MemoHits > hits; hit != (i == 1) {
				t.Fatalf("%s read %d: memo hit = %v", op.name, i, hit)
			}
			want := opAnswer(t, v, nil)
			op.maul(v)
			again, err := op.read()
			if err != nil {
				t.Fatalf("%s: %v", op.name, err)
			}
			if got := opAnswer(t, again, nil); got != want {
				t.Fatalf("%s read %d: memo poisoned through a returned answer\n got %s\nwant %s", op.name, i, got, want)
			}
		}
	}
}

// TestMemoKeyCoverage: every argument that changes a group, refine or
// drill answer is part of its memo key, so no two of these requests on
// one parent share an entry — each is a miss the first time and a hit
// the second — and each answer equals that of an engine with the result
// cache off and the plan tier on, which never memoizes.
func TestMemoKeyCoverage(t *testing.T) {
	ds, err := Generate(SmallGenConfig())
	if err != nil {
		t.Fatal(err)
	}
	e, err := Open(ds, nil)
	if err != nil {
		t.Fatal(err)
	}
	opts := DefaultOptions()
	opts.Store.CacheSize = 0
	ref, err := Open(ds, &opts)
	if err != nil {
		t.Fatal(err)
	}
	ctx := t.Context()
	q := mustQuery(t, e, `movie:"Toy Story"`)
	key := cube.KeyAll.With(cube.State, cube.StateIndex("CA"))
	var reqs []func(*Engine) string
	for _, buckets := range []int{4, 8} {
		for _, limit := range []int{2, 5} {
			reqs = append(reqs, func(m *Engine) string {
				ge, err := m.ExploreFullContext(ctx, q, key, buckets, limit)
				return opAnswer(t, ge, err)
			})
		}
	}
	for _, limit := range []int{2, 5} {
		reqs = append(reqs, func(m *Engine) string {
			refs, err := m.RefineGroupContext(ctx, q, key, limit)
			return opAnswer(t, refs, err)
		})
	}
	for _, task := range []Task{SimilarityMining, DiversityMining} {
		for _, seed := range []int64{1, 2} {
			s := DefaultSettings()
			s.Seed = seed
			reqs = append(reqs, func(m *Engine) string {
				tr, err := m.DrillMineContext(ctx, q, key, task, s)
				return opAnswer(t, tr, err)
			})
		}
	}
	for round := 0; round < 2; round++ {
		for i, req := range reqs {
			before := e.PlanStats()
			got := req(e)
			after := e.PlanStats()
			hit := after.MemoHits > before.MemoHits
			if hit != (round == 1) {
				t.Fatalf("request %d, round %d: memo hit = %v — two requests share an entry", i, round, hit)
			}
			if want := req(ref); got != want {
				t.Fatalf("request %d, round %d: memoized answer differs from the cache-off engine\n got %s\nwant %s", i, round, got, want)
			}
		}
	}
	if st := ref.PlanStats(); st.MemoHits+st.MemoMisses != 0 {
		t.Fatalf("the CacheSize 0 engine consulted plan memos (%d hits, %d misses)", st.MemoHits, st.MemoMisses)
	}
}
