package maprat

// End-to-end integration tests: the full pipeline over the MovieLens file
// format (generate → write → load → explain) must agree with the
// in-memory pipeline, and the facade must behave under the paper's demo
// walk-through sequence.

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/cube"
)

func TestIntegrationFileRoundTripExplain(t *testing.T) {
	cfg := SmallGenConfig()
	cfg.Users, cfg.Movies, cfg.Ratings = 600, 200, 30_000
	ds, err := Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	if err := WriteDir(dir, ds); err != nil {
		t.Fatal(err)
	}
	loaded, err := LoadDir(dir)
	if err != nil {
		t.Fatal(err)
	}

	engMem, err := Open(ds, nil)
	if err != nil {
		t.Fatal(err)
	}
	engFile, err := Open(loaded, nil)
	if err != nil {
		t.Fatal(err)
	}

	q, err := engMem.ParseQuery(`movie:"Toy Story"`)
	if err != nil {
		t.Fatal(err)
	}
	a, err := engMem.ExplainContext(t.Context(), ExplainRequest{Query: q, DisableCache: true})
	if err != nil {
		t.Fatal(err)
	}
	b, err := engFile.ExplainContext(t.Context(), ExplainRequest{Query: q, DisableCache: true})
	if err != nil {
		t.Fatal(err)
	}
	if a.NumRatings != b.NumRatings {
		t.Fatalf("ratings differ: %d vs %d", a.NumRatings, b.NumRatings)
	}
	if a.Overall != b.Overall {
		t.Fatalf("overall aggregates differ: %+v vs %+v", a.Overall, b.Overall)
	}
	for ti := range a.Results {
		ga, gb := a.Results[ti].Groups, b.Results[ti].Groups
		if len(ga) != len(gb) {
			t.Fatalf("task %d: %d vs %d groups", ti, len(ga), len(gb))
		}
		for i := range ga {
			if ga[i].Key != gb[i].Key || ga[i].Agg != gb[i].Agg {
				t.Fatalf("task %d group %d differs: %+v vs %+v", ti, i, ga[i], gb[i])
			}
		}
	}
}

func TestIntegrationCorruptFilesRejected(t *testing.T) {
	cfg := SmallGenConfig()
	cfg.Users, cfg.Movies, cfg.Ratings = 100, 40, 1500
	ds, err := Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	corruptions := []struct {
		name string
		file string
		line string
	}{
		{"garbage users line", "users.dat", "THIS IS NOT MOVIELENS\n"},
		{"score out of range", "ratings.dat", "1::1::99::978300000\n"},
		{"movie missing fields", "movies.dat", "999\n"},
		{"cast for unknown movie", "cast.dat", "424242::Nobody::Nobody\n"},
	}
	for _, c := range corruptions {
		t.Run(c.name, func(t *testing.T) {
			dir := t.TempDir()
			if err := WriteDir(dir, ds); err != nil {
				t.Fatal(err)
			}
			f, err := os.OpenFile(filepath.Join(dir, c.file), os.O_APPEND|os.O_WRONLY, 0)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := f.WriteString(c.line); err != nil {
				t.Fatal(err)
			}
			f.Close()
			if _, err := LoadDir(dir); err == nil {
				t.Errorf("corrupt %s accepted", c.file)
			}
		})
	}
}

// TestIntegrationDemoWalkthrough follows the §3 demonstration plan as one
// scripted session: search → explain → explore → drill deeper → time
// slider, on several of the paper's example queries.
func TestIntegrationDemoWalkthrough(t *testing.T) {
	e := testEngine(t)
	for _, qs := range []string{
		`movie:"The Social Network"`,
		`actor:"Tom Hanks"`,
		`title:"lord rings"`,
		`director:"Steven Spielberg" AND genre:Thriller`,
	} {
		t.Run(qs, func(t *testing.T) {
			q := mustQuery(t, e, qs)
			ex, err := e.ExplainContext(t.Context(), ExplainRequest{Query: q})
			if err != nil {
				t.Fatalf("explain: %v", err)
			}
			sm := ex.Result(SimilarityMining)
			if sm == nil || len(sm.Groups) == 0 {
				t.Fatal("no SM groups")
			}
			top := sm.Groups[0]
			ge, err := e.ExploreFullContext(t.Context(), q, top.Key, 4, -1)
			if err != nil {
				t.Fatalf("explore: %v", err)
			}
			if st := ge.Stats; st.Agg.Count != top.Agg.Count {
				t.Errorf("explore count %d != explain count %d", st.Agg.Count, top.Agg.Count)
			}
			if _, err := e.RefineGroupContext(t.Context(), q, top.Key, 3); err != nil {
				t.Errorf("refine: %v", err)
			}
			points, err := e.EvolutionContext(t.Context(), ExplainRequest{Query: q, Tasks: []Task{SimilarityMining}})
			if err != nil {
				t.Fatalf("evolution: %v", err)
			}
			if len(points) == 0 {
				t.Error("no evolution windows")
			}
			v := RenderExploration(ex)
			if len(v.Maps) == 0 || !strings.HasPrefix(v.Maps[0].SVG(), "<svg") {
				t.Error("rendering broken")
			}
		})
	}
}

// TestIntegrationWoodyAllenSet reproduces §1's "set of items with common
// features" claim: mining over all movies directed by Woody Allen.
func TestIntegrationWoodyAllenSet(t *testing.T) {
	e := testEngine(t)
	q := mustQuery(t, e, `director:"Woody Allen"`)
	ex, err := e.ExplainContext(t.Context(), ExplainRequest{Query: q})
	if err != nil {
		t.Fatalf("explain: %v", err)
	}
	if len(ex.ItemIDs) < 3 {
		t.Fatalf("Woody Allen set has %d movies, want the 3 planted ones", len(ex.ItemIDs))
	}
	total := 0
	for _, id := range ex.ItemIDs {
		total += len(e.Store().TuplesForItems([]int{id}, TimeWindow{}))
	}
	if ex.NumRatings != total {
		t.Errorf("set mining saw %d ratings, per-item sum is %d", ex.NumRatings, total)
	}
}

func TestIntegrationProfileNarrowsBrowse(t *testing.T) {
	// A profile with a state restricts every geo-anchored group to that
	// state — "the groups the user most self-identifies with".
	e := testEngine(t)
	q := mustQuery(t, e, `movie:"Toy Story"`)
	s := DefaultSettings()
	s.Profile = cube.KeyAll.With(cube.State, cube.StateIndex("CA"))
	s.Coverage = 0.05 // a single state cannot cover 20% nationally
	ex, err := e.ExplainContext(t.Context(), ExplainRequest{Query: q, Settings: s, Tasks: []Task{SimilarityMining}})
	if err != nil {
		t.Fatalf("explain: %v", err)
	}
	for _, g := range ex.Result(SimilarityMining).Groups {
		if g.State != "CA" {
			t.Errorf("profile state violated: %v", g.Key)
		}
	}
}

func TestIntegrationDrillMine(t *testing.T) {
	e := testEngine(t)
	q := mustQuery(t, e, `movie:"Toy Story"`)
	ex, err := e.ExplainContext(t.Context(), ExplainRequest{Query: q, Tasks: []Task{SimilarityMining}})
	if err != nil {
		t.Fatal(err)
	}
	parent := ex.Result(SimilarityMining).Groups[0]

	s := DefaultSettings()
	s.K = 3
	s.Coverage = 0.25
	tr, err := e.DrillMineContext(t.Context(), q, parent.Key, SimilarityMining, s)
	if err != nil {
		t.Fatalf("DrillMine: %v", err)
	}
	if !tr.Feasible || len(tr.Groups) == 0 {
		t.Fatalf("drill result unusable: %+v", tr)
	}
	for _, g := range tr.Groups {
		if !g.Key.Has(cube.City) {
			t.Errorf("drill group %v lacks the city condition", g.Key)
		}
		if g.Agg.Count > parent.Agg.Count {
			t.Errorf("drill group %v larger than its parent", g.Key)
		}
		if g.Agg.Count == 0 {
			t.Errorf("empty drill group %v", g.Key)
		}
		if !strings.Contains(g.Phrase, "from") {
			t.Errorf("drill phrase %q lacks the city anchor", g.Phrase)
		}
	}
	// Every drill group's members are a subset of the parent's audience:
	// their total cannot exceed the parent's support times K (overlap aside).
	total := 0
	for _, g := range tr.Groups {
		total += g.Agg.Count
	}
	if total > parent.Agg.Count*len(tr.Groups) {
		t.Errorf("drill totals inconsistent: %d vs parent %d", total, parent.Agg.Count)
	}

	// Unknown parent fails cleanly.
	bogus := cube.KeyAll.With(cube.State, cube.StateIndex("WY")).With(cube.Occupation, 8)
	if _, err := e.DrillMineContext(t.Context(), q, bogus, SimilarityMining, s); err == nil {
		t.Error("unknown parent accepted")
	}
}
